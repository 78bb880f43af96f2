"""Tests for the shared structural match conditions."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import BlockCache
from repro.core.invfile import InvertedFile
from repro.core.matchspec import QuerySpec
from repro.core.model import NestedSet
from repro.core.postings import (
    COLUMNAR_MIN,
    BlockData,
    LazyPostingList,
    PostingList,
    heads_with_child_in,
    id_array,
    intersect,
)
from repro.core.structural import (
    Frontier,
    _merge_intervals,
    filter_candidates,
    frontier_of,
    injective_cover,
    prefilter_survivors,
)
from repro.storage.codec import encode_blocked

N = NestedSet


@pytest.fixture
def index() -> InvertedFile:
    # root {t} -> child {m} -> grandchild {b}; second child {m2}
    tree = N(["t"], [N(["m"], [N(["b"])]), N(["m2"])])
    return InvertedFile.build([("r", tree)])


class TestInjectiveCover:
    def test_simple_bijection(self) -> None:
        assert injective_cover([{1}, {2}], (1, 2))

    def test_contention_resolved_by_augmenting(self) -> None:
        # set A fits child 1 or 2; set B only fits 1: A must take 2.
        assert injective_cover([{1, 2}, {1}], (1, 2))

    def test_impossible(self) -> None:
        assert not injective_cover([{1}, {1}], (1, 2))
        assert not injective_cover([{1}, {2}], (1,))

    def test_empty_requirements(self) -> None:
        assert injective_cover([], (1, 2))
        assert injective_cover([], ())


class TestFilterCandidates:
    def test_subset_hom(self, index) -> None:
        cand = PostingList([(0, (1, 3)), (1, (2,))])
        out = filter_candidates(cand, [{1}], index, QuerySpec())
        assert out.heads() == {0}

    def test_equality_child_count(self, index) -> None:
        cand = PostingList([(0, (1, 3)), (1, (2,))])
        spec = QuerySpec(join="equality")
        out = filter_candidates(cand, [{1}], index, spec)
        assert out.heads() == set()  # node 0 has 2 children, query has 1
        out2 = filter_candidates(cand, [{2}], index, spec)
        assert out2.heads() == {1}

    def test_superset_coverage(self, index) -> None:
        cand = PostingList([(0, (1, 3))])
        spec = QuerySpec(join="superset")
        # all of node 0's children (1 and 3) must be covered
        assert filter_candidates(cand, [{1}], index, spec).heads() == set()
        assert filter_candidates(cand, [{1}, {3}], index,
                                 spec).heads() == {0}

    def test_superset_leafless_candidate_with_children(self, index) -> None:
        cand = PostingList([(1, (2,))])
        spec = QuerySpec(join="superset")
        assert filter_candidates(cand, [], index, spec).heads() == set()

    def test_homeo_uses_descendants(self, index) -> None:
        # node 0's subtree spans ids (0, 3]; node 2 is a grandchild.
        cand = PostingList([(0, (1, 3))])
        spec = QuerySpec(semantics="homeo")
        assert filter_candidates(cand, [{2}], index, spec).heads() == {0}
        # under hom, the grandchild does not satisfy a child edge
        assert filter_candidates(cand, [{2}], index,
                                 QuerySpec()).heads() == set()

    def test_iso_requires_injective(self, index) -> None:
        cand = PostingList([(0, (1, 3))])
        spec = QuerySpec(semantics="iso")
        assert filter_candidates(cand, [{1}, {1}], index,
                                 spec).heads() == set()
        assert filter_candidates(cand, [{1}, {3}], index,
                                 spec).heads() == {0}


class TestPrefilterAndFrontier:
    def test_prefilter_hom(self, index) -> None:
        survivors = PostingList([(0, (1, 3)), (1, (2,))])
        out = prefilter_survivors(survivors, {2}, index, QuerySpec())
        assert out.heads() == {1}

    def test_prefilter_homeo(self, index) -> None:
        survivors = PostingList([(0, (1, 3))])
        out = prefilter_survivors(survivors, {2}, index,
                                  QuerySpec(semantics="homeo"))
        assert out.heads() == {0}

    def test_frontier_hom_restrict(self, index) -> None:
        survivors = PostingList([(0, (1, 3))])
        frontier = frontier_of(survivors, index, QuerySpec())
        cand = PostingList([(1, (2,)), (2, ()), (3, ())])
        assert frontier.restrict(cand).heads() == {1, 3}

    def test_frontier_homeo_restrict(self, index) -> None:
        survivors = PostingList([(0, (1, 3))])
        frontier = frontier_of(survivors, index,
                               QuerySpec(semantics="homeo"))
        cand = PostingList([(0, ()), (1, ()), (2, ()), (3, ())])
        # descendants of node 0: ids in (0, 3]
        assert frontier.restrict(cand).heads() == {1, 2, 3}


class TestMergeIntervals:
    def test_disjoint(self) -> None:
        assert _merge_intervals([(5, 8), (0, 3)]) == [(0, 3), (5, 8)]

    def test_nested(self) -> None:
        assert _merge_intervals([(0, 10), (2, 5)]) == [(0, 10)]

    def test_adjacent_halfopen(self) -> None:
        assert _merge_intervals([(0, 5), (5, 9)]) == [(0, 9)]

    def test_empty(self) -> None:
        assert _merge_intervals([]) == []

    def test_frontier_interval_membership(self) -> None:
        frontier = Frontier(intervals=[(0, 3), (10, 12)])
        cand = PostingList([(0, ()), (1, ()), (3, ()), (4, ()),
                            (11, ()), (13, ())])
        # (start, end] semantics: start itself excluded
        assert frontier.restrict(cand).heads() == {1, 3, 11}


# -- columnar H(·) against the row loop -------------------------------------
#
# The child-axis filters switch from rows to columns at COLUMNAR_MIN
# candidates (repro.core.postings.use_columns).  The row loops below are
# the reference: the same conditions written out posting by posting.


def _rows_subset(cand, child_sets) -> set[int]:
    return {p for p, children in cand
            if all(any(c in hits for c in children) for hits in child_sets)}


def _rows_equality(cand, child_sets) -> set[int]:
    return {p for p, children in cand
            if len(children) == len(child_sets)
            and all(any(c in hits for c in children) for hits in child_sets)}


def _rows_superset(cand, child_sets) -> set[int]:
    allowed = set().union(*child_sets)
    return {p for p, children in cand
            if all(c in allowed for c in children)}


ROW_REFERENCE = {"subset": _rows_subset, "equality": _rows_equality,
                 "superset": _rows_superset}


@st.composite
def ragged_case(draw):
    """Candidates, child match sets and a second list over one id pool.

    Hypothesis picks the shape -- candidate count around the cutoff, how
    many postings have no children, how dense and how overlapping the
    child sets are, whether ids sit past 2**31 -- and a seed fills it in.
    """
    n = draw(st.one_of(
        st.sampled_from([0, 1, COLUMNAR_MIN - 1, COLUMNAR_MIN,
                         COLUMNAR_MIN + 1, 3 * COLUMNAR_MIN]),
        st.integers(0, 2 * COLUMNAR_MIN)))
    base = draw(st.sampled_from([0, 2 ** 31 - 40, 2 ** 40]))
    max_children = draw(st.integers(0, 4))
    childless = draw(st.sampled_from([0.0, 0.3, 1.0]))
    n_sets = draw(st.integers(0, 3))
    density = draw(st.sampled_from([0.0, 0.1, 0.6, 1.0]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    pool = range(base, base + 4 * max(n, 8))
    cand = []
    for head in sorted(rng.sample(pool, n)):
        k = 0 if rng.random() < childless else rng.randint(0, max_children)
        cand.append((head, tuple(sorted(rng.sample(pool, k)))))
    mentioned = sorted({c for _p, cs in cand for c in cs}) or [base]
    child_sets = []
    for _ in range(n_sets):
        hits = {c for c in mentioned if rng.random() < density}
        hits.update(rng.sample(pool, rng.randint(0, 3)))
        if density == 0.0 and rng.random() < 0.5:
            hits = set()
        child_sets.append(hits)
    other = [(head, ()) for head in sorted(rng.sample(pool, len(pool) // 2))]
    as_arrays = [rng.random() < 0.5 for _ in child_sets]
    shape = rng.choice(["rows", "packed"])
    return cand, child_sets, other, as_arrays, shape


def _plist(entries, shape: str):
    """``entries`` as a row list or as a lazy list of packed blocks."""
    if shape == "rows":
        return PostingList(entries)
    return LazyPostingList(encode_blocked(entries, 16))


class TestColumnarMatchesRows:
    @settings(max_examples=150, deadline=None)
    @given(ragged_case(), st.sampled_from(["subset", "equality", "superset"]))
    def test_filter_candidates_hom(self, case, join) -> None:
        cand, child_sets, _other, as_arrays, shape = case
        given_sets = [id_array(hits) if as_array else set(hits)
                      for hits, as_array in zip(child_sets, as_arrays)]
        out = filter_candidates(_plist(cand, shape), given_sets, None,
                                QuerySpec(join=join))
        expected = ROW_REFERENCE[join](cand, child_sets)
        assert out.heads() == expected
        # the survivors are whole postings, in head order
        assert list(out) == [row for row in cand if row[0] in expected]

    @settings(max_examples=150, deadline=None)
    @given(ragged_case())
    def test_prefilter_and_restrict(self, case) -> None:
        cand, child_sets, other, as_arrays, shape = case
        spec = QuerySpec()
        survivors = _plist(cand, shape)
        for hits, as_array in zip(child_sets, as_arrays):
            ok = id_array(hits) if as_array else set(hits)
            out = prefilter_survivors(survivors, ok, None, spec)
            assert list(out) == [(p, cs) for p, cs in cand
                                 if any(c in hits for c in cs)]
        reachable = {c for _p, cs in cand for c in cs}
        frontier = frontier_of(survivors, None, spec)
        for plist in (_plist(other, shape), _plist(cand, shape)):
            assert list(frontier.restrict(plist)) == \
                [(p, cs) for p, cs in plist if p in reachable]


class TestNoRowsOnTheColumnarPath:
    def test_intersection_feeds_h_without_building_rows(self) -> None:
        rng = random.Random(11)
        n = 6 * COLUMNAR_MIN
        hot = [(head, tuple(sorted(rng.sample(range(n, 2 * n), 2))))
               for head in range(n)]
        warm = [row for row in hot if rng.random() < 0.7]
        cache = BlockCache()
        lists = [LazyPostingList(encode_blocked(hot, 32), cache=cache,
                                 cache_key="hot"),
                 LazyPostingList(encode_blocked(warm, 32), cache=cache,
                                 cache_key="warm")]
        hits = set(rng.sample(range(n, 2 * n), n // 3))

        cand = intersect(lists)
        assert len(cand) == len(warm) >= COLUMNAR_MIN
        out = heads_with_child_in(cand, [id_array(hits)])

        assert out.heads() == _rows_subset(warm, [hits])
        assert cand._entries is None and out._entries is None
        assert all(plist._entries is None for plist in lists)
        blocks = [cache.get((key, block_no)) for key in ("hot", "warm")
                  for block_no in range(lists[0].n_blocks)]
        decoded = [block for block in blocks if block is not None]
        assert decoded and all(isinstance(block, BlockData)
                               and block._postings is None
                               for block in decoded)
        # ... and a row consumer still gets the rows it asks for.
        assert list(out) == [row for row in warm if row[0] in out.heads()]

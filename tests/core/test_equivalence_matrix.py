"""Cross-algorithm equivalence over randomized collections.

Every algorithm implements the same containment semantics, so for each
valid semantics x join combination the index-based algorithms and the
naive reference scan must return identical results through the shared
execution pipeline.  The paper-literal top-down variant over-approximates
on branching queries (it checks path-consistent containment), so its row
of the matrix runs on path-shaped queries, where it is exact.
"""

from __future__ import annotations

import random

import pytest

from repro.core.engine import NestedSetIndex
from repro.core.join import containment_join
from repro.core.matchspec import QuerySpec
from repro.core.model import NestedSet
from repro.core.postings import COLUMNAR_MIN

from ..conftest import random_tree

#: Every semantics x join combination QuerySpec accepts (non-subset
#: joins require hom semantics).
VALID_COMBOS = [
    ("hom", "subset"),
    ("hom", "equality"),
    ("hom", "superset"),
    ("hom", "overlap"),
    ("iso", "subset"),
    ("homeo", "subset"),
]

#: The paper-literal variant rejects iso semantics and superset joins;
#: on path queries it is exact for subset joins and a sound
#: over-approximation for the others.
PAPER_EXACT_COMBOS = [("hom", "subset"), ("homeo", "subset")]
PAPER_SOUND_COMBOS = [("hom", "equality"), ("hom", "overlap")]


def _corpus(seed: int, n: int = 40) -> list:
    rng = random.Random(seed)
    atoms = [f"a{i}" for i in range(10)]
    return [(f"r{i:02d}", random_tree(rng, atoms)) for i in range(n)]


def _queries(seed: int, n: int = 12, *, max_children: int = 2) -> list:
    rng = random.Random(seed)
    atoms = [f"a{i}" for i in range(10)]
    return [random_tree(rng, atoms, max_children=max_children,
                        allow_empty=False) for _ in range(n)]


#: The index algorithms of the matrix; ``None`` is the unset column:
#: whatever the compiler picks for the join must equal the scan too.
INDEX_ALGORITHMS = (None, "bottomup", "topdown")


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("semantics,join", VALID_COMBOS)
class TestFullMatrix:
    def test_algorithms_agree(self, seed, semantics, join) -> None:
        for shards in (1, 3):
            with NestedSetIndex.build(_corpus(seed), shards=shards) as index:
                self._check(index, seed, semantics, join, shards)

    @staticmethod
    def _check(index, seed, semantics, join, shards) -> None:
        for mode in ("root", "anywhere"):
            for query in _queries(seed + 100):
                expected = index.query(query, algorithm="naive",
                                       semantics=semantics, join=join,
                                       mode=mode)
                for algorithm in INDEX_ALGORITHMS:
                    got = index.query(query, algorithm=algorithm,
                                      semantics=semantics, join=join,
                                      mode=mode)
                    assert got == expected, \
                        (shards, algorithm, semantics, join, mode, query)


@pytest.mark.parametrize("seed", [1, 2, 3])
class TestPaperVariantOnPathQueries:
    @pytest.mark.parametrize("semantics,join", PAPER_EXACT_COMBOS)
    def test_exact_on_paths(self, seed, semantics, join) -> None:
        index = NestedSetIndex.build(_corpus(seed))
        for query in _queries(seed + 200, max_children=1):
            expected = index.query(query, algorithm="bottomup",
                                   semantics=semantics, join=join)
            got = index.query(query, algorithm="topdown-paper",
                              semantics=semantics, join=join)
            assert got == expected, (semantics, join, query)

    @pytest.mark.parametrize("semantics,join", PAPER_SOUND_COMBOS)
    def test_sound_on_paths(self, seed, semantics, join) -> None:
        # Path-consistent containment may add false positives under
        # equality/overlap joins but must never miss a true match.
        index = NestedSetIndex.build(_corpus(seed))
        for query in _queries(seed + 200, max_children=1):
            expected = set(index.query(query, algorithm="bottomup",
                                       semantics=semantics, join=join))
            got = set(index.query(query, algorithm="topdown-paper",
                                  semantics=semantics, join=join))
            assert got >= expected, (semantics, join, query)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("semantics,join", VALID_COMBOS)
class TestFormatEquivalence:
    """One-block and many-block layouts must be query-indistinguishable.

    ``block_size=4`` forces multi-block lists even on the small corpus, so
    the galloping/skip machinery actually runs; at the default size every
    list of the corpus is a single block.
    """

    def test_layouts_agree(self, seed, semantics, join) -> None:
        corpus = _corpus(seed)
        one_block = NestedSetIndex.build(corpus)
        blocked = NestedSetIndex.build(corpus, block_size=4)
        for mode in ("root", "anywhere"):
            for query in _queries(seed + 400, n=8):
                for algorithm in ("bottomup", "topdown"):
                    expected = one_block.query(
                        query, algorithm=algorithm, semantics=semantics,
                        join=join, mode=mode)
                    got = blocked.query(query, algorithm=algorithm,
                                        semantics=semantics, join=join,
                                        mode=mode)
                    assert got == expected, \
                        (algorithm, semantics, join, mode, query)


class TestLegacyIndexCompatibility:
    def test_new_builds_default_to_blocked(self) -> None:
        index = NestedSetIndex.build(_corpus(6))
        assert index.inverted_file.block_size > 0


# -- long lists: the columnar path under every layout -----------------------
#
# The corpora above keep every posting list under COLUMNAR_MIN, so their
# matrix runs the row loops only.  Here two hot atoms sit in most nodes:
# their lists (and the intersections, frontiers and survivor lists made
# from them) stay over the cutoff in every shard of a 4-shard index, so
# each algorithm x semantics x join answers through the columnar
# filters -- from every physical format -- and must still equal the
# naive scan.

HOT_ATOMS = ["h0", "h1"]
RARE_ATOMS = [f"a{i}" for i in range(8)]


def _hot_tree(rng: random.Random, depth: int = 0) -> "NestedSet":
    atoms = [atom for atom, p in zip(HOT_ATOMS, (0.9, 0.7))
             if rng.random() < p]
    atoms += rng.sample(RARE_ATOMS, rng.randint(0 if atoms else 1, 2))
    children = [_hot_tree(rng, depth + 1)
                for _ in range(rng.randint(0, 2) if depth < 2 else 0)]
    return NestedSet(atoms, children)


def _hot_corpus(n: int = 360) -> list:
    rng = random.Random(64)
    return [(f"r{i:03d}", _hot_tree(rng)) for i in range(n)]


def _hot_queries(corpus: list) -> list:
    """Records themselves (positive), the hot atoms alone at two levels,
    and random trees (mostly negative)."""
    rng = random.Random(65)
    branching = [tree for _key, tree in corpus if len(tree.children) == 2]
    queries = rng.sample(branching, 3)
    queries.append(NestedSet(["h0"], [NestedSet(["h0", "h1"])]))
    queries.append(NestedSet(["h0", "h1"],
                             [NestedSet(["h0"]), NestedSet(["h1"])]))
    queries.append(NestedSet(["h1"], [NestedSet(["h0"], [NestedSet(["h0"])])]))
    queries += [_hot_tree(rng) for _ in range(2)]
    return queries


@pytest.fixture(scope="module")
def hot_expected():
    """Per (semantics, join, mode): the naive scan's answers."""
    corpus = _hot_corpus()
    queries = _hot_queries(corpus)
    with NestedSetIndex.build(corpus) as index:
        lengths = [index.inverted_file.list_length(atom)
                   for atom in HOT_ATOMS]
        assert min(lengths) >= 8 * COLUMNAR_MIN     # >= 2x per shard of 4
        expected = {
            (semantics, join, mode): [
                index.query(query, algorithm="naive", semantics=semantics,
                            join=join, mode=mode) for query in queries]
            for semantics, join in VALID_COMBOS
            for mode in ("root", "anywhere")}
    assert any(any(answers) for answers in expected.values())
    return corpus, queries, expected


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("layout", ["packed"])
class TestLongListsMatrix:
    def test_every_path_equals_naive(self, hot_expected, layout,
                                     shards) -> None:
        corpus, queries, expected = hot_expected
        with NestedSetIndex.build(corpus, shards=shards) as index:
            for (semantics, join, mode), answers in expected.items():
                for algorithm in INDEX_ALGORITHMS:
                    got = [index.query(query, algorithm=algorithm,
                                       semantics=semantics, join=join,
                                       mode=mode) for query in queries]
                    assert got == answers, \
                        (layout, shards, algorithm, semantics, join, mode)
                for algorithm in (None, "bottomup"):    # without, with memo
                    batched = index.query_batch(
                        queries, share_subqueries=True, algorithm=algorithm,
                        semantics=semantics, join=join, mode=mode)
                    assert batched == answers, \
                        (layout, shards, "batch", algorithm, semantics,
                         join, mode)

    def test_prefix_join_equals_naive(self, hot_expected, layout,
                                      shards) -> None:
        corpus, queries, expected = hot_expected
        keyed = [(f"q{i}", query) for i, query in enumerate(queries)]
        with NestedSetIndex.build(corpus, shards=shards) as index:
            for join in ("subset", "equality", "superset"):
                result = containment_join(index, keyed, strategy="prefix",
                                          spec=QuerySpec(join=join))
                assert sorted(result.pairs) == sorted(
                    (key, match) for (key, _query), matches
                    in zip(keyed, expected["hom", join, "root"])
                    for match in matches), (layout, shards, join)

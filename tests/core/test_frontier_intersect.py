"""The frontier-driven intersection (``intersect_atoms(atoms, within=)``).

The top-down algorithm hands the surviving parents' children to every
child's list intersection as one more operand.  Whatever the operand
lengths make the function do -- gallop the ids through the skip
directories, cut a short list to the ids as rows, or intersect the
lists and cut the result -- the answer must be the unrestricted
intersection cut to the ids::

    intersect_atoms(atoms, within=F) == with_head_in(intersect_atoms(atoms), F)

as lists of rows: over both block sizes, lists of one to forty blocks,
frontiers empty, tiny, longer than the shortest list and covering a
whole list, handed on as a set or as an array, with ids no list holds;
on a fresh build and after appends and a delete (dead counts change the
ranking).  Then the point of it: a small frontier over a long list
reads the blocks the frontier falls in and builds no rows in the block
cache.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.engine import NestedSetIndex
from repro.core.model import NestedSet
from repro.core.postings import COLUMNAR_MIN, id_array, with_head_in

N = NestedSet

BLOCK_SIZES = (32, 128)
#: Nodes per block size: the hot list (every node) spans forty blocks.
N_BLOCKS = 40
#: atom -> one node in how many carries it.
EVERY = {"hot": 1, "half": 2, "tenth": 10, "rare": 97}
VOCABULARY = sorted(EVERY) + ["once", "never"]
KINDS = ("empty", "one", "few", "over-shortest", "covers-a-list")


def _records(first: int, count: int) -> list[tuple[str, NestedSet]]:
    """Two-node records; node ``n`` carries ``atom`` when
    ``n % EVERY[atom] == 0`` (the root of record ``i`` is node ``2i``)."""
    def atoms(node: int) -> list[str]:
        return [atom for atom, step in EVERY.items() if node % step == 0]

    return [(f"r{i:05d}",
             N(atoms(2 * i) + (["once"] if i == 7 else []),
               [N(atoms(2 * i + 1))]))
            for i in range(first, first + count)]


@pytest.fixture(scope="module", params=BLOCK_SIZES)
def states(request):
    """One index per block size, pinned fresh and again after appends
    and a delete: ``[(label, inverted file view), ...]``."""
    block_size = request.param
    n_records = N_BLOCKS * block_size // 2
    index = NestedSetIndex.build(_records(0, n_records),
                                 block_size=block_size)
    fresh = index.snapshot()
    index.insert_batch(_records(n_records, 3 * block_size))
    # Record 97's root (node 194) carries "rare": deleting it puts a
    # dead posting in that list, which moves the live-count ranking.
    assert index.delete("r00097")
    updated = index.snapshot()
    views = [("fresh", fresh.views[0].inverted_file),
             ("updated", updated.views[0].inverted_file)]
    assert views[0][1].list_length("hot") == N_BLOCKS * block_size
    assert views[1][1].dead_counts["rare"] == 1
    yield views
    fresh.close()
    updated.close()
    index.close()


def _frontier(kind: str, lists: list, n_nodes: int,
              rng: random.Random) -> set[int]:
    """A frontier of the given kind; ``lists`` are the atoms' lists."""
    shortest = min(lists, key=len)
    anywhere = range(n_nodes + 50)      # ids past the last node included
    if kind == "empty":
        return set()
    if kind == "one":
        heads = sorted(shortest.heads())
        return {rng.choice(heads) if heads and rng.random() < 0.7
                else rng.choice(anywhere)}
    if kind == "few":
        picked = set(rng.sample(anywhere, rng.randint(2, 6)))
        heads = sorted(shortest.heads())
        if heads:
            picked.update(rng.sample(heads, min(len(heads), 2)))
        return picked
    if kind == "over-shortest":
        extra = rng.randint(1, 2 * COLUMNAR_MIN)
        return set(rng.sample(anywhere,
                              min(len(anywhere), len(shortest) + extra)))
    longest = max(lists, key=len)
    return set(longest.heads()) | set(rng.sample(anywhere, 5))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(atoms=st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=3,
                      unique=True),
       kind=st.sampled_from(KINDS),
       as_array=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_within_equals_restricted_intersection(states, atoms, kind,
                                               as_array, seed) -> None:
    for label, ifile in states:
        ifile.block_cache.clear()
        rng = random.Random(seed)
        lists = [ifile.postings(atom) for atom in atoms]
        frontier = _frontier(kind, lists, ifile.n_nodes, rng)
        # A columnar level hands its match set on as an array.
        within = id_array(frontier) if as_array else frontier
        expected = with_head_in(ifile.intersect_atoms(atoms), frontier)
        got = ifile.intersect_atoms(atoms, within=within)
        assert list(got.entries) == list(expected.entries), \
            (label, atoms, kind, len(frontier))
        assert got.heads() <= frontier


class TestSmallFrontierOverLongLists:
    """A 1-3-id frontier costs the blocks it falls in, and no rows."""

    BLOCK_SIZE = 32
    N_RECORDS = 300             # 900 nodes: "hot" spans 29 blocks

    @pytest.fixture(scope="class")
    def index(self):
        # Three levels, "hot" in every node; "k<i>" names one root,
        # "g<j>" three roots far apart.
        records = [
            (f"r{i:03d}",
             N(["hot", f"k{i}", f"g{i % 100}"],
               [N(["hot", "mid"], [N(["hot", "low"])])]))
            for i in range(self.N_RECORDS)]
        with NestedSetIndex.build(records,
                                  block_size=self.BLOCK_SIZE) as index:
            ifile = index.inverted_file
            assert ifile.list_length("hot") >= 20 * self.BLOCK_SIZE
            yield index

    @pytest.mark.parametrize("root_atom,n_frontier",
                             [("k150", 1), ("g42", 3)])
    def test_blocks_read_and_no_rows(self, index, root_atom,
                                     n_frontier) -> None:
        ifile = index.inverted_file
        query = N(["hot", root_atom], [N(["hot"], [N(["hot"])])])
        expected = index.query(query, algorithm="naive")
        assert len(expected) == n_frontier
        ifile.block_cache.clear()
        index.reset_stats()
        assert index.query(query, algorithm="topdown") == expected
        # Per query node the "hot" list gives up at most one block per
        # frontier id (the root: per head of the rare list driving it);
        # the root atom's own list is one block more.
        assert ifile.stats.blocks_read <= 3 * n_frontier + 1
        if n_frontier > 1:      # the blocks between the ids' blocks
            assert ifile.stats.blocks_skipped > 0
        hot_blocks = [block for (list_key, _no), block
                      in ifile.block_cache._blocks.items()
                      if "hot" in str(list_key)]
        assert hot_blocks
        assert all(block._postings is None for block in hot_blocks)

    def test_cut_out_list_builds_its_own_rows(self, index) -> None:
        """Rows of a list cut out of a cached list come from the cut's
        own columns: the source's blocks stay row-less.  (Read through a
        pinned view: the live file caches no block.)"""
        cache = index.inverted_file.block_cache
        cache.clear()
        with index.snapshot() as snap:
            hot = snap.views[0].inverted_file.postings("hot")
            cut = with_head_in(hot, set(range(0, 900, 7)))
            assert len(cut.entries) == len(range(0, 900, 7))
        blocks = list(cache._blocks.values())
        assert blocks and all(block._postings is None for block in blocks)

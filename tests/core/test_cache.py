"""The block cache and its pin set: the paper's list caching (Section 3.3).

``cache="frequency"`` pins the lists of the top-B atoms in the one
:class:`BlockCache`; ``None``, ``"none"`` and ``"lru"`` pin nothing.  A
pinned list's directory and blocks are exempt from eviction, and the
pinned region keeps one list key per pinned token, its newest epoch.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.cache import PAPER_BUDGET, BlockCache
from repro.core.engine import NestedSetIndex
from repro.core.invfile import InvertedFile, atom_token
from repro.core.matchspec import QuerySpec
from repro.core.model import NestedSet
from repro.core.naive import reference_query

# df: hub 40, mid 40, b0 14, b1 13, b2 13, a0..a4 8 each.
RECORDS = [(f"r{i:02d}",
            NestedSet.parse(f"{{hub, a{i % 5}, {{mid, b{i % 3}}}}}"))
           for i in range(40)]
BLOCK = object()


def _pinned_tokens(cache: BlockCache) -> set:
    return {key[0] if isinstance(key, tuple) else key
            for key in cache._pinned}


def _top(ifile: InvertedFile, budget: int) -> frozenset:
    return frozenset(atom_token(atom)
                     for atom, _df in ifile.frequencies()[:budget])


class TestFrequencyCache:
    """``cache="frequency"``: the pin set."""

    def test_admits_hot_atoms_only(self) -> None:
        cache = BlockCache(budget=4)
        cache.pin({"hot"})
        cache.admit_directory(("hot", 0), "dir")
        cache.admit((("hot", 0), 0), BLOCK)
        cache.admit((("cold", 0), 0), BLOCK)
        assert _pinned_tokens(cache) == {"hot"}
        assert cache.directory(("hot", 0)) == "dir"
        assert cache.get((("hot", 0), 0)) is BLOCK
        assert cache.get((("cold", 0), 0)) is BLOCK    # in the LRU
        assert list(cache._blocks) == [(("cold", 0), 0)]

    def test_from_frequencies_takes_top_k(self) -> None:
        ifile = InvertedFile.build(RECORDS)
        ifile.set_cache("frequency", 2)
        assert ifile.cache.pins == {"s:hub", "s:mid"}
        ifile.set_cache("frequency", 3)
        assert ifile.cache.pins == {"s:hub", "s:mid", "s:b0"}

    def test_tie_break_is_deterministic(self) -> None:
        # b1 and b2 tie at 13; the token decides.
        ifile = InvertedFile.build(RECORDS)
        ifile.set_cache("frequency", 4)
        assert ifile.cache.pins == {"s:hub", "s:mid", "s:b0", "s:b1"}
        # int atoms rank by their token too: "i:7" < "s:7".
        ties = InvertedFile.build([("x", NestedSet(["7", 7, "z"]))])
        ties.set_cache("frequency", 2)
        assert ties.cache.pins == {"i:7", "s:7"}

    def test_hot_set_must_fit_budget(self) -> None:
        ifile = InvertedFile.build(RECORDS)
        n_atoms = len(ifile.frequencies())
        for budget in range(1, n_atoms + 3):
            ifile.set_cache("frequency", budget)
            assert ifile.cache.pins == _top(ifile, budget)
            assert len(ifile.cache.pins) == min(budget, n_atoms)

    def test_paper_budget_default(self) -> None:
        assert PAPER_BUDGET == 250
        records = [(f"k{i}", NestedSet([f"x{i}", "common"]))
                   for i in range(300)]
        index = NestedSetIndex.build(records, cache="frequency")
        pins = index.inverted_file.cache.pins
        assert len(pins) == 250 and "s:common" in pins
        assert index.stats()["cache"]["pinned"] == 250

    def test_no_eviction(self) -> None:
        """Pinned directories and blocks survive eviction pressure in a
        16-block cache."""
        cache = BlockCache(budget=16)
        cache.pin({"hot"})
        cache.admit_directory(("hot", 0), "dir")
        for number in range(40):
            cache.admit((("hot", 0), number), number)
        for other in range(200):
            cache.admit_directory((f"cold{other}", 0), "cold dir")
            cache.admit(((f"cold{other}", 0), 0), BLOCK)
        assert cache.directory(("hot", 0)) == "dir"
        assert [cache.get((("hot", 0), number))
                for number in range(40)] == list(range(40))
        assert len(cache._blocks) == len(cache._directories) == 16
        assert cache.stats.evictions == 200 - 16
        assert len(cache) == 16 + 40

    def test_clear(self) -> None:
        cache = BlockCache()
        cache.pin({"a"})
        cache.admit_directory("a", "dir")
        cache.admit(("a", 0), BLOCK)
        cache.clear()
        assert cache.directory("a") is None
        assert cache.get(("a", 0)) is None
        assert cache.pins == {"a"}


class TestLRUCache:
    """``"lru"`` and ``"none"``: the block cache with no pins."""

    def test_basic(self) -> None:
        cache = BlockCache(budget=2)
        cache.admit(("a", 0), BLOCK)
        assert cache.get(("a", 0)) is BLOCK
        assert cache.stats.hits == 1

    def test_eviction_order(self) -> None:
        cache = BlockCache(budget=2)
        other = object()
        cache.admit(("a", 0), BLOCK)
        cache.admit(("b", 0), BLOCK)
        cache.get(("a", 0))         # refresh a; b is now least recent
        cache.admit(("c", 0), other)
        assert cache.get(("b", 0)) is None
        assert cache.get(("a", 0)) is BLOCK
        assert cache.get(("c", 0)) is other
        assert cache.stats.evictions == 1

    def test_budget_validation(self) -> None:
        with pytest.raises(ValueError):
            BlockCache(budget=0)
        ifile = InvertedFile.build(RECORDS)
        for policy in ("frequency", "lru", None):
            with pytest.raises(ValueError, match="budget"):
                ifile.set_cache(policy, 0)

    def test_readmit_refreshes(self) -> None:
        cache = BlockCache(budget=2)
        cache.admit(("a", 0), BLOCK)
        cache.admit(("b", 0), BLOCK)
        cache.admit(("a", 0), BLOCK)    # touch a
        cache.admit(("c", 0), BLOCK)    # evicts b
        assert cache.get(("a", 0)) is not None
        assert cache.get(("b", 0)) is None


class TestFactory:
    """The ``cache=`` values."""

    def test_policies(self) -> None:
        for policy in (None, "none", "lru", "frequency"):
            index = NestedSetIndex.build(RECORDS, cache=policy,
                                         cache_budget=3)
            pins = index.inverted_file.cache.pins
            assert pins == ({"s:hub", "s:mid", "s:b0"}
                            if policy == "frequency" else frozenset())
            assert index.stats()["cache"]["policy"] == (policy or "none")
            assert index.stats()["cache"]["pinned"] == len(pins)

    def test_unknown_policy(self) -> None:
        with pytest.raises(ValueError, match="belady"):
            InvertedFile.build(RECORDS).set_cache("belady")
        with pytest.raises(ValueError, match="belady"):
            NestedSetIndex.build(RECORDS, cache="belady")

    def test_hit_rate(self) -> None:
        cache = BlockCache(budget=4)
        cache.admit(("a", 0), BLOCK)
        cache.get(("a", 0))
        cache.get(("b", 0))
        assert cache.stats.hit_rate == 0.5
        cache.stats.reset()
        assert cache.stats.requests == 0
        assert cache.stats.hit_rate == 0.0


class TestPinnedRegion:
    """One list per pinned token, through epochs, re-pins and compacts."""

    def test_newest_epoch_only(self) -> None:
        cache = BlockCache(budget=8)
        cache.pin({"t"})
        cache.admit_directory(("t", 1), "dir 1")
        cache.admit((("t", 1), 0), "block 1")
        cache.admit_directory(("t", 0), "dir 0")    # older: the LRU's
        assert set(cache._pinned) == {("t", 1)}
        assert ("t", 0) in cache._directories
        cache.admit_directory(("t", 2), "dir 2")    # newer: 1 falls back
        assert set(cache._pinned) == {("t", 2)}
        assert cache.directory(("t", 1)) == "dir 1"
        assert cache.get((("t", 1), 0)) == "block 1"
        assert (("t", 1), 0) in cache._blocks

    def test_region_stays_within_budget_across_commits(self) -> None:
        budget = 3
        index = NestedSetIndex.build(RECORDS, cache="frequency",
                                     cache_budget=budget, block_size=4)
        cache = index.inverted_file.cache
        records = list(RECORDS)
        held = index.snapshot()             # an old reader throughout
        old = held.query("{hub}")
        for i in range(50):
            record = (f"n{i:02d}", NestedSet.parse(
                f"{{hub, a{i % 5}, {{mid, b{i % 3}}}}}"))
            index.insert(*record)
            records.append(record)
            assert index.query("{hub, {mid, b0}}") == reference_query(
                records, NestedSet.parse("{hub, {mid, b0}}"), QuerySpec())
            assert held.query("{hub}") == old
            assert len(cache._pinned) <= budget
        assert _pinned_tokens(cache) == cache.pins
        held.close()

    def test_readers_racing_commits_on_pinned_lists(self) -> None:
        """Readers at every version share the pinned region with a
        writer starting new epochs of the pinned lists, and churn the
        rest through a 16-block LRU."""
        query = NestedSet.parse("{hub, {mid, b0}}")
        fresh = [(f"n{i:02d}", NestedSet.parse(f"{{hub, {{mid, b{i % 3}}}}}"))
                 for i in range(30)]
        everything = RECORDS + fresh
        want = {n: reference_query(everything[:n], query, QuerySpec())
                for n in range(len(RECORDS), len(everything) + 1)}
        errors: list[str] = []
        stop = threading.Event()
        with NestedSetIndex.build(RECORDS, block_size=4) as index:
            cache = index.inverted_file.block_cache = BlockCache(budget=16)
            index.set_cache("frequency", budget=3)

            def reader() -> None:
                while not stop.is_set():
                    with index.snapshot() as snap:
                        got = snap.query(query)
                        if got != want[snap.n_records]:
                            errors.append(f"{snap.n_records}: {got}")

            threads = [threading.Thread(target=reader) for _ in range(4)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for record in fresh:
                    index.insert(*record)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert len(cache._pinned) <= 3
            assert index.query(query) == want[len(everything)]

    def test_set_cache_and_compact_carry_the_pins(self) -> None:
        for shards in (1, 3):
            index = NestedSetIndex.build(RECORDS, shards=shards)
            index.set_cache("frequency", budget=2 * shards)
            index.query("{hub, {mid}}")
            for part in index.shards:
                ifile = part.inverted_file
                assert ifile.cache.pins == _top(ifile, 2)
            index.delete("r00")
            index.compact()
            for part in index.shards:
                ifile = part.inverted_file
                assert ifile.cache.pins == _top(ifile, 2)
            index.set_cache(None)
            index.compact()
            assert index.stats()["cache"] == {
                **index.stats()["cache"], "policy": "none", "pinned": 0}

    def test_pin_moves_warm_lists(self) -> None:
        index = NestedSetIndex.build(RECORDS, block_size=4)
        index.query("{hub, {mid, b1}}")
        cache = index.inverted_file.cache
        warm = len(cache)
        index.set_cache("frequency", budget=2)
        assert _pinned_tokens(cache) == {"s:hub", "s:mid"}
        assert len(cache) == warm
        fetches = index.stats()["index"]["list_fetches"]
        assert index.query("{hub, {mid, b1}}")
        assert index.stats()["index"]["list_fetches"] == fetches
        index.set_cache("lru")
        assert not cache._pinned and len(cache) == warm

    def test_standalone_invalidation_drops_pinned_lists(self) -> None:
        from repro.core.updates import IndexWriter
        ifile = InvertedFile.build(RECORDS)
        ifile.set_cache("frequency", 1)
        hub = len(ifile.postings("hub"))
        assert _pinned_tokens(ifile.cache) == {"s:hub"}
        IndexWriter(ifile).insert("new", NestedSet.parse("{hub}"))
        assert not ifile.cache._pinned
        assert len(ifile.postings("hub")) == hub + 1

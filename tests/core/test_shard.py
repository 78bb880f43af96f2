"""An index of k partitions: equivalence with the one-partition index,
persistence, routing and merge semantics."""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.engine import NestedSetIndex
from repro.core.observe import ExplainResult, MergedExplainResult
from repro.core.shard import (
    MANIFEST_KEY,
    ShardError,
    read_manifest,
    shard_of,
    write_manifest,
)
from repro.storage import MemoryKVStore, NamespacedStore

from ..conftest import random_tree
from .test_equivalence_matrix import VALID_COMBOS, _corpus, _queries


def _build_pair(seed: int, shards: int):
    records = _corpus(seed)
    mono = NestedSetIndex.build(records, shards=1)
    sharded = NestedSetIndex.build(records, shards=shards)
    assert (mono.n_shards, sharded.n_shards) == (1, shards)
    return mono, sharded


def _check_all(readers: int, items: list, check) -> None:
    """``check`` every item, spread over ``readers`` threads that read
    at once; the first failure re-raises here."""
    def check_part(part: list) -> None:
        for item in part:
            check(item)

    with ThreadPoolExecutor(max_workers=readers) as pool:
        futures = [pool.submit(check_part, items[i::readers])
                   for i in range(readers)]
        for future in futures:
            future.result()


@pytest.mark.parametrize("shards", [1, 3, 4])
@pytest.mark.parametrize("readers", [1, 4])
class TestShardedEquivalenceMatrix:
    """The acceptance matrix: k partitions == one, everywhere, from one
    reader thread or from four at once (callers bring the threads, as a
    server's request pool does; the index reads its partitions in a
    plain loop)."""

    @pytest.mark.parametrize("semantics,join", VALID_COMBOS)
    def test_query_matrix(self, shards, readers, semantics, join) -> None:
        mono, sharded = _build_pair(7, shards)

        def check(case) -> None:
            mode, query = case
            expected = mono.query(query, semantics=semantics,
                                  join=join, mode=mode)
            for algorithm in ("bottomup", "topdown", "naive"):
                got = sharded.query(query, algorithm=algorithm,
                                    semantics=semantics, join=join,
                                    mode=mode)
                assert got == expected, \
                    (shards, algorithm, semantics, join, mode)

        _check_all(readers, [(mode, query)
                             for mode in ("root", "anywhere")
                             for query in _queries(107, n=6)], check)

    def test_query_batch_and_join(self, shards, readers) -> None:
        mono, sharded = _build_pair(8, shards)
        queries = _queries(108, n=8)
        keyed = [(f"q{i}", query) for i, query in enumerate(queries)]

        def check(_round) -> None:
            assert sharded.query_batch(queries) == \
                mono.query_batch(queries)
            assert sharded.containment_join(keyed) == \
                mono.containment_join(keyed)

        _check_all(readers, list(range(readers)), check)

    def test_explain_matches_query(self, shards, readers) -> None:
        mono, sharded = _build_pair(9, shards)

        def check(query) -> None:
            result = sharded.explain(query, algorithm="topdown")
            assert result.matches == mono.query(query, algorithm="topdown")
            if shards == 1:     # the merge of one trace is that trace
                assert isinstance(result, ExplainResult)
                return
            assert isinstance(result, MergedExplainResult)
            assert len(result.shards) == shards
            assert "shards]" in result.render().splitlines()[0]

        _check_all(readers, _queries(109, n=4), check)


class TestShardedBuildAndOpen:
    @pytest.mark.parametrize("storage", ["diskhash"])
    def test_persist_and_reopen(self, storage, tmp_path) -> None:
        records = _corpus(11)
        path = str(tmp_path / f"idx.{storage}")
        index = NestedSetIndex.build(records, shards=3, storage=storage,
                                     path=path)
        queries = _queries(111, n=5)
        expected = [index.query(query) for query in queries]
        index.close()

        reopened = NestedSetIndex.open(storage, path)
        assert reopened.n_shards == 3
        assert reopened.n_records == len(records)
        assert [reopened.query(query) for query in queries] == expected
        reopened.close()

    def test_monolithic_store_reopens_monolithic(self, tmp_path) -> None:
        path = str(tmp_path / "mono.idx")
        NestedSetIndex.build(_corpus(12), storage="diskhash",
                             path=path).close()
        reopened = NestedSetIndex.open("diskhash", path)
        assert reopened.n_shards == 1
        assert reopened.inverted_file.store is reopened.base_store
        reopened.close()

    def test_manifest_written(self) -> None:
        index = NestedSetIndex.build(_corpus(13), shards=4)
        assert read_manifest(index.base_store) == 4
        assert index.base_store.get(MANIFEST_KEY) is not None

    def test_build_external_sharded(self) -> None:
        records = _corpus(14)
        mono = NestedSetIndex.build(records)
        sharded = NestedSetIndex.build_external(records, shards=3,
                                                memory_budget=50)
        assert sharded.n_shards == 3
        for query in _queries(114, n=6):
            assert sharded.query(query) == mono.query(query)

    def test_empty_shards_are_fine(self) -> None:
        # 2 records across 4 shards leaves some shards empty.
        index = NestedSetIndex.build([("a", "{x}"), ("b", "{y}")],
                                     shards=4)
        assert index.n_records == 2
        assert index.query("{x}") == ["a"]

    def test_invalid_shard_count(self) -> None:
        with pytest.raises(ShardError):
            NestedSetIndex.build([], shards=0)


class TestRoutingAndUpdates:
    def test_insert_routes_to_owning_shard(self) -> None:
        index = NestedSetIndex.build(_corpus(15), shards=3)
        before = [engine.n_records for engine in index.shards]
        index.insert("fresh-key", "{a0, {a1}}")
        owner = shard_of("fresh-key", 3)
        after = [engine.n_records for engine in index.shards]
        assert after[owner] == before[owner] + 1
        assert sum(after) == sum(before) + 1
        assert "fresh-key" in index.query("{a0, {a1}}")

    def test_delete_and_compact(self) -> None:
        records = _corpus(16)
        index = NestedSetIndex.build(records, shards=3)
        victim = records[0][0]
        assert index.delete(victim)
        assert not index.delete(victim)          # already tombstoned
        assert not index.delete("never-there")
        assert victim not in index.query(records[0][1])
        index.compact()
        assert index.n_records == len(records) - 1  # tombstone dropped
        assert victim not in index.query(records[0][1])

    @pytest.mark.parametrize("storage", ["diskhash"])
    def test_compact_to_disk_and_reopen(self, storage, tmp_path) -> None:
        records = _corpus(17)
        index = NestedSetIndex.build(records, shards=3, storage=storage,
                                     path=str(tmp_path / "a.idx"))
        index.delete(records[1][0])
        expected = index.query(records[2][1])
        index.compact(storage=storage, path=str(tmp_path / "b.idx"))
        assert index.query(records[2][1]) == expected
        index.close()
        reopened = NestedSetIndex.open(storage, str(tmp_path / "b.idx"))
        assert reopened.n_shards == 3
        assert reopened.query(records[2][1]) == expected
        reopened.close()

    def test_updates_match_monolithic(self) -> None:
        records = _corpus(18)
        mono = NestedSetIndex.build(records)
        sharded = NestedSetIndex.build(records, shards=4)
        rng = random.Random(218)
        atoms = [f"a{i}" for i in range(10)]
        for i in range(10):
            key, tree = f"new{i}", random_tree(rng, atoms)
            mono.insert(key, tree)
            sharded.insert(key, tree)
        for key, _tree in records[::5]:
            assert mono.delete(key) == sharded.delete(key)
        for query in _queries(118, n=8):
            assert sharded.query(query) == mono.query(query)


class TestPolicies:
    """``hash`` is the one routing: a function of the key alone."""

    def test_hash_policy_is_process_stable(self) -> None:
        # crc32, not hash(): the same key must route identically in a
        # different process (PYTHONHASHSEED randomizes str hashing).
        import zlib
        assert shard_of("tim", 4) == zlib.crc32(b"tim") % 4

    def test_store_routed_otherwise_is_refused(self) -> None:
        # Records of a store routed by anything but the hash are not
        # where shard_of looks: its deletes would silently miss.
        index = NestedSetIndex.build(_corpus(19), shards=3)
        write_manifest(index.base_store, 3, "roundrobin")
        with pytest.raises(ShardError, match="roundrobin"):
            NestedSetIndex.from_store(index.base_store)
        write_manifest(index.base_store, 3, "hash")
        reopened = NestedSetIndex.from_store(index.base_store)
        assert reopened.n_records == len(_corpus(19))


class TestMergedStatistics:
    def test_counters_merge_across_shards(self) -> None:
        mono, sharded = _build_pair(20, 3)
        queries = _queries(120, n=5)
        for query in queries:
            mono_ctx_result = mono.query(query)
            assert sharded.query(query) == mono_ctx_result
        merged = sharded.counters
        # one plan runs per shard per query
        assert merged.queries == len(queries) * 3
        sharded.reset_stats()
        assert sharded.counters.queries == 0

    def test_stats_shape(self) -> None:
        _mono, sharded = _build_pair(21, 3)
        sharded.query(_queries(121, n=1)[0])
        stats = sharded.stats()
        assert stats["shards"]["count"] == 3
        assert stats["index"]["records"] == sharded.n_records
        assert "hit_rate" in stats["cache"]

    def test_collection_stats_match_monolithic(self) -> None:
        mono, sharded = _build_pair(22, 4)
        mono_stats = mono.collection_stats()
        sharded_stats = sharded.collection_stats()
        assert sharded_stats.n_records == mono_stats.n_records
        assert sharded_stats.n_nodes == mono_stats.n_nodes
        for atom in ("a0", "a5", "a9"):
            assert sharded_stats.document_frequency(atom) == \
                mono_stats.document_frequency(atom)

    def test_frequencies_merge(self) -> None:
        mono, sharded = _build_pair(23, 3)
        assert dict(sharded.frequencies()) == \
            dict(mono.inverted_file.frequencies())

    def test_match_nodes_raises(self) -> None:
        _mono, sharded = _build_pair(24, 2)
        with pytest.raises(ShardError):
            sharded.match_nodes("{a0}")

    def test_self_check_agrees(self) -> None:
        _mono, sharded = _build_pair(25, 3)
        for query in _queries(125, n=2):
            results = sharded.self_check(query)
            assert len(set(map(tuple, results.values()))) == 1


class TestNamespacedStore:
    def test_prefix_isolation(self) -> None:
        base = MemoryKVStore()
        a = NamespacedStore(base, b"x0:")
        b = NamespacedStore(base, b"x1:")
        a.put(b"k", b"va")
        b.put(b"k", b"vb")
        assert a.get(b"k") == b"va"
        assert b.get(b"k") == b"vb"
        assert dict(a.items()) == {b"k": b"va"}
        assert len(a) == 1 and len(base) == 2
        assert a.delete(b"k") and not a.delete(b"k")
        assert b.get(b"k") == b"vb"

    def test_close_leaves_base_open(self) -> None:
        base = MemoryKVStore()
        view = NamespacedStore(base, b"x0:")
        view.put(b"k", b"v")
        view.close()
        assert base.get(b"x0:k") == b"v"
        with pytest.raises(Exception):
            view.get(b"k")

    def test_empty_prefix_rejected(self) -> None:
        with pytest.raises(ValueError):
            NamespacedStore(MemoryKVStore(), b"")

    def test_stats_double_counted(self) -> None:
        base = MemoryKVStore()
        view = NamespacedStore(base, b"x0:")
        view.put(b"k", b"v")
        view.get(b"k")
        assert view.stats.gets == 1 and view.stats.puts == 1
        assert base.stats.gets == 1 and base.stats.puts == 1

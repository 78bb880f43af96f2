"""Bulk load + online updates interplay.

A bulk-loaded index that then takes inserts, deletes, and a compaction
must converge to *exactly* the store a fresh build of the final record
set produces -- entry-for-entry byte equivalence on the disk store.
This pins the run-merge builder, the incremental writer, and the
compactor to one canonical on-disk representation.
"""

from __future__ import annotations

import random

import pytest

from repro.core.engine import NestedSetIndex
from repro.storage import open_store

from ..conftest import random_tree


def _base_records(n: int = 30) -> list:
    rng = random.Random(42)
    atoms = [f"a{i}" for i in range(8)]
    return [(f"base{i:02d}", random_tree(rng, atoms)) for i in range(n)]


def _extra_records(n: int = 6) -> list:
    rng = random.Random(43)
    atoms = [f"a{i}" for i in range(8)]
    return [(f"new{i}", random_tree(rng, atoms)) for i in range(n)]


DELETED = ("base03", "base11", "base27", "new2")


def _final_records() -> list:
    """The record set (in surviving-ordinal order) after the updates."""
    survivors = [(key, tree) for key, tree in _base_records()
                 if key not in DELETED]
    survivors += [(key, tree) for key, tree in _extra_records()
                  if key not in DELETED]
    return survivors


def _store_contents(storage: str, path: str) -> dict[bytes, bytes]:
    store = open_store(storage, path)
    try:
        return dict(store.items())
    finally:
        store.close()


@pytest.mark.parametrize("storage", ["diskhash"])
class TestBulkloadThenUpdates:
    def test_compacted_store_byte_equivalent_to_fresh_build(
            self, storage, tmp_path) -> None:
        mutated_path = str(tmp_path / "mutated.idx")
        compacted_path = str(tmp_path / "compacted.idx")
        fresh_path = str(tmp_path / "fresh.idx")

        # Small budget so the bulk load exercises real run merging.
        index = NestedSetIndex.build_external(
            _base_records(), storage=storage, path=mutated_path,
            memory_budget=40)
        for key, tree in _extra_records():
            index.insert(key, tree)
        for key in DELETED:
            assert index.delete(key)
        index.compact(storage=storage, path=compacted_path)
        index.close()

        NestedSetIndex.build(_final_records(), storage=storage,
                             path=fresh_path).close()

        assert _store_contents(storage, compacted_path) == \
            _store_contents(storage, fresh_path)

    def test_queries_agree_before_compaction(self, storage,
                                             tmp_path) -> None:
        # Even pre-compaction (tombstones still in place) the bulk-loaded
        # + updated index answers exactly like a fresh build.
        bulk = NestedSetIndex.build_external(
            _base_records(), storage=storage,
            path=str(tmp_path / "bulk.idx"), memory_budget=40)
        for key, tree in _extra_records():
            bulk.insert(key, tree)
        for key in DELETED:
            bulk.delete(key)
        fresh = NestedSetIndex.build(_final_records())

        rng = random.Random(44)
        atoms = [f"a{i}" for i in range(8)]
        for _ in range(10):
            query = random_tree(rng, atoms, allow_empty=False)
            for algorithm in ("bottomup", "topdown", "naive"):
                assert bulk.query(query, algorithm=algorithm) == \
                    fresh.query(query, algorithm=algorithm), query
        bulk.close()


class TestShardedBulkloadInterplay:
    def test_sharded_bulkload_updates_match_fresh(self, tmp_path) -> None:
        sharded = NestedSetIndex.build_external(
            _base_records(), shards=3, memory_budget=40,
            storage="diskhash", path=str(tmp_path / "s.idx"))
        assert sharded.n_shards == 3
        for key, tree in _extra_records():
            sharded.insert(key, tree)
        for key in DELETED:
            assert sharded.delete(key)
        sharded.compact(storage="diskhash",
                        path=str(tmp_path / "s2.idx"))
        fresh = NestedSetIndex.build(_final_records())

        rng = random.Random(45)
        atoms = [f"a{i}" for i in range(8)]
        for _ in range(10):
            query = random_tree(rng, atoms, allow_empty=False)
            assert sharded.query(query) == fresh.query(query), query
        assert sorted(key for key, _t in sharded.records()) == \
            sorted(key for key, _t in fresh.records())
        sharded.close()

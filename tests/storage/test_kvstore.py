"""Tests for the KVStore interface, memory store, and factory."""

from __future__ import annotations

import struct

import pytest

from repro.cli import main
from repro.core.engine import NestedSetIndex
from repro.storage import (
    CorruptionError,
    DiskHashTable,
    MemoryKVStore,
    NamespacedStore,
    Pager,
    StorageError,
    StoreClosedError,
    open_store,
)


class TestMemoryKVStore:
    def test_basic_roundtrip(self) -> None:
        store = MemoryKVStore()
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"
        assert store.get(b"absent") is None
        assert len(store) == 1

    def test_delete(self) -> None:
        store = MemoryKVStore()
        store.put(b"k", b"v")
        assert store.delete(b"k")
        assert not store.delete(b"k")
        assert len(store) == 0

    def test_items(self) -> None:
        store = MemoryKVStore()
        store.put(b"a", b"1")
        store.put(b"b", b"2")
        assert dict(store.items()) == {b"a": b"1", b"b": b"2"}

    def test_keys(self) -> None:
        store = MemoryKVStore()
        store.put(b"a", b"1")
        assert list(store.keys()) == [b"a"]

    def test_values_are_copied(self) -> None:
        store = MemoryKVStore()
        payload = bytearray(b"mutable")
        store.put(b"k", bytes(payload))
        payload[0] = ord("X")
        assert store.get(b"k") == b"mutable"

    def test_context_manager_closes(self) -> None:
        with MemoryKVStore() as store:
            store.put(b"k", b"v")
        with pytest.raises(StoreClosedError):
            store.get(b"k")

    def test_stats(self) -> None:
        store = MemoryKVStore()
        store.put(b"k", b"abc")
        store.get(b"k")
        store.get(b"missing")
        snap = store.stats.snapshot()
        assert snap["gets"] == 2
        assert snap["hits"] == 1
        assert snap["misses"] == 1
        assert snap["bytes_written"] == 3
        store.stats.reset()
        assert store.stats.gets == 0


class TestOpenStore:
    def test_memory(self) -> None:
        assert isinstance(open_store("memory"), MemoryKVStore)

    def test_diskhash(self, tmp_path) -> None:
        store = open_store("diskhash", str(tmp_path / "x.dh"), create=True)
        assert isinstance(store, DiskHashTable)
        store.close()

    def test_btree(self, tmp_path) -> None:
        """The B+tree engine is gone: its kind, its CLI choice and a file
        it left behind are each refused with a typed error."""
        path = str(tmp_path / "x.bt")
        pager = Pager(path, create=True)
        pager.set_meta(struct.pack("<QQ", 1, 0))  # a B+tree's root, count
        pager.close()
        expected = "not a disk hash table store: header metadata is " \
                   "16 bytes, expected 24"
        with pytest.raises(CorruptionError, match=expected):
            open_store("diskhash", path)
        with pytest.raises(CorruptionError, match=expected):
            NestedSetIndex.open("diskhash", path)
        with pytest.raises(StorageError,
                           match=r"\('memory', 'diskhash'\)"):
            open_store("btree", path)
        with pytest.raises(SystemExit) as exit_info:
            main(["index", path, "--storage", "btree", "-o", path])
        assert exit_info.value.code == 2
        # a replica's reload over pages shipped from such a file
        store = open_store("diskhash", str(tmp_path / "x.dh"), create=True)
        store.pager.set_meta(struct.pack("<QQ", 1, 0))
        with pytest.raises(CorruptionError, match=expected):
            store.reload_meta()
        store.close()

    def test_create_truncates_existing(self, tmp_path) -> None:
        path = str(tmp_path / "x.dh")
        store = open_store("diskhash", path, create=True)
        store.put(b"old", b"data")
        store.close()
        fresh = open_store("diskhash", path, create=True)
        assert fresh.get(b"old") is None
        fresh.close()

    def test_disk_requires_path(self) -> None:
        with pytest.raises(StorageError):
            open_store("diskhash")

    def test_unknown_kind(self) -> None:
        with pytest.raises(StorageError):
            open_store("rocksdb", "/tmp/x")


class TestInterfaceParity:
    """The two stores must be behaviorally interchangeable."""

    @pytest.mark.parametrize("kind", ["memory", "diskhash"])
    def test_same_behaviour(self, kind: str, tmp_path) -> None:
        path = str(tmp_path / f"s.{kind}")
        store = open_store(kind, path, create=True)
        operations = {f"key{i}".encode(): f"val{i}".encode() * (i + 1)
                      for i in range(50)}
        for key, value in operations.items():
            store.put(key, value)
        store.delete(b"key10")
        del operations[b"key10"]
        assert {k: v for k, v in store.items()} == operations
        assert len(store) == len(operations)
        store.close()

    @pytest.mark.parametrize("kind", ["memory", "diskhash",
                                      "namespaced-memory",
                                      "namespaced-diskhash"])
    def test_put_many(self, kind: str, tmp_path) -> None:
        """One call, the last value for a key winning, over keys the
        store holds and keys it does not; a held snapshot keeps the
        values of its version and refuses the call."""
        base_kind = kind.rpartition("-")[2]
        base = open_store(base_kind, str(tmp_path / f"s.{base_kind}"),
                          create=True)
        store = NamespacedStore(base, b"x1:") if "namespaced" in kind \
            else base
        if store is not base:
            base.put(b"x10:k", b"another namespace")
        model = {f"key{i}".encode(): f"val{i}".encode() * (i + 1)
                 for i in range(60)}
        store.put_many(model.items())
        snap = store.snapshot()
        before = dict(model)
        pairs = [(b"key3", b"first"), (b"new", b"n" * 3000),
                 (b"key40", b"B" * 2500), (b"key3", b"second"),
                 (b"key7", b""), (b"new", b"again")]
        with store.transaction():
            store.put_many(iter(pairs))
        model.update(pairs)
        assert model[b"key3"] == b"second" and model[b"new"] == b"again"
        assert dict(store.items()) == model
        assert len(store) == len(model)
        assert all(store.get(key) == value for key, value in model.items())
        assert dict(snap.items()) == before
        with pytest.raises(StorageError):
            snap.put_many([(b"key3", b"refused")])
        snap.close()
        store.put_many([])
        assert dict(store.items()) == model
        if store is not base:
            assert base.get(b"x10:k") == b"another namespace"
            assert base.get(b"x1:key3") == b"second"
        base.close()

    @pytest.mark.parametrize("kind", ["memory", "diskhash"])
    def test_snapshot_counts_unjournaled_writes(self, kind: str,
                                                tmp_path) -> None:
        """Regression: the disk stores persist their count at commit or
        sync, so a view pinned right after a write outside a
        transaction reported the count before it."""
        store = open_store(kind, str(tmp_path / f"s.{kind}"), create=True)
        with store.transaction(b"a"):
            store.put(b"a", b"1")
        store.put(b"b", b"2")
        snap = store.snapshot()
        assert snap.get(b"b") == b"2"
        assert len(snap) == sum(1 for _ in snap.items()) == 2
        snap.close()
        store.close()

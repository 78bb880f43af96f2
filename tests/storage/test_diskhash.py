"""Tests for the external-memory hash table."""

from __future__ import annotations

import random

import pytest

from repro.storage.diskhash import DiskHashTable
from repro.storage.errors import KeyTooLargeError, StoreClosedError


@pytest.fixture
def table(tmp_path) -> DiskHashTable:
    t = DiskHashTable(str(tmp_path / "t.dh"), create=True, n_buckets=64)
    yield t
    if not t._closed:
        t.close()


class TestBasicOps:
    def test_get_missing(self, table: DiskHashTable) -> None:
        assert table.get(b"nope") is None

    def test_put_get(self, table: DiskHashTable) -> None:
        table.put(b"k", b"v")
        assert table.get(b"k") == b"v"
        assert len(table) == 1

    def test_replace(self, table: DiskHashTable) -> None:
        table.put(b"k", b"v1")
        table.put(b"k", b"v2")
        assert table.get(b"k") == b"v2"
        assert len(table) == 1

    def test_delete(self, table: DiskHashTable) -> None:
        table.put(b"k", b"v")
        assert table.delete(b"k") is True
        assert table.get(b"k") is None
        assert len(table) == 0
        assert table.delete(b"k") is False

    def test_empty_value(self, table: DiskHashTable) -> None:
        table.put(b"k", b"")
        assert table.get(b"k") == b""

    def test_dunder_interface(self, table: DiskHashTable) -> None:
        table[b"k"] = b"v"
        assert b"k" in table
        assert table[b"k"] == b"v"
        del table[b"k"]
        assert b"k" not in table
        with pytest.raises(KeyError):
            table[b"k"]

    def test_key_too_large(self, table: DiskHashTable) -> None:
        with pytest.raises(KeyTooLargeError):
            table.put(b"x" * 5000, b"v")

    def test_closed_store_raises(self, table: DiskHashTable) -> None:
        table.close()
        with pytest.raises(StoreClosedError):
            table.get(b"k")


class TestLargeValues:
    def test_overflow_value(self, table: DiskHashTable) -> None:
        big = bytes(range(256)) * 100  # 25.6 KiB
        table.put(b"big", big)
        assert table.get(b"big") == big

    def test_overflow_replace_frees_chain(self, table: DiskHashTable) -> None:
        big = b"a" * 50_000
        table.put(b"big", big)
        pages_after_first = table._pager.n_pages
        table.put(b"big", b"b" * 50_000)
        # replacement must recycle the old chain, not leak pages
        assert table._pager.n_pages <= pages_after_first + 2
        assert table.get(b"big") == b"b" * 50_000

    def test_mixed_sizes(self, table: DiskHashTable) -> None:
        table.put(b"small", b"s")
        table.put(b"large", b"L" * 20_000)
        assert table.get(b"small") == b"s"
        assert table.get(b"large") == b"L" * 20_000


class TestBulkAndPersistence:
    def test_many_keys(self, tmp_path) -> None:
        table = DiskHashTable(str(tmp_path / "m.dh"), create=True,
                              n_buckets=32)
        for i in range(500):
            table.put(f"key{i}".encode(), f"value{i}".encode() * (i % 7 + 1))
        for i in range(500):
            assert table.get(f"key{i}".encode()) == \
                f"value{i}".encode() * (i % 7 + 1)
        assert len(table) == 500
        table.close()

    def test_items_iteration(self, table: DiskHashTable) -> None:
        expected = {f"k{i}".encode(): f"v{i}".encode() for i in range(40)}
        for key, value in expected.items():
            table.put(key, value)
        table.delete(b"k7")
        del expected[b"k7"]
        assert dict(table.items()) == expected

    def test_reopen(self, tmp_path) -> None:
        path = str(tmp_path / "p.dh")
        table = DiskHashTable(path, create=True, n_buckets=16)
        table.put(b"persist", b"me")
        table.put(b"big", b"B" * 30_000)
        table.close()
        reopened = DiskHashTable(path)
        assert reopened.get(b"persist") == b"me"
        assert reopened.get(b"big") == b"B" * 30_000
        assert len(reopened) == 2
        reopened.close()

    def test_fuzz_against_dict(self, tmp_path) -> None:
        rng = random.Random(99)
        table = DiskHashTable(str(tmp_path / "f.dh"), create=True,
                              n_buckets=8)
        model: dict[bytes, bytes] = {}
        keys = [f"k{i}".encode() for i in range(50)]
        for _step in range(1500):
            key = rng.choice(keys)
            op = rng.random()
            if op < 0.55:
                value = rng.randbytes(rng.choice((3, 30, 3000)))
                table.put(key, value)
                model[key] = value
            elif op < 0.8:
                assert table.get(key) == model.get(key)
            else:
                assert table.delete(key) == (model.pop(key, None) is not None)
        assert dict(table.items()) == model
        assert len(table) == len(model)
        table.close()


class TestStats:
    def test_hit_miss_counting(self, table: DiskHashTable) -> None:
        table.put(b"k", b"v")
        table.get(b"k")
        table.get(b"absent")
        assert table.stats.hits == 1
        assert table.stats.misses == 1
        assert table.stats.bytes_read == 1
        assert table.stats.puts == 1


class TestPageStability:
    """Regression: deletes excise records, so same-key churn must not
    grow the file (tombstone accumulation used to leak page space)."""

    def test_same_key_overwrites_stable_pages(self, tmp_path) -> None:
        table = DiskHashTable(str(tmp_path / "f.dh"), create=True,
                              n_buckets=8)
        for i in range(300):
            table.put(b"hot", b"v%d" % i * 7)
        settled = table._pager.n_pages
        for i in range(300):
            table.put(b"hot", b"v%d" % i * 7)
        assert table._pager.n_pages == settled
        assert table.get(b"hot") == b"v299" * 7
        assert len(table) == 1
        table.close()

    def test_overflow_churn_stable_pages(self, tmp_path) -> None:
        table = DiskHashTable(str(tmp_path / "f.dh"), create=True,
                              n_buckets=8)
        big = b"x" * 20_000  # several overflow pages per value
        for i in range(40):
            table.put(b"big", big + b"%d" % i)
        settled = table._pager.n_pages
        for i in range(40):
            table.put(b"big", big + b"%d" % i)
        assert table._pager.n_pages == settled
        table.close()

    def test_delete_then_reinsert_reuses_space(self, tmp_path) -> None:
        table = DiskHashTable(str(tmp_path / "f.dh"), create=True,
                              n_buckets=4)
        for round_no in range(50):
            for i in range(20):
                table.put(b"k%d" % i, b"payload-%d" % round_no)
            # a deleted overflow value's chain is recycled too
            table.put(b"big", b"x" * 20_000 + b"%d" % round_no)
            if round_no == 0:
                settled = table._pager.n_pages
            for i in range(20):
                assert table.delete(b"k%d" % i)
            assert table.delete(b"big")
        assert table._pager.n_pages == settled
        assert len(table) == 0
        table.close()

"""Tests for the write-ahead log and the pager's transactions."""

from __future__ import annotations

import struct

import pytest

from repro.core.engine import NestedSetIndex
from repro.core.model import NestedSet
from repro.storage import DiskHashTable, wal_path
from repro.storage.errors import StorageError
from repro.storage.pager import Pager
from repro.storage.wal import WriteAheadLog, split_label


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


class TestWriteAheadLog:
    def test_commit_and_recover_roundtrip(self, tmp_path) -> None:
        path = str(tmp_path / "log")
        wal = WriteAheadLog(path, create=True)
        wal.commit(b"first", [b"rec-a", b"rec-b"], version=1)
        wal.commit(b"second", [b"rec-c"], version=2)
        assert wal.pending_groups == 2
        wal.close()

        replayed: list[tuple[bytes, list[bytes]]] = []
        wal = WriteAheadLog(path)
        counts = wal.recover(lambda label, recs: replayed.append(
            (split_label(label)[3], recs)))
        assert counts == (2, 0)
        assert replayed == [(b"first", [b"rec-a", b"rec-b"]),
                            (b"second", [b"rec-c"])]
        wal.checkpoint()
        assert wal.pending_groups == 0
        assert wal.size == 6  # just the file header
        wal.close()

    def test_torn_tail_discarded(self, tmp_path) -> None:
        path = str(tmp_path / "log")
        wal = WriteAheadLog(path, create=True)
        wal.commit(b"ok", [b"payload"], version=1)
        wal.commit(b"torn", [b"payload-2"], version=2)
        wal.close()
        # Tear the second group: keep the first intact.
        raw = _read(path)
        with open(path, "wb") as handle:
            handle.write(raw[:-5])

        replayed = []
        wal = WriteAheadLog(path)
        counts = wal.recover(
            lambda label, recs: replayed.append(split_label(label)[3]))
        assert counts == (1, 1)
        assert replayed == [b"ok"]
        wal.close()

    def test_corrupt_crc_discards_group_and_successors(self, tmp_path) -> None:
        path = str(tmp_path / "log")
        wal = WriteAheadLog(path, create=True)
        wal.commit(b"a", [b"x" * 32], version=1)
        first_end = wal.size
        wal.commit(b"b", [b"y" * 32], version=2)
        wal.close()
        raw = bytearray(_read(path))
        raw[first_end - 3] ^= 0xFF  # flip a byte inside group 1's body
        with open(path, "wb") as handle:
            handle.write(bytes(raw))

        replayed = []
        wal = WriteAheadLog(path)
        counts = wal.recover(lambda label, recs: replayed.append(label))
        # Group boundaries cannot be trusted past a bad checksum: the
        # scan stops there, even though a later group may be intact.
        assert counts == (0, 1)
        assert replayed == []
        wal.close()

    def test_create_removes_stale_log(self, tmp_path) -> None:
        path = str(tmp_path / "log")
        wal = WriteAheadLog(path, create=True)
        wal.commit(b"stale", [b"old"], version=1)
        wal.close()
        wal = WriteAheadLog(path, create=True)
        assert wal.recover(lambda *a: pytest.fail("nothing to replay")) \
            == (0, 0)
        wal.close()

    def test_torn_header_resets(self, tmp_path) -> None:
        path = str(tmp_path / "log")
        with open(path, "wb") as handle:
            handle.write(b"NC")  # torn 2 of 6 header bytes
        wal = WriteAheadLog(path)
        assert wal.recover(lambda *a: None) == (0, 0)
        wal.commit(b"after", [b"fine"], version=1)
        wal.close()

    def test_describe_counters(self, tmp_path) -> None:
        path = str(tmp_path / "log")
        wal = WriteAheadLog(path, create=True)
        wal.commit(b"m", [b"r1", b"r2"], version=1)
        info = wal.describe()
        assert info["commits"] == 1
        assert info["records_logged"] == 2
        assert info["pending_groups"] == 1
        assert info["syncs"] == 1
        wal.checkpoint()
        assert wal.describe()["checkpoints"] == 1
        wal.close()


class TestPagerTransactions:
    def test_commit_applies_and_persists(self, tmp_path) -> None:
        path = str(tmp_path / "f.pg")
        pager = Pager(path, page_size=256, create=True)
        pager.begin(b"txn")
        page = pager.allocate()
        pager.write(page, b"hello")
        assert pager.read(page).startswith(b"hello")  # read-your-writes
        pager.commit()
        pager.close()
        reopened = Pager(path)
        assert reopened.read(page).startswith(b"hello")
        reopened.close()

    def test_buffered_until_commit(self, tmp_path) -> None:
        path = str(tmp_path / "f.pg")
        pager = Pager(path, page_size=256, create=True)
        page = pager.allocate()
        pager.write(page, b"before")
        pager.sync()
        pager.begin(b"txn")
        pager.write(page, b"after")
        # The main file still holds the pre-image mid-transaction (the
        # dirty page lives in memory, not in any file buffer).
        raw = _read(path)
        assert b"before" in raw and b"after" not in raw
        pager.commit()
        pager.sync()
        assert b"after" in _read(path)
        pager.close()

    def test_abort_restores_state(self, tmp_path) -> None:
        path = str(tmp_path / "f.pg")
        pager = Pager(path, page_size=256, create=True)
        page = pager.allocate()
        pager.write(page, b"keep")
        n_pages = pager.n_pages
        pager.begin(b"txn")
        extra = pager.allocate()
        pager.write(extra, b"drop")
        pager.write(page, b"clobber")
        pager.abort()
        assert pager.n_pages == n_pages
        assert pager.read(page).startswith(b"keep")
        pager.close()

    def test_nested_commit_is_one_group(self, tmp_path) -> None:
        path = str(tmp_path / "f.pg")
        pager = Pager(path, page_size=256, create=True)
        pager.begin(b"outer")
        a = pager.allocate()
        pager.begin(b"inner")
        pager.write(a, b"x")
        pager.commit()
        assert pager.txn_depth == 1
        pager.commit()
        assert pager.wal_info()["commits"] == 1
        pager.close()

    def test_commit_outside_txn_raises(self, tmp_path) -> None:
        pager = Pager(str(tmp_path / "f.pg"), create=True)
        with pytest.raises(StorageError):
            pager.commit()
        pager.close()

    def test_recovery_on_open_replays_committed_group(self, tmp_path) -> None:
        path = str(tmp_path / "f.pg")
        pager = Pager(path, page_size=256, create=True)
        pager.begin(b"txn")
        page = pager.allocate()
        pager.write(page, b"durable")
        pager.commit()
        # Simulate a crash after the WAL fsync but before the pages hit
        # the main file: rewind the main file to its pre-commit image
        # while keeping the log.
        wal_bytes = _read(wal_path(path))
        main_bytes = _read(path)
        pager.close()
        with open(path, "wb") as handle:
            handle.write(main_bytes[:256])  # header page only
        with open(wal_path(path), "wb") as handle:
            handle.write(wal_bytes)

        reopened = Pager(path)
        assert reopened.recovered_groups == 1
        assert reopened.read(page).startswith(b"durable")
        assert reopened.wal_info()["pending_groups"] == 0  # checkpointed
        reopened.close()

    def test_recovery_is_idempotent_at_pager_level(self, tmp_path) -> None:
        path = str(tmp_path / "f.pg")
        pager = Pager(path, page_size=256, create=True)
        pager.begin(b"txn")
        page = pager.allocate()
        pager.write(page, b"twice-safe")
        pager.commit()
        wal_bytes = _read(wal_path(path))
        pager.close()
        once = _read(path)
        # A crash *during recovery* leaves the log in place: the next
        # open replays the same groups over the already-applied pages.
        with open(wal_path(path), "wb") as handle:
            handle.write(wal_bytes)
        reopened = Pager(path)
        assert reopened.recovered_groups == 1
        reopened.close()
        assert _read(path) == once

    def test_the_log_cannot_be_switched_off(self, tmp_path) -> None:
        # A store's version moves only through its log; without one a
        # reader's cache would answer from before every commit.
        with pytest.raises(TypeError):
            Pager(str(tmp_path / "f.pg"), create=True, wal=False)
        with pytest.raises(TypeError):
            NestedSetIndex.build([("r", NestedSet.parse("{a}"))],
                                 storage="diskhash",
                                 path=str(tmp_path / "i.dh"), wal=False)

    def test_empty_transaction_writes_no_group(self, tmp_path) -> None:
        pager = Pager(str(tmp_path / "f.pg"), create=True)
        pager.begin(b"noop")
        pager.commit()
        assert pager.wal_info()["commits"] == 0
        pager.close()


class TestStoreTransactionSurface:
    def test_transaction_commits_on_success(self, tmp_path) -> None:
        store = DiskHashTable(str(tmp_path / "h.db"), create=True)
        with store.transaction(b"ins"):
            store.put(b"k", b"v")
        assert store.wal_info()["commits"] == 1
        store.close()
        store = DiskHashTable(str(tmp_path / "h.db"))
        assert store.get(b"k") == b"v"
        store.close()

    def test_transaction_aborts_on_error(self, tmp_path) -> None:
        store = DiskHashTable(str(tmp_path / "h.db"), create=True)
        store.put(b"seed", b"1")
        with pytest.raises(RuntimeError):
            with store.transaction(b"bad"):
                store.put(b"k", b"v")
                raise RuntimeError("boom")
        assert store.get(b"k") is None
        assert store.get(b"seed") == b"1"
        assert len(store) == 1
        store.close()


# -- property: recovery is idempotent ---------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_PAGE = 64

_group_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7),
              st.binary(min_size=_PAGE, max_size=_PAGE)),
    min_size=1, max_size=4)


def _apply_to(path: str):
    def apply(label: bytes, records: list[bytes]) -> None:
        with open(path, "r+b") as handle:
            for record in records:
                page_id = struct.unpack_from("<Q", record, 0)[0]
                data = record[8:]
                handle.seek(page_id * len(data))
                handle.write(data)
    return apply


@settings(max_examples=40, deadline=None)
@given(groups=st.lists(_group_strategy, min_size=1, max_size=6),
       torn_bytes=st.integers(min_value=0, max_value=12))
def test_recovery_idempotent_property(tmp_path_factory, groups,
                                      torn_bytes) -> None:
    """Replaying the WAL twice yields the same bytes as replaying once.

    Models a crash during recovery itself: the first open replays the
    log and dies before the checkpoint; the second open replays the
    same (possibly torn) log again over the already-patched file.
    """
    base = tmp_path_factory.mktemp("walprop")
    log_path = str(base / "log")
    target = str(base / "target")
    wal = WriteAheadLog(log_path, create=True, sync=False)
    for group_no, group in enumerate(groups):
        records = [struct.pack("<Q", page_id) + payload
                   for page_id, payload in group]
        wal.commit(b"g%d" % group_no, records, version=group_no + 1)
    wal.close()
    if torn_bytes:
        raw = _read(log_path)
        with open(log_path, "wb") as handle:
            handle.write(raw[:max(6, len(raw) - torn_bytes)])

    with open(target, "wb") as handle:
        handle.write(b"\x00" * _PAGE)

    wal = WriteAheadLog(log_path)
    first = wal.recover(_apply_to(target))
    wal.close()
    once = _read(target)

    wal = WriteAheadLog(log_path)
    second = wal.recover(_apply_to(target))
    wal.close()
    assert second == first
    assert _read(target) == once


@pytest.mark.parametrize("shards", [1, 4])
def test_every_insert_group_moves_the_version(tmp_path, shards) -> None:
    """After a warm query, each insert group is one new store version,
    and the same query answers with the group's record."""
    records = [(f"r{i}", NestedSet.parse(f"{{a, b{i}}}")) for i in range(20)]
    index = NestedSetIndex.build(records, storage="diskhash",
                                 path=str(tmp_path / "i.dh"), shards=shards)
    try:
        assert len(index.query("{a}")) == 20
        for number in range(1, 3):
            before = index.base_store.current_version()
            index.insert_batch([(f"new{number}",
                                 NestedSet.parse("{a, zz}"))])
            assert index.base_store.current_version() == before + 1
            assert len(index.query("{a}")) == 20 + number
            assert sorted(index.query("{zz}")) == \
                [f"new{n}" for n in range(1, number + 1)]
    finally:
        index.close()

"""Tests for the paged-file manager."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.storage.diskhash import DiskHashTable
from repro.storage.errors import (
    CorruptionError,
    PageBoundsError,
    StorageError,
)
from repro.storage.pager import MAX_META, Pager


@pytest.fixture
def pager(tmp_path) -> Pager:
    p = Pager(str(tmp_path / "file.pg"), create=True)
    yield p
    p.close()


class TestLifecycle:
    def test_create_and_reopen(self, tmp_path) -> None:
        path = str(tmp_path / "f.pg")
        pager = Pager(path, page_size=1024, create=True)
        page = pager.allocate()
        pager.write(page, b"hello")
        pager.close()
        reopened = Pager(path)
        assert reopened.page_size == 1024
        assert reopened.read(page).startswith(b"hello")
        reopened.close()

    def test_missing_file(self, tmp_path) -> None:
        with pytest.raises(StorageError):
            Pager(str(tmp_path / "nope.pg"))

    def test_bad_magic(self, tmp_path) -> None:
        path = tmp_path / "bad.pg"
        path.write_bytes(b"XXXX" + b"\x00" * 100)
        with pytest.raises(CorruptionError):
            Pager(str(path))

    def test_truncated_header(self, tmp_path) -> None:
        path = tmp_path / "tiny.pg"
        path.write_bytes(b"NC")
        with pytest.raises(CorruptionError):
            Pager(str(path))


class TestPages:
    def test_allocate_sequential(self, pager: Pager) -> None:
        first = pager.allocate()
        second = pager.allocate()
        assert second == first + 1

    def test_write_read_roundtrip(self, pager: Pager) -> None:
        page = pager.allocate()
        pager.write(page, b"abc")
        data = pager.read(page)
        assert len(data) == pager.page_size
        assert data.startswith(b"abc")
        assert data[3:] == b"\x00" * (pager.page_size - 3)

    def test_oversized_write_rejected(self, pager: Pager) -> None:
        page = pager.allocate()
        with pytest.raises(StorageError):
            pager.write(page, b"x" * (pager.page_size + 1))

    def test_bounds_checked(self, pager: Pager) -> None:
        with pytest.raises(PageBoundsError):
            pager.read(0)  # the header page is not client-readable
        with pytest.raises(PageBoundsError):
            pager.read(999)

    def test_free_list_recycles(self, pager: Pager) -> None:
        first = pager.allocate()
        pager.allocate()
        pager.free(first)
        assert pager.allocate() == first

    def test_freed_page_comes_back_zeroed(self, pager: Pager) -> None:
        page = pager.allocate()
        pager.write(page, b"junk")
        pager.free(page)
        recycled = pager.allocate()
        assert recycled == page
        assert pager.read(recycled) == b"\x00" * pager.page_size

    def test_free_list_survives_reopen(self, tmp_path) -> None:
        path = str(tmp_path / "f.pg")
        pager = Pager(path, create=True)
        page = pager.allocate()
        pager.free(page)
        pager.close()
        reopened = Pager(path)
        assert reopened.allocate() == page
        reopened.close()


class TestMeta:
    def test_meta_roundtrip(self, tmp_path) -> None:
        path = str(tmp_path / "f.pg")
        pager = Pager(path, create=True)
        pager.set_meta(b"client-config")
        pager.close()
        reopened = Pager(path)
        assert reopened.meta == b"client-config"
        reopened.close()

    def test_meta_size_limit(self, pager: Pager) -> None:
        with pytest.raises(StorageError):
            pager.set_meta(b"x" * (MAX_META + 1))


class TestOverflow:
    def test_small_payload(self, pager: Pager) -> None:
        head = pager.write_overflow(b"tiny")
        assert pager.read_overflow(head, 4) == b"tiny"

    def test_multi_page_payload(self, pager: Pager) -> None:
        payload = bytes(range(256)) * 64  # 16 KiB over 4 KiB pages
        head = pager.write_overflow(payload)
        assert pager.read_overflow(head, len(payload)) == payload

    def test_empty_payload(self, pager: Pager) -> None:
        head = pager.write_overflow(b"")
        assert pager.read_overflow(head, 0) == b""

    def test_free_overflow_recycles_every_page(self, pager: Pager) -> None:
        payload = b"z" * (pager.page_size * 3)
        before = pager.n_pages
        head = pager.write_overflow(payload)
        grown = pager.n_pages - before
        assert grown >= 3
        pager.free_overflow(head, len(payload))
        # Every freed page should be recycled before the file grows again.
        recycled = {pager.allocate() for _ in range(grown)}
        assert all(page < pager.n_pages for page in recycled)
        assert pager.n_pages == before + grown

    def test_chain_ends_early_is_corruption(self, pager: Pager) -> None:
        head = pager.write_overflow(b"abc")
        with pytest.raises(CorruptionError):
            pager.read_overflow(head, 10 ** 6)


class TestWriteCounts:
    """Allocation moves counters only: the caller's write is the page's
    one write, and the header is built once per build step or group."""

    @staticmethod
    def _spy(monkeypatch) -> tuple[Counter, list[int]]:
        writes: Counter = Counter()
        headers: list[int] = []
        write, header_bytes = Pager.write, Pager._header_bytes

        def counted_write(self, page_id: int, data: bytes) -> None:
            writes[page_id] += 1
            write(self, page_id, data)

        def counted_header(self) -> bytes:
            headers.append(self.n_pages)
            return header_bytes(self)

        monkeypatch.setattr(Pager, "write", counted_write)
        monkeypatch.setattr(Pager, "_header_bytes", counted_header)
        return writes, headers

    def test_allocate_writes_nothing(self, pager: Pager,
                                     monkeypatch) -> None:
        writes, headers = self._spy(monkeypatch)
        page = pager.allocate()
        pager.free(page)
        assert pager.allocate() == page
        assert (dict(writes), headers) == ({page: 1}, [])

    def test_build_writes_each_page_once(self, tmp_path,
                                         monkeypatch) -> None:
        path = str(tmp_path / "t.dh")
        table = DiskHashTable(path, create=True, n_buckets=16)
        writes, headers = self._spy(monkeypatch)
        table.put_many((b"k%d" % i, b"v" * 100) for i in range(3000))
        table.close()
        n_pages = table.pager.n_pages
        assert n_pages > 4 * 16            # chains of several pages
        assert dict(writes) == {page: 1 for page in range(1, n_pages)}
        assert len(headers) == 1           # close: the meta, once

    def test_group_builds_the_header_once(self, tmp_path,
                                          monkeypatch) -> None:
        path = str(tmp_path / "t.dh")
        table = DiskHashTable(path, create=True, n_buckets=16)
        table.put_many((b"k%d" % i, b"v" * 40) for i in range(500))
        table.close()
        table = DiskHashTable(path)
        before = table.pager.n_pages
        writes, headers = self._spy(monkeypatch)
        with table.transaction(b"group"):
            # Fresh chain pages, and an overflow chain for the last.
            table.put_many((b"new%d" % i, b"w" * 1500 * (1 + i // 19 * 3))
                           for i in range(20))
        assert table.pager.n_pages > before
        assert set(writes.values()) == {1}
        assert headers == [table.pager.n_pages]
        table.close()
        table = DiskHashTable(path)
        assert len(table) == 520
        assert table.get(b"new19") == b"w" * 6000
        table.close()

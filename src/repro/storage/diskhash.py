"""External-memory hash table over the paged file.

This is the stand-in for Tokyo Cabinet's disk hash table, which the paper
used as the inverted-file storage engine with caching disabled
(Section 5.1).  Design:

* a fixed bucket directory (``n_buckets`` chosen at creation) stored in
  dedicated directory pages right after the header,
* each bucket heads a chain of record pages,
* records are appended into chain pages; replaced/deleted records are
  excised in place (the page tail shifts left), so update-heavy
  workloads reuse page space instead of growing the chain without bound,
* a write group (:meth:`DiskHashTable.put_many`) walks each bucket's
  chain once and writes each page it changes once,
* values larger than the in-page threshold spill into overflow chains.

Record page layout::

    [next u64][used u16][records ...]

Record layout::

    [flag u8][klen varint][vlen varint][key][value-or-overflow-ref]

``flag``: 0 = live inline, 1 = tombstone (read compatibility with files
written before deletes excised records), 2 = live with overflow value
(the in-page value is then ``[head u64][length u32]``).

Locating a key in a page: a record page is parsed once into a
*directory* ``key -> where its live record sits`` (:func:`_parse_page`),
and the table keeps a bounded memo ``page_id -> (the bytes parsed,
their directory)`` shared with all its snapshots
(:class:`_PageDirectories`).  Every lookup still reads every page of its
chain through the pager; the memo never answers a read, it only says
where in the bytes *just read* the key is -- and only when those bytes
start with the very bytes the directory was parsed from.  A directory is
a pure function of its page, so that comparison is the whole
invalidation story: versions, pins, copy-on-write pre-images, aborts,
recovery and replicated apply need no reasoning, and a stale entry can
only cost a re-parse.  A write files the page it wrote with the
directory a parse would give, derived from the one held for the bytes
it replaced (records cut out and those behind them moved forward,
records appended), so a page is not parsed again just because this
table wrote it.

Durability: mutations wrapped in :meth:`~repro.storage.kvstore.KVStore.
transaction` commit through the pager's write-ahead log and are replayed
on reopen after a crash; unwrapped writes keep the original
flush-on-:meth:`sync`/:meth:`close` behaviour (offline builds).
"""

from __future__ import annotations

import struct
import threading
from typing import Callable, Iterable, Iterator

from .codec import decode_varint, encode_varint, fnv1a_64
from .errors import CorruptionError, KeyTooLargeError
from .kvstore import KVStore, ReadOnlySnapshot
from .pager import DEFAULT_PAGE_SIZE, PageReader, Pager

_PAGE_HEADER = struct.Struct("<QH")
_NEXT_PAGE = struct.Struct("<Q")
_OVERFLOW_REF = struct.Struct("<QI")
_META = struct.Struct("<IQIQ")  # n_buckets, dir_first, n_dir_pages, count

_FLAG_LIVE = 0
_FLAG_DEAD = 1
_FLAG_OVERFLOW = 2

DEFAULT_BUCKETS = 1024

#: A directory entry is one int: ``flag | record_start << 2 |
#: value_start << 19 | value_end << 36``.  ``used`` is a u16, so every
#: offset fits 17 bits, and one 32-byte int per key stands where a
#: tuple and its ints would take five times that.
_FLAG_MASK = 3
_OFFSET_MASK = (1 << 17) - 1
_START_SHIFT = 2
_VALUE_SHIFT = 19
_END_SHIFT = 36

#: Directories held per bucket.  A table at its design load has one
#: record page per bucket (1 024-1 025 pages in 1 024 buckets on each of
#: the benchmark's four workloads), so 2 evicts nothing there and leaves
#: room for a second page a bucket; a run ends holding 0.7-0.9 k
#: directories, 2.4-4.9 MB (CHANGES.md, issue 19).
_DIRECTORIES_PER_BUCKET = 2


def _unpack_meta(meta: bytes) -> tuple[int, int, int, int]:
    """``(n_buckets, dir_first, n_dir_pages, count)`` from the header.

    A paged file whose metadata is shorter was written by another kind
    of store (a B+tree wrote 16 bytes), not by a torn hash-table write.
    """
    if len(meta) < _META.size:
        raise CorruptionError(
            f"not a disk hash table store: header metadata is "
            f"{len(meta)} bytes, expected {_META.size}")
    return _META.unpack(meta[:_META.size])


def _parse_page(raw: bytes) -> tuple[bytes, dict[bytes, int]]:
    """``(bytes parsed, directory)`` of a record page.

    The directory maps ``key -> entry`` of the live records, in page
    order; tombstones are left out and the first live record of a key
    wins, which is what a record-by-record scan for the key finds.  The
    bytes parsed are the header and the records: the directory is a
    function of them alone (the tail of the page is unused).
    """
    end = _PAGE_HEADER.size + _PAGE_HEADER.unpack_from(raw)[1]
    directory: dict[bytes, int] = {}
    pos = _PAGE_HEADER.size
    try:
        while pos < end:
            start = pos
            flag = raw[pos]
            klen = raw[pos + 1]
            if klen < 0x80:         # one-byte varints: every key, and
                pos += 2            # every value under 128 bytes
            else:
                klen, pos = decode_varint(raw, pos + 1)
            vlen = raw[pos]
            if vlen < 0x80:
                pos += 1
            else:
                vlen, pos = decode_varint(raw, pos)
            value = pos + klen
            pos = value + vlen
            if flag != _FLAG_DEAD:
                directory.setdefault(
                    raw[value - klen:value],
                    flag | start << _START_SHIFT | value << _VALUE_SHIFT
                    | pos << _END_SHIFT)
    except IndexError:
        raise CorruptionError("truncated record page") from None
    if pos != end or end > len(raw):
        raise CorruptionError("record overruns its page")
    return raw[:end], directory


class _PageDirectories:
    """Bounded memo ``page_id -> (bytes parsed, directory)``.

    An entry is used only for page bytes that start with the bytes it
    was parsed from, so it needs no invalidation.  Lookups are
    lock-free -- entries are immutable and a dict read is atomic; the
    lock makes the evict-then-insert of a miss one step.  Eviction is
    first in, first out: nothing is evicted while the pages in use fit
    the bound.
    """

    __slots__ = ("bound", "_held", "_lock")

    def __init__(self, bound: int) -> None:
        self.bound = bound
        self._held: dict[int, tuple[bytes, dict[bytes, int]]] = {}
        self._lock = threading.Lock()

    def _current(self, page_id: int, raw: bytes
                 ) -> tuple[bytes, dict[bytes, int]] | None:
        """The entry held for ``page_id`` if it was parsed from ``raw``."""
        held = self._held.get(page_id)
        if held is None or not raw.startswith(held[0]):
            return None
        return held

    def locate(self, page_id: int, raw: bytes, key: bytes) -> int | None:
        """The entry of ``key``'s live record in the page ``raw``."""
        held = self._current(page_id, raw)
        if held is None:
            if key not in raw:
                # No record of it without its bytes: a bulk load's puts
                # of new keys, each into a page the previous put
                # changed, skip the parse.
                return None
            held = _parse_page(raw)
            self._file(page_id, held)
        return held[1].get(key)

    def edited(self, page_id: int, raw: bytes, page: bytes,
               cut: dict[bytes, int], appended: list[tuple[bytes, int]]
               ) -> None:
        """``page`` is ``raw`` without the live records ``cut`` (``key ->
        entry``), the records behind each moved forward, and with the
        records ``appended`` added at its end: file its directory,
        derived from the one held for ``raw``, so the next lookup on
        the page need not parse it.  Not when a cut key's bytes occur
        behind its cut, where a shadowed record of the key could be the
        first live one now."""
        held = self._current(page_id, raw)
        if held is None:
            return
        directory = dict(held[1])
        shift = 0
        if cut:
            step = 1 << _START_SHIFT | 1 << _VALUE_SHIFT | 1 << _END_SHIFT
            behind: list[tuple[bytes, int]] = []
            # A directory lists its keys in page order, so the records
            # behind a cut are the keys after it.
            keys = list(directory)
            for key in keys[keys.index(next(iter(cut))):]:
                if key in cut:
                    entry = directory.pop(key)
                    start = entry >> _START_SHIFT & _OFFSET_MASK
                    behind.append((key, start - shift))
                    shift += (entry >> _END_SHIFT) - start
                else:
                    directory[key] -= shift * step
            for key, start in behind:
                if page.find(key, start, len(held[0]) - shift) >= 0:
                    return
        for key, entry in appended:
            directory.setdefault(key, entry)
        end = appended[-1][1] >> _END_SHIFT if appended \
            else len(held[0]) - shift
        self._file(page_id, (page[:end], directory))

    def _file(self, page_id: int,
              held: tuple[bytes, dict[bytes, int]]) -> None:
        with self._lock:
            if page_id not in self._held and len(self._held) >= self.bound:
                del self._held[next(iter(self._held))]
            self._held[page_id] = held

    def __len__(self) -> int:
        return len(self._held)


class _ChainReads:
    """``get`` and ``items`` over bucket chains.

    Shared by the live table and its snapshots, which differ only in
    where a page comes from: ``_read_page`` / ``_read_overflow`` are the
    pager's live reads or a pinned :class:`PageReader`'s.
    """

    _directory: list[int]
    _n_buckets: int
    _pages: _PageDirectories
    _read_page: Callable[[int], bytes]
    _read_overflow: Callable[[int, int], bytes]

    def _chain(self, page_id: int) -> Iterator[tuple[int, bytes]]:
        """Yield ``(page_id, page bytes)`` along a chain of record pages."""
        read = self._read_page
        while page_id:
            raw = read(page_id)
            yield page_id, raw
            page_id = _NEXT_PAGE.unpack_from(raw)[0]

    def _value(self, raw: bytes, entry: int) -> bytes:
        stored = raw[entry >> _VALUE_SHIFT & _OFFSET_MASK:entry >> _END_SHIFT]
        if entry & _FLAG_MASK == _FLAG_OVERFLOW:
            head, length = _OVERFLOW_REF.unpack(stored)
            stored = self._read_overflow(head, length)
            self.stats.page_reads += 1
        return stored

    def get(self, key: bytes) -> bytes | None:
        self._check_open()
        stats = self.stats
        stats.gets += 1
        # A key too large to store walks its chain and misses like any
        # other absent key.
        page_id = self._directory[fnv1a_64(key) % self._n_buckets]
        read, locate = self._read_page, self._pages.locate
        while page_id:
            raw = read(page_id)
            stats.page_reads += 1
            entry = locate(page_id, raw, key)
            if entry is not None:
                value = self._value(raw, entry)
                stats.hits += 1
                stats.bytes_read += len(value)
                return value
            page_id = _NEXT_PAGE.unpack_from(raw)[0]
        stats.misses += 1
        return None

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        self._check_open()
        for head in self._directory:
            for _page_id, raw in self._chain(head):
                for key, entry in _parse_page(raw)[1].items():
                    yield key, self._value(raw, entry)


class DiskHashTable(_ChainReads, KVStore):
    """Disk-backed hash table implementing the :class:`KVStore` interface."""

    def __init__(self, path: str, *, create: bool = False,
                 n_buckets: int = DEFAULT_BUCKETS,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 use_mmap: bool = True) -> None:
        super().__init__()
        #: An unjournaled write left the header's count behind.
        self._meta_stale = False
        if create:
            self._pager = Pager(path, page_size=page_size, create=True,
                                use_mmap=use_mmap)
            self._n_buckets = n_buckets
            per_page = self._pager.page_size // 8
            self._n_dir_pages = (n_buckets + per_page - 1) // per_page
            self._dir_pages = [self._pager.allocate()
                               for _ in range(self._n_dir_pages)]
            self._directory = [0] * n_buckets
            self._count = 0
            self._flush_directory()
            self._write_meta()
        else:
            self._pager = Pager(path, use_mmap=use_mmap)
            try:
                self._absorb_meta(self._pager.meta)
            except CorruptionError:
                self._pager.close()
                raise
        self._payload = self._pager.page_size - _PAGE_HEADER.size
        self._max_key = self._payload // 4
        self._overflow_threshold = self._payload // 2
        self._read_page = self._pager.read
        self._read_overflow = self._pager.read_overflow
        self._pages = _PageDirectories(
            _DIRECTORIES_PER_BUCKET * self._n_buckets)

    # -- metadata / directory ---------------------------------------------

    def _absorb_meta(self, meta: bytes) -> None:
        n_buckets, dir_first, n_dir_pages, count = _unpack_meta(meta)
        self._n_buckets = n_buckets
        self._n_dir_pages = n_dir_pages
        self._dir_pages = list(range(dir_first, dir_first + n_dir_pages))
        self._count = count
        self._directory = self._load_directory()

    def reload_meta(self) -> None:
        """Re-read cached table state from the pager (replica replay).

        Replicated apply rewrites pages underneath the live table; the
        in-memory directory and counters must be refreshed before the
        table serves unversioned reads or (after promotion) mutations.
        """
        self._absorb_meta(self._pager.meta)

    def _write_meta(self) -> None:
        self._pager.set_meta(_META.pack(
            self._n_buckets, self._dir_pages[0], self._n_dir_pages,
            self._count))
        self._meta_stale = False

    def _flush_directory(self) -> None:
        per_page = self._pager.page_size // 8
        for index, page_id in enumerate(self._dir_pages):
            chunk = self._directory[index * per_page:(index + 1) * per_page]
            raw = struct.pack(f"<{len(chunk)}Q", *chunk)
            self._pager.write(page_id, raw)

    def _load_directory(self) -> list[int]:
        per_page = self._pager.page_size // 8
        directory: list[int] = []
        for page_id in self._dir_pages:
            raw = self._pager.read(page_id)
            directory.extend(struct.unpack_from(f"<{per_page}Q", raw, 0))
        return directory[:self._n_buckets]

    def _set_buckets(self, heads: dict[int, int]) -> None:
        """Point each bucket of ``heads`` at its new head page, writing
        each directory page they touch once."""
        per_page = self._pager.page_size // 8
        edits: dict[int, bytearray] = {}
        for bucket, page_id in heads.items():
            self._directory[bucket] = page_id
            dir_page = self._dir_pages[bucket // per_page]
            raw = edits.get(dir_page)
            if raw is None:
                raw = edits[dir_page] = bytearray(self._pager.read(dir_page))
            struct.pack_into("<Q", raw, (bucket % per_page) * 8, page_id)
        for dir_page, raw in edits.items():
            self._pager.write(dir_page, bytes(raw))

    def _bucket_of(self, key: bytes) -> int:
        return fnv1a_64(key) % self._n_buckets

    # -- KVStore API -----------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        self.put_many(((key, value),))

    def put_many(self, pairs: Iterable[tuple[bytes, bytes]]) -> None:
        """Insert or replace several values, the last one for a key
        winning: each bucket's chain is walked once, and each page it
        changes -- records cut out, records appended -- written once."""
        self._check_open()
        groups: dict[int, dict[bytes, bytes]] = {}
        for key, value in pairs:
            if len(key) > self._max_key:
                raise KeyTooLargeError(f"key of {len(key)} bytes too large")
            groups.setdefault(self._bucket_of(key), {})[key] = value
        if self._pager.txn_depth == 0:
            self._meta_stale = True
        stats = self.stats
        heads: dict[int, int] = {}
        for bucket, group in groups.items():
            stats.puts += len(group)
            stats.bytes_written += sum(map(len, group.values()))
            head = self._put_bucket(self._directory[bucket], group)
            if head != self._directory[bucket]:
                heads[bucket] = head
        if heads:
            self._set_buckets(heads)

    def _put_bucket(self, head: int, group: dict[bytes, bytes]) -> int:
        """Write ``group`` into the chain at ``head``; returns the new
        head (a fresh page when no page of the chain has room)."""
        locate = self._pages.locate
        wanted = set(group)
        #: Per page of the chain: [room, records to append, page_id,
        #: bytes, live records to cut (page order)].
        pages: list[list] = []
        n_cut = 0
        page_id = head
        while page_id:
            raw = self._read_page(page_id)
            next_page, used = _PAGE_HEADER.unpack_from(raw)
            slot = [self._payload - used, [], page_id, raw, {}]
            found = [(entry, key) for key in wanted
                     if (entry := locate(page_id, raw, key)) is not None]
            if found:
                # In page order: an entry's high bits are its end.
                found.sort()
                cut = slot[4]
                for entry, key in found:
                    cut[key] = entry
                    slot[0] += (entry >> _END_SHIFT) \
                        - (entry >> _START_SHIFT & _OFFSET_MASK)
                    self._free_value(raw, entry)
                wanted.difference_update(cut)
                n_cut += len(found)
            pages.append(slot)
            page_id = next_page
        # Records are built after the cuts: a replaced overflow value's
        # pages are on the free list by now and get reused.  Each goes
        # to the first page with room, newest page first, as one put
        # after another would place it.
        order = list(pages)
        fresh: list[list] = []
        for key, value in group.items():
            record = self._build_record(key, value)
            for slot in order:
                if slot[0] >= len(record[1]):
                    break
            else:
                slot = [self._payload, []]
                fresh.append(slot)
                order.insert(0, slot)
            slot[0] -= len(record[1])
            slot[1].append(record)
        for _room, records, page_id, raw, cut in pages:
            if cut or records:
                self._write_page(page_id, raw, cut, records)
        # A bucket's fresh pages are allocated together, each linked to
        # the one before it.
        for page_id, (_room, records) in zip(
                [self._pager.allocate() for _ in fresh], fresh):
            self._write_page(page_id, _PAGE_HEADER.pack(head, 0), {},
                             records)
            head = page_id
        self._count += len(group) - n_cut
        return head

    def _write_page(self, page_id: int, raw: bytes, cut: dict[bytes, int],
                    records: list[tuple[bytes, bytes, int]]) -> None:
        """Write ``raw`` without the records ``cut`` (in page order; the
        records behind each move forward, so the space is reusable) and
        with ``records`` (``(key, record, stored length)``) appended.

        (Tombstoning instead leaked page space without bound under
        same-key churn.)
        """
        next_page, used = _PAGE_HEADER.unpack_from(raw)
        parts = [b""]               # the header, once its length is known
        pos = _PAGE_HEADER.size
        end = pos + used
        for entry in cut.values():
            start = entry >> _START_SHIFT & _OFFSET_MASK
            parts.append(raw[pos:start])
            pos = entry >> _END_SHIFT
            end -= pos - start
        parts.append(raw[pos:_PAGE_HEADER.size + used])
        appended = []
        for key, record, stored in records:
            parts.append(record)
            start, end = end, end + len(record)
            appended.append((key, record[0] | start << _START_SHIFT
                             | (end - stored) << _VALUE_SHIFT
                             | end << _END_SHIFT))
        parts[0] = _PAGE_HEADER.pack(next_page, end - _PAGE_HEADER.size)
        page = b"".join(parts)
        self._pager.write(page_id, page)
        self._pages.edited(page_id, raw, page, cut, appended)
        self.stats.page_writes += 1

    def _build_record(self, key: bytes, value: bytes
                      ) -> tuple[bytes, bytes, int]:
        """``(key, its record, the length of what the record stores)``."""
        if len(value) > self._overflow_threshold:
            head = self._pager.write_overflow(value)
            stored = _OVERFLOW_REF.pack(head, len(value))
            flag = _FLAG_OVERFLOW
        else:
            stored = value
            flag = _FLAG_LIVE
        record = bytes([flag]) + encode_varint(len(key)) + \
            encode_varint(len(stored)) + key + stored
        if len(record) > self._payload:
            raise KeyTooLargeError("record exceeds page payload")
        return key, record, len(stored)

    def _free_value(self, raw: bytes, entry: int) -> None:
        """Release the overflow pages of a record that is cut out."""
        if entry & _FLAG_MASK == _FLAG_OVERFLOW:
            self._pager.free_overflow(*_OVERFLOW_REF.unpack_from(
                raw, entry >> _VALUE_SHIFT & _OFFSET_MASK))

    def delete(self, key: bytes) -> bool:
        self._check_open()
        if self._pager.txn_depth == 0:
            self._meta_stale = True
        self.stats.deletes += 1
        for page_id, raw in self._chain(self._directory[self._bucket_of(key)]):
            entry = self._pages.locate(page_id, raw, key)
            if entry is not None:
                self._free_value(raw, entry)
                self._write_page(page_id, raw, {key: entry}, [])
                self._count -= 1
                return True
        return False

    def __len__(self) -> int:
        self._check_open()
        return self._count

    def sync(self) -> None:
        self._check_open()
        self._write_meta()
        self._pager.sync()

    # -- transactions ------------------------------------------------------

    def begin(self, label: bytes = b"") -> None:
        self._check_open()
        if self._pager.txn_depth == 0 and self._meta_stale:
            # Unjournaled writes defer the header to sync/close; make
            # the pre-image current before the transaction snapshots it.
            self._write_meta()
        self._pager.begin(label)

    def commit(self) -> None:
        self._check_open()
        if self._pager.txn_depth == 1:
            self._write_meta()  # count lands inside the commit group
        self._pager.commit()

    def abort(self) -> None:
        self._check_open()
        if self._pager.txn_depth == 0:
            return
        self._pager.abort()
        self._count = _unpack_meta(self._pager.meta)[3]
        self._directory = self._load_directory()

    def wal_info(self) -> dict[str, object]:
        return self._pager.wal_info()

    @property
    def pager(self):
        return self._pager

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> KVStore:
        self._check_open()
        if self._meta_stale:
            # Unjournaled writes defer the count to sync/close; the view
            # reads it from the header as of its pin.
            self._write_meta()
        return DiskHashSnapshot(self)

    def mvcc_info(self) -> dict[str, object]:
        return self._pager.mvcc_info()

    def current_version(self) -> int:
        return self._pager.current_version()

    def close(self) -> None:
        if not self._closed:
            self._write_meta()
            self._pager.close()
        super().close()


class DiskHashSnapshot(_ChainReads, ReadOnlySnapshot):
    """Read-only view of a :class:`DiskHashTable` pinned at one version.

    Directory, chain, and overflow pages are all read through the pinned
    :class:`~repro.storage.pager.PageReader`, so bucket chains stay
    coherent no matter how many record excisions, page reuses, or
    directory rewrites later commits perform.
    """

    def __init__(self, table: DiskHashTable) -> None:
        super().__init__()
        self._reader: PageReader = table._pager.reader()
        self._read_page = self._reader.read
        self._read_overflow = self._reader.read_overflow
        self._pages = table._pages
        self.version = self._reader.version
        self.stats = table.stats
        try:
            n_buckets, dir_first, n_dir_pages, count = _unpack_meta(
                self._reader.meta)
        except CorruptionError:
            self._reader.close()
            raise
        self._n_buckets = n_buckets
        self._count = count
        per_page = self._reader.page_size // 8
        directory: list[int] = []
        for page_id in range(dir_first, dir_first + n_dir_pages):
            raw = self._reader.read(page_id)
            directory.extend(struct.unpack_from(f"<{per_page}Q", raw, 0))
        self._directory = directory[:n_buckets]
        self._released = False

    def __len__(self) -> int:
        self._check_open()
        return self._count

    def close(self) -> None:
        if not self._released:
            self._released = True
            self._reader.close()
        super().close()

"""Paged-file manager underlying the disk-resident stores.

Provides fixed-size page allocation over a single file, a free list for
recycling pages, a small client metadata area in the header, and overflow
chains for values larger than a page.  The external hash table is built on
top of this class, mirroring the role Tokyo Cabinet's low-level file layer
played in the paper's implementation.

File layout::

    page 0:  header  [magic 4B][version u16][page_size u32][n_pages u64]
                     [free_head u64][meta_len u16][meta bytes ...]
    page 1+: client pages / free pages / overflow pages

Free pages store the id of the next free page in their first 8 bytes.
Overflow pages store ``[next u64][chunk...]``.

Durability: a :class:`~repro.storage.wal.WriteAheadLog` lives beside
the store file at ``<path>-wal`` and the pager exposes page-level
transactions (:meth:`begin` / :meth:`commit` / :meth:`abort`).  Inside a
transaction every page write is buffered in memory; :meth:`commit` logs
the post-image of each dirty page -- and of the header, as page 0, when
the transaction moved it -- as one fsynced WAL group *before* any of
them reaches the main file.  A logged group reaches the main file one
way, :meth:`_land`, whether it was just committed, replayed by
:meth:`__init__` after a crash (which also discards a torn tail) or
shipped from a primary (:meth:`apply_replicated_group`), so the store is
always observed either wholly pre- or wholly post-mutation.  Writes
outside a transaction bypass the log (bulk builds keep their
unjournaled speed).

Snapshots (MVCC): every committed transaction advances a monotonically
increasing *version*.  A reader calls :meth:`pin` (usually via
:meth:`reader`) to fix a version and then reads pages with
:meth:`read_at`, which serves the page contents as of that version no
matter how many commits have landed since.  The mechanism is
copy-on-write at commit: while any version is pinned, the commit's
landing first captures the *pre-image* of every page it is about to
overwrite into an in-memory history keyed ``page_id -> [(as_of_version,
bytes), ...]``.  ``read_at(page, v)`` returns the first history entry
whose ``as_of`` is ``>= v`` and falls through to the live file
otherwise (an unmodified page is identical at every pinned version).
Unpinning garbage-collects history entries older than the oldest
remaining pin; with no pins the history is empty and commits copy
nothing.  Readers therefore never wait on a writer's WAL fsync: the
commit point (the log append + fsync) runs outside the page I/O lock,
which protects only the microsecond-scale landing.

Zero-copy reads (mmap): the committed prefix of the file is mapped
read-only (``use_mmap=True``, the default) and clean-page reads --
:meth:`read` outside a transaction and the file-fallback of
:meth:`read_at` -- slice the mapping without taking ``_io_lock`` at
all, so concurrent readers stop serializing on seek+read pairs.  The
file is opened unbuffered (``buffering=0``): every ``write()`` is a
straight syscall into the kernel page cache, which a ``MAP_SHARED``
mapping of the same file observes immediately, so a reader can never
see stale bytes that are still sitting in a userspace buffer.
:meth:`read_at` stays snapshot-correct without the lock because
commits capture pre-images *before* overwriting pages: after copying
from the mapping the reader re-probes the history, and any commit
that could have raced the copy has already published the pre-image
this reader needs.  The mapping covers whole pages only; reads past
it (the file grew) fall back to the locked path, and the pager remaps
after growing commits (plus a chunked heuristic for unjournaled bulk
loads).  Superseded mappings are dropped, not closed -- a racing
reader's local reference keeps the old map valid until the GC unmaps
it.
"""

from __future__ import annotations

import mmap
import os
import struct
import threading

from .errors import CorruptionError, PageBoundsError, StorageError
from .faults import wrap_file
from .wal import (
    DEFAULT_CHECKPOINT_BYTES,
    WriteAheadLog,
    fsync_file,
    split_label,
)

MAGIC = b"NCPG"
VERSION = 1
DEFAULT_PAGE_SIZE = 4096
_HEADER_FMT = "<4sHIQQH"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)
#: The page id ahead of each page image in a logged record.
_PAGE_ID = struct.Struct("<Q")
#: Maximum client metadata stored in the header page.
MAX_META = 1024
#: Dirty-map key for the header page inside a transaction.
_HEADER_PAGE = 0
#: Unjournaled growth (in pages) past the mapped region before a read
#: miss triggers a remap; keeps bulk loads from remapping per page.
_REMAP_CHUNK_PAGES = 64


def wal_path(path: str) -> str:
    """The write-ahead-log path paired with a store file path."""
    return path + "-wal"


def parse_header(raw: bytes) -> tuple[int, int, int, bytes]:
    """``(page_size, n_pages, free_head, meta)`` from a raw header page.

    Used by the replication tier to read a store's geometry out of a
    shipped (or pinned) copy of page 0 without opening a pager on it.
    """
    if len(raw) < _HEADER_SIZE:
        raise CorruptionError("short header page")
    magic, version, page_size, n_pages, free_head, meta_len = \
        struct.unpack_from(_HEADER_FMT, raw, 0)
    if magic != MAGIC:
        raise CorruptionError("bad store magic in header page")
    if version != VERSION:
        raise CorruptionError(f"unsupported store version {version}")
    return page_size, n_pages, free_head, \
        raw[_HEADER_SIZE:_HEADER_SIZE + meta_len]


def _read_chain(read, page_size: int, head_page: int, length: int) -> bytes:
    """``length`` bytes of the overflow chain at ``head_page``, each page
    fetched by ``read``."""
    out = bytearray()
    page_id = head_page
    while len(out) < length:
        if page_id == 0:
            raise CorruptionError("overflow chain ended early")
        raw = read(page_id)
        page_id = _PAGE_ID.unpack_from(raw, 0)[0]
        out += raw[8:8 + min(page_size - 8, length - len(out))]
    return bytes(out)


def _pages_of(records: list[bytes]) -> list[tuple[int, bytes]]:
    """``(page_id, page)`` pairs of a logged group's records."""
    pages = []
    for record in records:
        if len(record) <= _PAGE_ID.size:
            raise CorruptionError("undersized page record in a logged group")
        pages.append((_PAGE_ID.unpack_from(record, 0)[0],
                      record[_PAGE_ID.size:]))
    return pages


class PageReader:
    """Read-only view of a paged file pinned at one version.

    Produced by :meth:`Pager.reader`; holds one pin on the pager's
    version and releases it on :meth:`close` (idempotent).  All reads go
    through :meth:`Pager.read_at`, so the view observes the file exactly
    as it was when the reader was opened, regardless of concurrent
    commits.
    """

    __slots__ = ("_pager", "version", "_released")

    def __init__(self, pager: "Pager", version: int) -> None:
        self._pager = pager
        self.version = version
        self._released = False

    @property
    def page_size(self) -> int:
        return self._pager.page_size

    @property
    def meta(self) -> bytes:
        """Client metadata as of the pinned version."""
        return self._pager.meta_at(self.version)

    def read(self, page_id: int) -> bytes:
        return self._pager.read_at(page_id, self.version)

    def read_overflow(self, head_page: int, length: int) -> bytes:
        """Versioned equivalent of :meth:`Pager.read_overflow`."""
        return _read_chain(self.read, self._pager.page_size, head_page,
                           length)

    def close(self) -> None:
        if not self._released:
            self._released = True
            self._pager.unpin(self.version)

    def __enter__(self) -> "PageReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class Pager:
    """Fixed-size page manager over one file descriptor."""

    def __init__(self, path: str, page_size: int = DEFAULT_PAGE_SIZE,
                 create: bool = False, *, use_mmap: bool = True) -> None:
        self.path = path
        # One file handle serves every page access; the reentrant lock
        # makes each seek+read / seek+write pair atomic so concurrent
        # readers never tear a page.  Commit durability (the WAL append
        # and fsync) happens *outside* this lock, so pinned readers only
        # ever wait for in-memory page copies, not for the disk.  Lock
        # order, outermost first: _commit_lock > _io_lock > _version_lock.
        self._io_lock = threading.RLock()
        self._commit_lock = threading.Lock()
        self._version_lock = threading.Lock()
        self._version = 0
        self._pins: dict[int, int] = {}
        self._history: dict[int, list[tuple[int, bytes]]] = {}
        self._txn_depth = 0
        self._txn_label = b""
        self._dirty: dict[int, bytes] = {}
        self._txn_snapshot: tuple[int, int, bytes] | None = None
        #: ``(n_pages, free_head, meta)`` as the file's header holds them.
        self._header_on_file: tuple[int, int, bytes] | None = None
        self.recovered_groups = 0
        self.discarded_groups = 0
        self._mmap_enabled = use_mmap
        self._mmap: mmap.mmap | None = None
        self._mapped_pages = 0
        # Unbuffered: writes must reach the kernel page cache at the
        # syscall, so the read-only mapping is always coherent with them.
        if create:
            self._file = wrap_file(open(path, "w+b", buffering=0),
                                   role="pager")
            self._wal = WriteAheadLog(wal_path(path), create=True)
            self.page_size = page_size
            self.n_pages = 1
            self._free_head = 0
            self._meta = b""
            self._write_header()
        else:
            if not os.path.exists(path):
                raise StorageError(f"no such store file: {path}")
            self._file = wrap_file(open(path, "r+b", buffering=0),
                                   role="pager")
            self._wal = WriteAheadLog(wal_path(path))
            self._recover()
            self._read_header()
        self._remap()
        self.page_reads = 0
        self.page_writes = 0

    # -- header -------------------------------------------------------------

    def _header_bytes(self) -> bytes:
        header = struct.pack(
            _HEADER_FMT, MAGIC, VERSION, self.page_size, self.n_pages,
            self._free_head, len(self._meta),
        ) + self._meta
        if len(header) > max(self.page_size, _HEADER_SIZE + MAX_META):
            raise StorageError("header metadata too large")
        return header.ljust(self.page_size, b"\x00")

    def _write_header(self) -> None:
        """Write the header page if it moved; inside a transaction the
        commit adds it to the group instead, once, if it moved."""
        with self._io_lock:
            state = (self.n_pages, self._free_head, self._meta)
            if self._txn_depth or state == self._header_on_file:
                return
            data = self._header_bytes()
            with self._version_lock:
                if self._pins:
                    self._capture_preimage(_HEADER_PAGE)
            self._file.seek(0)
            self._file.write(data)
            self._header_on_file = state

    def _read_header(self) -> None:
        self._file.seek(0)
        prefix = self._file.read(_HEADER_SIZE)
        if len(prefix) < _HEADER_SIZE:
            raise CorruptionError("store file too small for header")
        magic, version, page_size, n_pages, free_head, meta_len = struct.unpack(
            _HEADER_FMT, prefix)
        if magic != MAGIC:
            raise CorruptionError(f"bad magic in {self.path!r}")
        if version != VERSION:
            raise CorruptionError(f"unsupported store version {version}")
        self.page_size = page_size
        self.n_pages = n_pages
        self._free_head = free_head
        self._meta = self._file.read(meta_len)
        self._header_on_file = (n_pages, free_head, self._meta)

    @property
    def meta(self) -> bytes:
        """Client metadata blob stored in the header page."""
        return self._meta

    def set_meta(self, meta: bytes) -> None:
        """Persist up to :data:`MAX_META` bytes of client metadata."""
        if len(meta) > MAX_META:
            raise StorageError(f"metadata larger than {MAX_META} bytes")
        self._meta = bytes(meta)
        self._write_header()

    def meta_at(self, version: int) -> bytes:
        """Client metadata as of ``version`` (from the versioned header)."""
        raw = self.read_at(_HEADER_PAGE, version)
        magic, ver, _page_size, _n_pages, _free_head, meta_len = \
            struct.unpack_from(_HEADER_FMT, raw, 0)
        if magic != MAGIC or ver != VERSION:
            raise CorruptionError("bad header in versioned snapshot")
        return raw[_HEADER_SIZE:_HEADER_SIZE + meta_len]

    # -- versions / snapshots ------------------------------------------------

    @property
    def version(self) -> int:
        """The last committed version (0 before any commit this open)."""
        with self._version_lock:
            return self._version

    def pin(self) -> int:
        """Pin the current version; pages it covers stay readable until
        a matching :meth:`unpin`."""
        with self._version_lock:
            version = self._version
            self._pins[version] = self._pins.get(version, 0) + 1
            return version

    def unpin(self, version: int) -> None:
        """Release one pin on ``version`` and GC unreachable history."""
        with self._version_lock:
            count = self._pins.get(version, 0)
            if count > 1:
                self._pins[version] = count - 1
                return
            self._pins.pop(version, None)
            # Sweep pre-image history only when the oldest-pin floor
            # actually moved; an unconditional O(history) sweep per
            # unpin convoys snapshot-per-query readers on this lock.
            if not self._pins:
                if self._history:
                    self._history.clear()
            elif version < min(self._pins):
                self._gc_history()

    def current_version(self) -> int:
        """Lock-free read of the last committed version (hot path).

        Commits publish the bump as one attribute store, so a racing
        reader sees either the old or the new version -- both valid.
        """
        return self._version

    def reader(self) -> PageReader:
        """Pin the current version and return a read-only page view."""
        return PageReader(self, self.pin())

    # -- mmap read path ------------------------------------------------------

    def _remap(self) -> None:
        """(Re)map the file's whole-page prefix for lock-free reads.

        Called with ``_io_lock`` held (or before any concurrency, in
        ``__init__``).  The superseded mapping is only dereferenced --
        never closed -- so a reader that already fetched it keeps a
        valid buffer; the GC unmaps it once the last reference drops.
        A mapping failure (exotic filesystem, wrapped descriptor)
        degrades permanently to the locked read path.
        """
        if not self._mmap_enabled:
            return
        try:
            size = os.fstat(self._file.fileno()).st_size
        except (OSError, ValueError):  # pragma: no cover - closed race
            return
        pages = size // self.page_size
        if pages == 0 or (pages <= self._mapped_pages
                          and self._mmap is not None):
            return
        try:
            mapped = mmap.mmap(self._file.fileno(),
                               pages * self.page_size,
                               access=mmap.ACCESS_READ)
        except (OSError, ValueError):  # pragma: no cover - no mmap here
            self._mmap_enabled = False
            self._mmap = None
            self._mapped_pages = 0
            return
        self._mmap = mapped
        self._mapped_pages = pages

    def _mmap_read(self, page_id: int) -> bytes | None:
        """Copy one page out of the mapping without any lock, or None.

        Returns None when the page lies past the mapped prefix or the
        mapping was closed underneath us (shutdown race) -- callers fall
        back to the locked file path.
        """
        mapped = self._mmap
        if mapped is None or page_id >= self._mapped_pages:
            return None
        offset = page_id * self.page_size
        try:
            return mapped[offset:offset + self.page_size]
        except (ValueError, IndexError):  # pragma: no cover - close race
            return None

    @property
    def mmap_enabled(self) -> bool:
        """True while the lock-free mapped read path is active."""
        return self._mmap_enabled and self._mmap is not None

    def read_at(self, page_id: int, version: int) -> bytes:
        """Read a page as it was at ``version`` (header page 0 allowed).

        Served from the copy-on-write history when a later commit has
        overwritten the page, from the mapped file otherwise.  The
        mapped copy takes no lock; it is made snapshot-safe by re-probing
        the history *after* the copy: commits capture pre-images (under
        ``_version_lock``) before overwriting a page, so any overwrite
        that could have torn or outrun our copy has already published
        the pre-image this version needs -- the re-probe returns it.
        Reads past the mapped prefix fall back to the locked path, which
        re-runs the same double-check before touching the file.
        """
        with self._version_lock:
            data = self._history_lookup(page_id, version)
        if data is None:
            data = self._mmap_read(page_id)
            if data is not None:
                with self._version_lock:
                    overwritten = self._history_lookup(page_id, version)
                if overwritten is not None:
                    data = overwritten
        if data is None:
            with self._io_lock:
                with self._version_lock:
                    data = self._history_lookup(page_id, version)
                if data is None:
                    self._maybe_remap_for(page_id)
                    data = self._read_file_page(page_id)
        self.page_reads += 1
        return data

    def _maybe_remap_for(self, page_id: int) -> None:
        """Chunked remap heuristic for reads past the mapped prefix.

        Caller holds ``_io_lock``.  Journaled growth remaps at commit;
        this catches unjournaled bulk loads, where remapping on every
        fresh-page read would thrash -- so wait until the file has grown
        a chunk past the mapping.
        """
        if self._mmap_enabled and self._mmap is not None \
                and page_id >= self._mapped_pages \
                and self.n_pages >= self._mapped_pages + _REMAP_CHUNK_PAGES:
            self._remap()

    def _history_lookup(self, page_id: int, version: int) -> bytes | None:
        """First pre-image with ``as_of >= version`` (caller holds lock)."""
        entries = self._history.get(page_id)
        if not entries:
            return None
        for as_of, data in entries:
            if as_of >= version:
                return data
        return None

    def _capture_preimage(self, page_id: int) -> None:
        """Save the live page for pinned readers before overwriting it.

        Caller holds both ``_io_lock`` and ``_version_lock``.  At most
        one entry is captured per page per version: a second overwrite
        within the same version keeps the older (still correct) image.
        """
        entries = self._history.setdefault(page_id, [])
        if entries and entries[-1][0] >= self._version:
            return
        entries.append((self._version, self._read_file_page(page_id)))

    def _gc_history(self) -> None:
        """Drop history entries no pinned reader can observe (lock held)."""
        if not self._pins:
            if self._history:
                self._history.clear()
            return
        oldest = min(self._pins)
        for page_id in list(self._history):
            kept = [entry for entry in self._history[page_id]
                    if entry[0] >= oldest]
            if kept:
                self._history[page_id] = kept
            else:
                del self._history[page_id]

    def mvcc_info(self) -> dict[str, object]:
        """Snapshot bookkeeping for stats / ``nestcontain info``."""
        with self._version_lock:
            return {
                "snapshot_version": self._version,
                "oldest_pinned_version": (min(self._pins)
                                          if self._pins else None),
                "pinned_readers": sum(self._pins.values()),
                "history_pages": len(self._history),
                "mmap_enabled": self.mmap_enabled,
                "mapped_pages": self._mapped_pages,
            }

    # -- transactions --------------------------------------------------------

    @property
    def txn_depth(self) -> int:
        """Current transaction nesting depth (0 = autocommit)."""
        return self._txn_depth

    def begin(self, label: bytes = b"") -> None:
        """Open (or nest into) a page transaction."""
        with self._io_lock:
            if self._txn_depth == 0:
                self._txn_label = bytes(label)
                self._dirty = {}
                self._txn_snapshot = (self.n_pages, self._free_head,
                                      self._meta)
            self._txn_depth += 1

    def commit(self) -> None:
        """Close one nesting level; the outermost commit is the real one.

        The group of dirty post-image pages is appended to the WAL with a
        single write + fsync (the commit point), *then* landed on the
        main file (:meth:`_land`).  Transaction state is cleared before
        the landing: a crash mid-landing must be redone from the log on
        reopen, never rolled back.

        The WAL append runs outside the page I/O lock so pinned readers
        are never stalled behind the commit fsync.  Concurrent
        committers must be serialized by the caller (the engine's writer
        mutex does this).
        """
        with self._io_lock:
            if self._txn_depth == 0:
                raise StorageError("commit outside a transaction")
            if self._txn_depth > 1:
                self._txn_depth -= 1
                return
            dirty, label = self._dirty, self._txn_label
            if (self.n_pages, self._free_head, self._meta) \
                    != self._txn_snapshot:
                dirty[_HEADER_PAGE] = self._header_bytes()
            self._txn_depth = 0
            self._dirty = {}
            self._txn_snapshot = None
        if not dirty:
            return
        with self._commit_lock:
            with self._version_lock:
                version = self._version + 1
            pages = sorted(dirty.items())
            self._wal.commit(label, [_PAGE_ID.pack(page_id) + page
                                     for page_id, page in pages],
                             version=version)
            self._land(pages, version)
            self._after_landing()

    def abort(self) -> None:
        """Discard the whole transaction (all nesting levels) unapplied."""
        if self._txn_depth == 0:
            return
        with self._io_lock:
            n_pages, free_head, meta = \
                self._txn_snapshot  # type: ignore[misc]
            self.n_pages = n_pages
            self._free_head = free_head
            self._meta = meta
            self._txn_depth = 0
            self._dirty = {}
            self._txn_snapshot = None

    # -- landing logged groups -------------------------------------------------

    def _land(self, pages: list[tuple[int, bytes]], version: int) -> None:
        """Write one logged group's ``(page_id, page)`` post-images to the
        main file: the one path of a commit, a replayed group and a
        replicated one.

        Pre-images are captured for pinned readers first (copy-on-write);
        a header among the pages is absorbed (allocation state and
        client metadata); the version advances last, to ``version`` if
        that is higher, so a reader that pins mid-landing gets the old
        version and is fully served by history plus unmodified pages.
        The page size is each image's length: recovery lands groups
        before the header has been read.
        """
        with self._io_lock:
            with self._version_lock:
                if self._pins:
                    for page_id, _page in pages:
                        self._capture_preimage(page_id)
            for page_id, page in pages:
                self._file.seek(page_id * len(page))
                self._file.write(page)
                if page_id == _HEADER_PAGE:
                    self.page_size, self.n_pages, self._free_head, \
                        self._meta = parse_header(page)
                    self._header_on_file = (self.n_pages, self._free_head,
                                            self._meta)
            with self._version_lock:
                self._version = max(self._version, version)

    def _after_landing(self) -> None:
        """Map a file the landed group grew, and checkpoint a log past
        its threshold (caller holds ``_commit_lock``)."""
        with self._io_lock:
            self._remap()
        if self._wal.size > DEFAULT_CHECKPOINT_BYTES:
            # Flush under the I/O lock (it repositions the raw stream),
            # but fsync outside it so pinned readers are not stalled
            # behind the disk.
            with self._io_lock:
                self._file.flush()
            sync = getattr(self._file, "fsync", None)
            if sync is not None:
                sync()
            else:
                os.fsync(self._file.fileno())
            self._wal.checkpoint()

    def _recover(self) -> None:
        """Replay committed WAL groups into the main file, drop torn tail."""
        replayed, discarded = self._wal.recover(
            lambda label, records: self._land(
                _pages_of(records), split_label(label)[0] or 0))
        if replayed:
            fsync_file(self._file)
        if replayed or discarded or self._wal.pending_groups:
            self._wal.checkpoint()
        self.recovered_groups = replayed
        self.discarded_groups = discarded

    # -- replication ----------------------------------------------------------

    def adopt_version(self, version: int) -> None:
        """Raise the version counter to ``version`` (replica bootstrap).

        A freshly bootstrapped replica starts from a page-level copy of
        the primary, but its pager would otherwise count versions from
        zero; adopting the primary's snapshot version keeps subsequent
        replayed commits numbered exactly as on the primary.
        """
        with self._version_lock:
            if version > self._version:
                self._version = version

    def apply_replicated_group(self, label: bytes, records: list[bytes],
                               version: int) -> None:
        """Replay one shipped commit group as a local committed write.

        The group goes to the local WAL first (durability -- the label
        arrives already stamped with the primary's version/seq/term and
        is appended verbatim), then lands like a local commit
        (:meth:`_land`) at the primary's stamped ``version``, taking the
        primary's header with it -- snapshot reads on the replica stay
        consistent mid-replay exactly as they do on the primary.
        """
        pages = _pages_of(records)
        with self._commit_lock:
            self._wal.append_stamped(label, records)
            self._land(pages, version)
            self._after_landing()

    @property
    def wal(self) -> WriteAheadLog:
        """The underlying write-ahead log."""
        return self._wal

    def wal_info(self) -> dict[str, object]:
        """WAL description plus this open's recovery counts."""
        info = self._wal.describe()
        info["recovered_on_open"] = self.recovered_groups
        info["discarded_on_open"] = self.discarded_groups
        return info

    # -- page primitives ------------------------------------------------------

    def allocate(self) -> int:
        """Return the id of a page for the caller to write (recycled
        when possible).

        Only the counters move: the header reaches the file with the
        transaction's commit group, or on :meth:`set_meta` or
        :meth:`close`.
        """
        with self._io_lock:
            if self._free_head:
                page_id = self._free_head
                raw = self.read(page_id)
                self._free_head = struct.unpack_from("<Q", raw, 0)[0]
                return page_id
            page_id = self.n_pages
            self.n_pages += 1
            return page_id

    def free(self, page_id: int) -> None:
        """Return a page to the free list."""
        with self._io_lock:
            self._check_bounds(page_id)
            self.write(page_id, struct.pack("<Q", self._free_head))
            self._free_head = page_id

    def read(self, page_id: int) -> bytes:
        """Read a full page; short files are padded with zero bytes.

        Outside a transaction, clean pages inside the mapped prefix are
        copied straight from the mapping without taking ``_io_lock``.
        Callers that could race a concurrent commit's landing must
        use the versioned :meth:`read_at` (snapshot readers do); plain
        ``read`` is for the writer itself and for externally serialized
        access, exactly as before.
        """
        if not self._txn_depth:
            self._check_bounds(page_id)
            data = self._mmap_read(page_id)
            if data is not None:
                self.page_reads += 1
                return data
        with self._io_lock:
            self._check_bounds(page_id)
            self.page_reads += 1
            if self._txn_depth and page_id in self._dirty:
                return self._dirty[page_id]
            self._maybe_remap_for(page_id)
            return self._read_file_page(page_id)

    def _read_file_page(self, page_id: int) -> bytes:
        """One page from the file, zero-padded past its end (caller holds
        ``_io_lock``)."""
        self._file.seek(page_id * self.page_size)
        return self._file.read(self.page_size).ljust(self.page_size, b"\x00")

    def write(self, page_id: int, data: bytes) -> None:
        """Write ``data`` (padded/truncated to one page) at ``page_id``."""
        with self._io_lock:
            self._check_bounds(page_id)
            if len(data) > self.page_size:
                raise StorageError("page write larger than page size")
            self.page_writes += 1
            padded = data.ljust(self.page_size, b"\x00")
            if self._txn_depth:
                self._dirty[page_id] = padded
                return
            with self._version_lock:
                if self._pins:
                    self._capture_preimage(page_id)
            self._file.seek(page_id * self.page_size)
            self._file.write(padded)

    def _check_bounds(self, page_id: int) -> None:
        if page_id < 1 or page_id > self.n_pages:
            raise PageBoundsError(
                f"page {page_id} outside [1, {self.n_pages}]")

    # -- overflow chains ------------------------------------------------------

    def write_overflow(self, data: bytes) -> int:
        """Store ``data`` across a chain of overflow pages; returns head id."""
        chunk_size = self.page_size - 8
        chunks = [data[i:i + chunk_size] for i in range(0, len(data), chunk_size)]
        if not chunks:
            chunks = [b""]
        page_ids = [self.allocate() for _ in chunks]
        for index, chunk in enumerate(chunks):
            next_id = page_ids[index + 1] if index + 1 < len(page_ids) else 0
            self.write(page_ids[index], struct.pack("<Q", next_id) + chunk)
        return page_ids[0]

    def read_overflow(self, head_page: int, length: int) -> bytes:
        """Read ``length`` bytes back from an overflow chain."""
        return _read_chain(self.read, self.page_size, head_page, length)

    def free_overflow(self, head_page: int, length: int) -> None:
        """Release every page of an overflow chain back to the free list."""
        chunk_size = self.page_size - 8
        remaining = max(length, 1)
        page_id = head_page
        while remaining > 0 and page_id:
            raw = self.read(page_id)
            next_id = struct.unpack_from("<Q", raw, 0)[0]
            self.free(page_id)
            page_id = next_id
            remaining -= chunk_size

    # -- lifecycle -------------------------------------------------------------

    def sync(self) -> None:
        """fsync the underlying file (and checkpoint the WAL when idle)."""
        with self._io_lock:
            fsync_file(self._file)
        if self._txn_depth == 0 and self._wal.pending_groups:
            with self._commit_lock:
                self._wal.checkpoint()

    def close(self) -> None:
        """Flush the header and close the file (open transactions abort)."""
        with self._io_lock:
            mapped, self._mmap, self._mapped_pages = self._mmap, None, 0
            if mapped is not None:
                mapped.close()
            if not self._file.closed:
                if self._txn_depth:
                    self.abort()
                self._write_header()
                self._file.flush()
                if self._wal.pending_groups:
                    fsync_file(self._file)
                    self._wal.checkpoint()
                self._file.close()
            self._wal.close()

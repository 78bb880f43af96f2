"""The key-value store interface and the in-memory reference implementation.

The paper's implementation uses Tokyo Cabinet's external-memory hash table as
the storage engine for the inverted file (Section 5.1), with the engine's own
caching explicitly disabled.  We reproduce that design point with two
interchangeable stores:

* :class:`MemoryKVStore` -- a dict-backed store (values still pass through
  the byte codecs, so the access pattern matches the disk store),
* :class:`~repro.storage.diskhash.DiskHashTable` -- external hash table.

Both stores map ``bytes`` keys to ``bytes`` values and expose the same
mapping-flavored API, plus :class:`AccessStats` counters that the caching
experiments (Section 3.3 / Experiments 1-3) read.

Snapshots: :meth:`KVStore.snapshot` opens a read-only view pinned at the
store's current committed version.  The disk store implements it over
the pager's page-level copy-on-write history; :class:`MemoryKVStore`
keeps an equivalent key-level pre-image history here.  A store that
cannot pin a version (``mvcc_info()`` is ``None``) refuses to open one.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import StorageError, StoreClosedError


@dataclass
class AccessStats:
    """Operation counters maintained by every store.

    ``bytes_read``/``bytes_written`` count value payload traffic, which is
    the quantity the inverted-list cache of Section 3.3 avoids.
    """

    gets: int = 0
    hits: int = 0
    misses: int = 0
    puts: int = 0
    deletes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    page_reads: int = 0
    page_writes: int = 0

    def reset(self) -> None:
        """Zero all counters in place."""
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        """Return the counters as a plain dict (for reports)."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


class KVStore(ABC):
    """Abstract byte-oriented key-value store.

    Concrete stores must implement the five primitive operations; the
    convenience dunder methods are derived.  Stores are context managers and
    close their underlying resources on exit.
    """

    def __init__(self) -> None:
        self.stats = AccessStats()
        self._closed = False

    # -- primitives -------------------------------------------------------

    @abstractmethod
    def get(self, key: bytes) -> bytes | None:
        """Return the value for ``key`` or ``None`` when absent."""

    @abstractmethod
    def put(self, key: bytes, value: bytes) -> None:
        """Insert or replace the value for ``key``."""

    def put_many(self, pairs: Iterable[tuple[bytes, bytes]]) -> None:
        """Insert or replace the value of each ``(key, value)``; within
        one call the last value for a key wins.  One :meth:`put` a key
        by default; the disk store edits each page it changes once."""
        for key, value in dict(pairs).items():
            self.put(key, value)

    @abstractmethod
    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns True when a record was removed."""

    @abstractmethod
    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Iterate over all ``(key, value)`` pairs (unspecified order)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of live records."""

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release resources; subsequent operations raise StoreClosedError."""
        self._closed = True

    def sync(self) -> None:
        """Flush buffered writes to durable storage (no-op by default)."""

    # -- transactions ------------------------------------------------------

    def begin(self, label: bytes = b"") -> None:
        """Open (or nest into) an atomic write group (no-op by default).

        Disk stores route the group through their write-ahead log; the
        in-memory store buffers the group and applies it atomically on
        commit.  The default implementation accepts and ignores the
        calls -- callers can wrap mutations in :meth:`transaction`
        against any backend.
        """

    def commit(self) -> None:
        """Durably commit the innermost write group (no-op by default)."""

    def abort(self) -> None:
        """Discard the current write group unapplied (no-op by default)."""

    @contextmanager
    def transaction(self, label: bytes = b"") -> Iterator["KVStore"]:
        """Run a block of mutations as one atomic, recoverable group.

        Commits on normal exit, aborts if the block raises.  A failure
        *inside commit itself* (e.g. an injected crash) is not followed
        by an abort: the group may already be in the log, and recovery
        on reopen -- not rollback -- decides its fate.
        """
        self.begin(label)
        committed = False
        try:
            yield self
            committed = True
            self.commit()
        except BaseException:
            if not committed:
                self.abort()
            raise

    def wal_info(self) -> dict[str, object] | None:
        """Write-ahead-log state, or ``None`` for a store without one
        (the memory store)."""
        return None

    @property
    def pager(self):
        """The paged-file manager under this store, or ``None``.

        Replication replays shipped commit groups at the page level, so
        the tier needs the raw pager; memory stores have none.
        """
        return None

    def reload_meta(self) -> None:
        """Refresh in-memory state from persisted metadata.

        No-op by default.  Paged stores re-read their directory/root and
        counters after a replicated apply rewrote pages underneath them.
        """

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> "KVStore":
        """Open a read-only view pinned at the current committed version.

        The view keeps observing the pinned version while later commits
        land; it must be :meth:`close`\\ d to release its pin.  A store
        without MVCC support (``mvcc_info()`` is ``None``) raises
        :class:`StorageError`.
        """
        raise StorageError(f"{type(self).__name__} cannot pin a version")

    def mvcc_info(self) -> dict[str, object] | None:
        """Version bookkeeping for stats, or ``None`` without MVCC."""
        return None

    def current_version(self) -> int | None:
        """The last committed version, or ``None`` without MVCC.

        Unlike :meth:`mvcc_info` this is a hot-path accessor: readers
        call it per query to decide whether a cached snapshot is still
        current, so implementations must keep it near-free (an attribute
        read, not a locked dict build).
        """
        return None

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("store is closed")

    # -- derived conveniences ----------------------------------------------

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def __getitem__(self, key: bytes) -> bytes:
        value = self.get(key)
        if value is None:
            raise KeyError(key)
        return value

    def __setitem__(self, key: bytes, value: bytes) -> None:
        self.put(key, value)

    def __delitem__(self, key: bytes) -> None:
        if not self.delete(key):
            raise KeyError(key)

    def keys(self) -> Iterator[bytes]:
        for key, _ in self.items():
            yield key

    def __enter__(self) -> "KVStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ReadOnlySnapshot(KVStore):
    """Base class for snapshot views: mutations always raise.

    Subclasses implement the read side; ``stats`` is shared with the
    backing store so cache-experiment counters keep aggregating in one
    place no matter how many snapshots served the reads.
    """

    #: The pinned version.
    version: int = 0

    def put(self, key: bytes, value: bytes) -> None:
        raise StorageError("snapshot views are read-only")

    def put_many(self, pairs: Iterable[tuple[bytes, bytes]]) -> None:
        raise StorageError("snapshot views are read-only")

    def delete(self, key: bytes) -> bool:
        raise StorageError("snapshot views are read-only")

    def begin(self, label: bytes = b"") -> None:
        raise StorageError("snapshot views are read-only")

    def sync(self) -> None:  # nothing buffered, nothing to flush
        pass


class MemoryKVStore(KVStore):
    """Dict-backed store.

    Values are stored as the raw bytes handed in, so the cost profile seen
    by the index layer (encode on write, decode on read) is identical to the
    disk store minus the I/O -- which makes the caching optimization
    measurable on a level playing field.

    Transactions buffer their writes and apply them atomically at the
    outermost commit, bumping the store version; :meth:`snapshot` pins a
    version and keeps serving it from a key-level pre-image history
    (the in-memory analogue of the pager's page-level copy-on-write),
    garbage-collected as pins drain.
    """

    def __init__(self) -> None:
        super().__init__()
        self._data: dict[bytes, bytes] = {}
        self._lock = threading.RLock()
        self._version = 0
        self._pins: dict[int, int] = {}
        # key -> [(as_of_version, value-or-None)] ascending; None = absent.
        self._history: dict[bytes, list[tuple[int, bytes | None]]] = {}
        self._txn_depth = 0
        # key -> buffered value (None = buffered delete), insertion order.
        self._txn_ops: dict[bytes, bytes | None] = {}

    # -- primitives --------------------------------------------------------

    def get(self, key: bytes) -> bytes | None:
        self._check_open()
        self.stats.gets += 1
        with self._lock:
            key = bytes(key)
            if self._txn_depth and key in self._txn_ops:
                value = self._txn_ops[key]
            else:
                value = self._data.get(key)
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
            self.stats.bytes_read += len(value)
        return value

    def put(self, key: bytes, value: bytes) -> None:
        self._check_open()
        self.stats.puts += 1
        self.stats.bytes_written += len(value)
        with self._lock:
            key, value = bytes(key), bytes(value)
            if self._txn_depth:
                self._txn_ops[key] = value
                return
            if self._pins:
                self._capture(key)
            self._data[key] = value

    def delete(self, key: bytes) -> bool:
        self._check_open()
        self.stats.deletes += 1
        with self._lock:
            key = bytes(key)
            if self._txn_depth:
                present = (self._txn_ops[key] is not None
                           if key in self._txn_ops
                           else key in self._data)
                if not present:
                    return False
                self._txn_ops[key] = None
                return True
            if key not in self._data:
                return False
            if self._pins:
                self._capture(key)
            del self._data[key]
            return True

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        self._check_open()
        with self._lock:
            if self._txn_depth:
                merged = dict(self._data)
                for key, value in self._txn_ops.items():
                    if value is None:
                        merged.pop(key, None)
                    else:
                        merged[key] = value
                snapshot = list(merged.items())
            else:
                snapshot = list(self._data.items())
        yield from snapshot

    def __len__(self) -> int:
        self._check_open()
        with self._lock:
            if not self._txn_depth:
                return len(self._data)
            return sum(1 for _ in self.items())

    # -- transactions ------------------------------------------------------

    def begin(self, label: bytes = b"") -> None:
        self._check_open()
        with self._lock:
            if self._txn_depth == 0:
                self._txn_ops = {}
            self._txn_depth += 1

    def commit(self) -> None:
        self._check_open()
        with self._lock:
            if self._txn_depth == 0:
                raise StorageError("commit outside a transaction")
            if self._txn_depth > 1:
                self._txn_depth -= 1
                return
            ops = self._txn_ops
            self._txn_depth = 0
            self._txn_ops = {}
            if not ops:
                return
            # Capture pre-images, apply the batch, and advance the
            # version in one critical section: a reader pinning
            # concurrently sees either none of the group or all of it.
            if self._pins:
                for key in ops:
                    self._capture(key)
            for key, value in ops.items():
                if value is None:
                    self._data.pop(key, None)
                else:
                    self._data[key] = value
            self._version += 1

    def abort(self) -> None:
        with self._lock:
            if self._txn_depth == 0:
                return
            self._txn_depth = 0
            self._txn_ops = {}

    # -- snapshots ---------------------------------------------------------

    def pin(self) -> int:
        with self._lock:
            version = self._version
            self._pins[version] = self._pins.get(version, 0) + 1
            return version

    def unpin(self, version: int) -> None:
        with self._lock:
            count = self._pins.get(version, 0)
            if count > 1:
                self._pins[version] = count - 1
                return
            self._pins.pop(version, None)
            # Sweep the pre-image history only when the oldest-pin floor
            # actually moved: snapshot-per-query readers unpin thousands
            # of times a second, and an unconditional O(history) sweep
            # under the store lock starves writers.
            if not self._pins:
                self._history.clear()
            elif version < min(self._pins):
                self._gc_history()

    def _capture(self, key: bytes) -> None:
        """Record the live value for pinned readers (lock held)."""
        entries = self._history.setdefault(key, [])
        if entries and entries[-1][0] >= self._version:
            return
        entries.append((self._version, self._data.get(key)))

    def _gc_history(self) -> None:
        if not self._pins:
            if self._history:
                self._history.clear()
            return
        oldest = min(self._pins)
        for key in list(self._history):
            kept = [entry for entry in self._history[key]
                    if entry[0] >= oldest]
            if kept:
                self._history[key] = kept
            else:
                del self._history[key]

    def get_at(self, key: bytes, version: int) -> bytes | None:
        """The value of ``key`` as of pinned ``version``.

        Lock-free optimistic read: snapshot readers call this for every
        key they touch, and taking the store lock here convoys with the
        writer (a barging RLock plus the GIL starves ``put`` almost
        completely under reader pressure).  Safe without the lock
        because history entries are immutable once appended and a commit
        captures pre-images *before* applying its ops: a scan hit is
        always the correct pre-image, and a scan miss is validated by
        re-reading the store version -- if a commit interleaved, retry.
        """
        key = bytes(key)
        while True:
            start = self._version
            entries = self._history.get(key)
            if entries:
                for as_of, value in entries:
                    if as_of >= version:
                        return value
            value = self._data.get(key)
            if self._version == start:
                return value

    def items_at(self, version: int) -> list[tuple[bytes, bytes]]:
        """All live ``(key, value)`` pairs as of pinned ``version``."""
        with self._lock:
            merged = dict(self._data)
            for key, entries in self._history.items():
                for as_of, value in entries:
                    if as_of >= version:
                        if value is None:
                            merged.pop(key, None)
                        else:
                            merged[key] = value
                        break
            return list(merged.items())

    def snapshot(self) -> KVStore:
        self._check_open()
        return MemorySnapshot(self)

    def current_version(self) -> int:
        # Plain attribute read: commits publish the bump last, so a
        # racing reader sees either the old or the new version, both of
        # which are servable snapshots.
        return self._version

    def mvcc_info(self) -> dict[str, object]:
        with self._lock:
            return {
                "snapshot_version": self._version,
                "oldest_pinned_version": (min(self._pins)
                                          if self._pins else None),
                "pinned_readers": sum(self._pins.values()),
                "history_pages": len(self._history),
            }


class MemorySnapshot(ReadOnlySnapshot):
    """Read-only view of a :class:`MemoryKVStore` pinned at one version."""

    def __init__(self, base: MemoryKVStore) -> None:
        super().__init__()
        self._base = base
        self.version = base.pin()
        self.stats = base.stats
        self._released = False

    def get(self, key: bytes) -> bytes | None:
        self._check_open()
        self.stats.gets += 1
        value = self._base.get_at(key, self.version)
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
            self.stats.bytes_read += len(value)
        return value

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        self._check_open()
        yield from self._base.items_at(self.version)

    def __len__(self) -> int:
        self._check_open()
        return len(self._base.items_at(self.version))

    def close(self) -> None:
        if not self._released:
            self._released = True
            self._base.unpin(self.version)
        super().close()

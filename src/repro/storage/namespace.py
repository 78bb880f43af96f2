"""Key-namespaced views over one physical store.

A sharded index (:mod:`repro.core.shard`) keeps N independent inverted
files inside a *single* physical store -- one file on disk, one
persistence lifecycle -- by giving every shard its own key namespace.
:class:`NamespacedStore` is that view: a :class:`KVStore` whose keys are
transparently prefixed before they reach the base store, so the inverted
file layer (and everything above it) runs unmodified against a slice of
the shared key space.

Closing a view never closes the base store: the owner of the base store
(the sharded index) closes it once, after all views are done.  Prefixes
must be prefix-free with respect to each other (the shard layer uses
``x<i>:``, which is -- the digits end at the colon).
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import ContextManager, Iterable, Iterator

from .kvstore import KVStore


class NamespacedStore(KVStore):
    """A prefix-scoped view of another store.

    Operation counters are maintained both here (per-namespace, what the
    per-shard statistics report) and on the base store (aggregate
    physical traffic).

    ``lock``: when several views over one *disk* store are driven from
    different threads (a server's request threads reading a sharded
    index side by side), the views must share one lock -- the
    paged-file stores seek and read on a single file handle.  Views over the in-memory store can go without
    (dict operations are atomic under the GIL).
    """

    def __init__(self, base: KVStore, prefix: bytes,
                 lock: "threading.Lock | None" = None) -> None:
        super().__init__()
        if not prefix:
            raise ValueError("namespace prefix must be non-empty")
        self._base = base
        self._prefix = bytes(prefix)
        self._lock: ContextManager[object] = (
            lock if lock is not None else nullcontext())

    @property
    def base(self) -> KVStore:
        """The shared underlying store."""
        return self._base

    @property
    def prefix(self) -> bytes:
        return self._prefix

    # -- primitives -------------------------------------------------------

    def get(self, key: bytes) -> bytes | None:
        self._check_open()
        self.stats.gets += 1
        with self._lock:
            value = self._base.get(self._prefix + key)
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
            self.stats.bytes_read += len(value)
        return value

    def put(self, key: bytes, value: bytes) -> None:
        self.put_many(((key, value),))

    def put_many(self, pairs: Iterable[tuple[bytes, bytes]]) -> None:
        self._check_open()
        prefixed = {self._prefix + key: value for key, value in pairs}
        self.stats.puts += len(prefixed)
        self.stats.bytes_written += sum(map(len, prefixed.values()))
        with self._lock:
            self._base.put_many(prefixed.items())

    def delete(self, key: bytes) -> bool:
        self._check_open()
        self.stats.deletes += 1
        with self._lock:
            return self._base.delete(self._prefix + key)

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        self._check_open()
        cut = len(self._prefix)
        for key, value in self._base.items():
            if key.startswith(self._prefix):
                yield key[cut:], value

    def __len__(self) -> int:
        self._check_open()
        return sum(1 for _ in self.items())

    # -- transactions ------------------------------------------------------
    # All views over one base store share its single write-ahead log, so
    # a transaction begun through any view commits at the base: a sharded
    # mutation is one atomic group no matter which shard it routed to.

    def begin(self, label: bytes = b"") -> None:
        self._check_open()
        with self._lock:
            self._base.begin(label)

    def commit(self) -> None:
        self._check_open()
        with self._lock:
            self._base.commit()

    def abort(self) -> None:
        self._check_open()
        with self._lock:
            self._base.abort()

    def wal_info(self) -> dict[str, object] | None:
        return self._base.wal_info()

    @property
    def pager(self):
        return self._base.pager

    def reload_meta(self) -> None:
        self._base.reload_meta()

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> KVStore:
        """A view of this namespace pinned at the base store's version.

        Pins the *base* store once; the returned view owns that pin and
        releases it on close (unlike a plain view, whose close leaves
        the base alone).  Several shards sharing one pinned base
        snapshot instead use :class:`NamespacedStore` directly over it.
        """
        self._check_open()
        snap = _NamespacedSnapshot(self._base.snapshot(), self._prefix)
        snap.stats = self.stats  # keep per-namespace counters aggregating
        return snap

    def mvcc_info(self) -> dict[str, object] | None:
        return self._base.mvcc_info()

    def current_version(self) -> int | None:
        return self._base.current_version()

    # -- lifecycle ---------------------------------------------------------

    def sync(self) -> None:
        with self._lock:
            self._base.sync()

    def close(self) -> None:
        """Close this view only; the base store stays open."""
        super().close()


class _NamespacedSnapshot(NamespacedStore):
    """A namespaced view that owns (and closes) its base-store snapshot."""

    @property
    def version(self) -> int:
        return getattr(self._base, "version", 0)

    def close(self) -> None:
        if not self._closed:
            self._base.close()
        KVStore.close(self)

"""Storage substrate: Tokyo-Cabinet-style key-value engines.

Exports the :class:`KVStore` interface, its two implementations (an
in-memory dict and the disk hash table), and the :func:`open_store`
factory used by the index layer.
"""

from __future__ import annotations

import os

from .codec import (
    Posting,
    decode_postings,
    decode_str,
    decode_uint_list,
    decode_varint,
    encode_postings,
    encode_str,
    encode_uint_list,
    encode_varint,
)
from .diskhash import DiskHashTable
from .errors import (
    CorruptionError,
    KeyTooLargeError,
    PageBoundsError,
    StorageError,
    StoreClosedError,
)
from .faults import CrashError, FaultPlan, FaultyPager, inject
from .kvstore import AccessStats, KVStore, MemoryKVStore, ReadOnlySnapshot
from .namespace import NamespacedStore
from .pager import Pager, PageReader, wal_path
from .wal import WriteAheadLog, sidecar_path

#: Storage engine names accepted by :func:`open_store`.
STORAGE_KINDS = ("memory", "diskhash")


def _remove_stale(path: str) -> None:
    """Drop a previous incarnation's store file, WAL, and sidecars."""
    for stale in (path, wal_path(path), sidecar_path(wal_path(path))):
        if os.path.exists(stale):
            os.remove(stale)


def open_store(kind: str, path: str | None = None, *,
               create: bool = False, **options: object) -> KVStore:
    """Open (or create) a key-value store of the given ``kind``.

    ``path`` is required for ``diskhash``.  Extra options are forwarded
    to the store constructor (e.g. ``n_buckets``, ``page_size``).
    """
    if kind not in STORAGE_KINDS:
        raise StorageError(f"unknown storage kind {kind!r}; "
                           f"expected one of {STORAGE_KINDS}")
    if kind == "memory":
        return MemoryKVStore()
    if path is None:
        raise StorageError(f"storage kind {kind!r} requires a path")
    if create:
        _remove_stale(path)
    return DiskHashTable(path, create=create, **options)  # type: ignore[arg-type]


__all__ = [
    "AccessStats",
    "CorruptionError",
    "CrashError",
    "DiskHashTable",
    "FaultPlan",
    "FaultyPager",
    "KVStore",
    "KeyTooLargeError",
    "MemoryKVStore",
    "NamespacedStore",
    "Pager",
    "PageReader",
    "ReadOnlySnapshot",
    "PageBoundsError",
    "Posting",
    "STORAGE_KINDS",
    "StorageError",
    "StoreClosedError",
    "WriteAheadLog",
    "decode_postings",
    "decode_str",
    "decode_uint_list",
    "decode_varint",
    "encode_postings",
    "encode_str",
    "encode_uint_list",
    "encode_varint",
    "inject",
    "open_store",
    "wal_path",
]

"""Partitioning: who owns a record, and where a partition's keys live.

A :class:`~repro.core.engine.NestedSetIndex` holds N >= 1 independent
inverted files.  With N = 1 the one file owns the store's whole key
space -- the paper's monolithic inverted file.  With N > 1 the files
live side by side in **one** physical store under per-partition key
namespaces (:class:`~repro.storage.NamespacedStore`, ``x<i>:``), and a
manifest key records how many there are.  This module is everything
that is about the *layout* and nothing that is about evaluation:

* the routing, :func:`shard_of` -- each record key belongs to exactly
  one partition, which is what makes the merged answer of a fan-out
  exact and what lets an update touch only its owner;
* the manifest (:func:`read_manifest` / :func:`commit_manifest`), always
  written *last*, so a store never names partitions that are half built;
* :func:`partition_stores`, the one mapping from a base store and what
  its manifest says to the store each partition reads and writes.

Why partition at all on one machine?  Two reasons the paper's one
inverted file cannot offer: **update locality** (an insert or delete
touches one partition, so the other ``N-1`` warmed block caches
survive it) and **bounded build memory** (bulk loading
splits the posting buffer across the partition builds).
"""

from __future__ import annotations

import threading
import zlib

from ..storage import (
    KVStore,
    MemoryKVStore,
    NamespacedStore,
    decode_varint,
    encode_varint,
)

__all__ = [
    "MANIFEST_KEY",
    "ROUTING",
    "ShardError",
    "commit_manifest",
    "partition_stores",
    "read_manifest",
    "shard_of",
    "write_manifest",
]


class ShardError(Exception):
    """Sharding configuration or routing failure."""


#: The routing's name in the manifest, the only one an index opens.
ROUTING = "hash"


def shard_of(key: str, n_shards: int) -> int:
    """The partition that owns ``key``: CRC-32 of the key, modulo N.

    CRC-32 rather than :func:`hash`, so the assignment is identical
    across processes (``PYTHONHASHSEED`` randomises ``hash`` for
    strings): a persisted index routes a later ``delete`` to the
    partition that ``build`` picked.
    """
    return zlib.crc32(key.encode("utf-8")) % n_shards


# -- manifest ----------------------------------------------------------------

#: Base-store key carrying the shard layout.  ``X:`` collides with no
#: per-shard namespace (those are ``x<i>:``) and no inverted-file prefix.
MANIFEST_KEY = b"X:shards"


def write_manifest(store: KVStore, n_shards: int, routing: str) -> None:
    """Persist the shard layout on the *base* store under a routing
    name (an index writes :data:`ROUTING`)."""
    payload = encode_varint(n_shards)
    name = routing.encode("utf-8")
    payload += encode_varint(len(name)) + name
    store.put(MANIFEST_KEY, payload)


def commit_manifest(store: KVStore, n_shards: int) -> None:
    """Durably publish the shard layout as the *last* step of a build.

    The shard contents are flushed first; the manifest write itself
    rides one WAL commit group (a no-op on non-journaled stores), so a
    crash before this point leaves a store without a manifest -- never a
    manifest pointing at half-built shards.
    """
    store.sync()
    with store.transaction(b"manifest"):
        write_manifest(store, n_shards, ROUTING)


def read_manifest(store: KVStore) -> int | None:
    """The partition count of a base store, or ``None`` when the store
    holds one un-namespaced inverted file.

    A manifest naming another routing than :data:`ROUTING` is refused:
    its records are not where :func:`shard_of` looks for them.
    """
    raw = store.get(MANIFEST_KEY)
    if raw is None:
        return None
    n_shards, pos = decode_varint(raw, 0)
    name_len, pos = decode_varint(raw, pos)
    routing = raw[pos:pos + name_len].decode("utf-8")
    if routing != ROUTING:
        raise ShardError(f"store partitioned by {routing!r}; only "
                         f"{ROUTING!r} routing opens")
    return n_shards


def _shard_prefix(shard_no: int) -> bytes:
    # Prefix-free across shards: the digits end at the colon.
    return b"x%d:" % shard_no



def partition_stores(base: KVStore, n_shards: int | None, *,
                     pinned: bool = False) -> list[KVStore]:
    """The store of each partition, given what ``base``'s manifest says.

    No manifest (``n_shards`` is ``None``): the one partition owns the
    base store itself.  A manifest naming ``n_shards``: one namespaced
    view each.  Live views over a disk base share one lock (one seeking
    file handle); views over a ``pinned`` snapshot of it read through
    the pager's version store and need none.
    """
    if n_shards is None:
        return [base]
    lock = None if pinned or isinstance(base, MemoryKVStore) \
        else threading.Lock()
    return [NamespacedStore(base, _shard_prefix(shard_no), lock=lock)
            for shard_no in range(n_shards)]

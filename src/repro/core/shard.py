"""Partitioning: who owns a record, and where a partition's keys live.

A :class:`~repro.core.engine.NestedSetIndex` holds N >= 1 independent
inverted files.  With N = 1 the one file owns the store's whole key
space -- the paper's monolithic inverted file.  With N > 1 the files
live side by side in **one** physical store under per-partition key
namespaces (:class:`~repro.storage.NamespacedStore`, ``x<i>:``), and a
manifest key records how many there are and which policy assigned the
records.  This module is everything that is about the *layout* and
nothing that is about evaluation:

* the partitioning policies (``shard_of(key, n_shards)``) and their
  registry -- each record key belongs to exactly one partition, which is
  what makes the merged answer of a fan-out exact;
* the manifest (:func:`read_manifest` / :func:`commit_manifest`), always
  written *last*, so a store never names partitions that are half built;
* :func:`partition_stores`, the one mapping from a base store and what
  its manifest says to the store each partition reads and writes.

Why partition at all on one machine?  Two reasons the paper's one
inverted file cannot offer: **update locality** (an insert or delete
touches one partition, so the other ``N-1`` result caches and warmed
list caches survive it) and **bounded build memory** (bulk loading
splits the posting buffer across the partition builds).
"""

from __future__ import annotations

import threading
import zlib
from typing import Callable

from ..storage import (
    KVStore,
    MemoryKVStore,
    NamespacedStore,
    decode_varint,
    encode_varint,
)

__all__ = [
    "HashShardPolicy",
    "MANIFEST_KEY",
    "POLICIES",
    "RoundRobinShardPolicy",
    "ShardError",
    "commit_manifest",
    "make_policy",
    "partition_stores",
    "read_manifest",
    "register_policy",
    "write_manifest",
]


class ShardError(Exception):
    """Sharding configuration or routing failure."""


# -- partitioning policies --------------------------------------------------


class HashShardPolicy:
    """Default policy: stable hash of the record key, modulo shard count.

    Uses CRC-32 rather than :func:`hash` so the record→shard assignment
    is identical across processes (``PYTHONHASHSEED`` randomises ``hash``
    for strings); a persisted sharded index must route a later ``delete``
    to the same shard that ``build`` picked.
    """

    name = "hash"

    def shard_of(self, key: str, n_shards: int) -> int:
        return zlib.crc32(key.encode("utf-8")) % n_shards


class RoundRobinShardPolicy:
    """Balance-first policy: records go to shards in arrival order.

    Gives perfectly even shard sizes but is **not** key-deterministic,
    so routed single-record updates fall back to a key lookup across
    shards (delete) or the hash of the key (insert).  Useful for bulk
    workloads where balance matters more than routing.
    """

    name = "roundrobin"

    def __init__(self) -> None:
        self._next = 0

    def shard_of(self, key: str, n_shards: int) -> int:
        shard = self._next % n_shards
        self._next += 1
        return shard


#: Registered policy constructors, keyed by manifest name.
POLICIES: dict[str, Callable[[], object]] = {
    HashShardPolicy.name: HashShardPolicy,
    RoundRobinShardPolicy.name: RoundRobinShardPolicy,
}


def register_policy(name: str, factory: Callable[[], object]) -> None:
    """Register a custom partitioning policy under a manifest name.

    The factory must build objects exposing ``shard_of(key, n_shards)``
    and a ``name`` attribute equal to ``name`` (the manifest persists
    the name, and opening the index resolves it through this
    registry).
    """
    POLICIES[name] = factory


def make_policy(spec: object) -> object:
    """Resolve a policy spec: a registered name or a policy object."""
    if isinstance(spec, str):
        try:
            return POLICIES[spec]()
        except KeyError:
            raise ShardError(
                f"unknown shard policy {spec!r}; registered: "
                f"{sorted(POLICIES)}") from None
    if not hasattr(spec, "shard_of") or not hasattr(spec, "name"):
        raise ShardError("a shard policy needs shard_of(key, n_shards) "
                         "and a name attribute")
    return spec


# -- manifest ----------------------------------------------------------------

#: Base-store key carrying the shard layout.  ``X:`` collides with no
#: per-shard namespace (those are ``x<i>:``) and no inverted-file prefix.
MANIFEST_KEY = b"X:shards"


def write_manifest(store: KVStore, n_shards: int, policy_name: str) -> None:
    """Persist the shard layout on the *base* store."""
    payload = encode_varint(n_shards)
    name = policy_name.encode("utf-8")
    payload += encode_varint(len(name)) + name
    store.put(MANIFEST_KEY, payload)


def commit_manifest(store: KVStore, n_shards: int,
                     policy_name: str) -> None:
    """Durably publish the shard layout as the *last* step of a build.

    The shard contents are flushed first; the manifest write itself
    rides one WAL commit group (a no-op on non-journaled stores), so a
    crash before this point leaves a store without a manifest -- never a
    manifest pointing at half-built shards.
    """
    store.sync()
    with store.transaction(b"manifest"):
        write_manifest(store, n_shards, policy_name)


def read_manifest(store: KVStore) -> tuple[int, str] | None:
    """``(n_shards, policy name)`` of a base store, or ``None`` when the
    store holds one un-namespaced inverted file."""
    raw = store.get(MANIFEST_KEY)
    if raw is None:
        return None
    n_shards, pos = decode_varint(raw, 0)
    name_len, pos = decode_varint(raw, pos)
    policy_name = raw[pos:pos + name_len].decode("utf-8")
    return n_shards, policy_name


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

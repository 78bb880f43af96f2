"""Whole-query result caching with update invalidation.

The paper's Section 3.3 cache operates on posting lists; the future-work
list (6) suggests caching "with respect to an evolving query workload".
:class:`ResultCache` is the coarsest point on that spectrum: an LRU map
from ``(query, evaluation options)`` to the final key list.  It pays off
when a workload repeats whole queries (dashboards, polling agents) and
is trivially correct because nested sets are immutable values -- the only
invalidation events are index mutations.

Under MVCC snapshot reads the engine scopes every entry to the snapshot
version it was computed at (:meth:`ResultCache.at_version`): a commit
starts answering under a fresh version key, so nothing is invalidated
for in-flight readers, stale entries age out of the LRU, and -- the race
the old invalidate-on-write protocol had -- a slow reader finishing
*after* a delete can only re-populate its own (old) version's entry,
never the answer served to new readers.  :meth:`invalidate_all` remains
for stores without version support.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from .model import NestedSet


@dataclass
class ResultCacheStats:
    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


#: Cache key: the query value plus every option that affects the answer.
CacheKey = tuple


def make_key(query: NestedSet, algorithm: str, semantics: str, join: str,
             epsilon: int, mode: str, *, use_bloom: bool = False) -> CacheKey:
    """Options are part of the key; different algorithms return equal
    results but are kept distinct so stats reflect what actually ran.

    ``use_bloom`` never changes the answer either, but keying it keeps
    the hit statistics honest -- and lets Bloom queries use the cache at
    all instead of silently bypassing it.
    """
    return (query, algorithm, semantics, join, epsilon, mode, use_bloom)


class ResultCache:
    """LRU cache of complete query results."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.stats = ResultCacheStats()
        # Concurrent readers share one cache under the query service;
        # the lock keeps LRU bookkeeping and eviction race-free.
        self._lock = threading.Lock()
        self._entries: OrderedDict[CacheKey, list[str]] = OrderedDict()

    def get(self, key: CacheKey) -> list[str] | None:
        with self._lock:
            cached = self._entries.get(key)
            if cached is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return list(cached)  # defensive copy: callers may mutate

    def put(self, key: CacheKey, result: list[str]) -> None:
        with self._lock:
            self._entries[key] = list(result)
            self._entries.move_to_end(key)
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def invalidate_all(self) -> None:
        """Drop everything (any index mutation may change any answer)."""
        with self._lock:
            if self._entries:
                self.stats.invalidations += 1
            self._entries.clear()

    def at_version(self, version: int) -> "VersionedResultCache":
        """A view whose entries are scoped to one snapshot version."""
        return VersionedResultCache(self, version)

    def __len__(self) -> int:
        return len(self._entries)


class VersionedResultCache:
    """Version-scoped facade over a shared :class:`ResultCache`.

    Execution contexts built from a snapshot use this view, so a result
    computed at version ``v`` is only ever served to readers pinned at
    ``v`` -- the cache needs no invalidation on commit at all.
    """

    __slots__ = ("_cache", "version")

    def __init__(self, cache: ResultCache, version: int) -> None:
        self._cache = cache
        self.version = version

    @property
    def stats(self) -> ResultCacheStats:
        return self._cache.stats

    def get(self, key: CacheKey) -> list[str] | None:
        return self._cache.get((self.version,) + tuple(key))

    def put(self, key: CacheKey, result: list[str]) -> None:
        self._cache.put((self.version,) + tuple(key), result)

    def invalidate_all(self) -> None:
        self._cache.invalidate_all()

    def __len__(self) -> int:
        return len(self._cache)


class ResultCacheGroup:
    """Aggregate view over the per-partition result caches of one index.

    The read surface callers use (``stats``, ``invalidate_all``,
    ``len``); the caches themselves stay per partition, so a mutation of
    one partition leaves the others' entries reachable.
    """

    def __init__(self, caches: "list[ResultCache]") -> None:
        self._caches = caches

    @property
    def stats(self) -> ResultCacheStats:
        total = ResultCacheStats()
        for cache in self._caches:
            total.hits += cache.stats.hits
            total.misses += cache.stats.misses
            total.invalidations += cache.stats.invalidations
        return total

    def invalidate_all(self) -> None:
        for cache in self._caches:
            cache.invalidate_all()

    def __len__(self) -> int:
        return sum(len(cache) for cache in self._caches)

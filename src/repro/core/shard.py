"""Horizontal sharding behind the execution pipeline.

:class:`ShardedIndex` partitions a record collection across N
independent inverted files -- each a full :class:`NestedSetIndex` with
its own list cache, Bloom filters, and result cache -- living side by
side in **one** physical store under per-shard key namespaces
(:class:`~repro.storage.NamespacedStore`).  Queries are compiled once
through the shared pipeline (:func:`repro.core.exec.compiler.compile_query`)
and the resulting :class:`~repro.core.exec.plan.ExecutionPlan` is fanned
out to every shard -- concurrently via :class:`~repro.core.parallel.ShardExecutor`
when ``workers > 1`` -- then the per-shard answers are merged.

Merging is exact, not approximate: the partitioning policy assigns each
record key to exactly one shard, so per-shard result lists are disjoint
and the cross-shard answer is their sorted concatenation.  Counters
merge by summation (:meth:`ExecCounters.merged`) and EXPLAIN traces
keep one tree per shard under a merged header
(:func:`~repro.core.exec.observer.merge_explains`).

Why shard at all on one machine?  Two reasons the paper's monolithic
inverted file cannot offer:

* **update locality** -- an insert or delete touches one shard, so the
  other ``N-1`` result caches (and their warmed list caches) survive the
  mutation instead of being invalidated wholesale;
* **bounded build memory** -- bulk loading splits the posting buffer
  across shard builds, and each shard's run-merge works over a fraction
  of the collection.

Thread-safety contract: reads are **version-based**.  A fan-out pins the
base store's committed version once, wraps each shard namespace over
that one pinned view, and opens a per-shard engine
:class:`~repro.core.engine.Snapshot` -- so every shard of one fan-out
answers from the *same* base version, with no lock held against
mutations, which serialize among themselves on a writer mutex and commit
through the shared write-ahead log.  Each fan-out schedules one
in-flight task per shard; disk-backed *live* views share a lock for
mutations (one seeking file handle), while pinned snapshot reads go
through the pager's version store and need none.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import Counter
from contextlib import ExitStack, contextmanager
from typing import Callable, Iterable, Iterator, Sequence

from ..storage import (
    KVStore,
    MemoryKVStore,
    NamespacedStore,
    decode_varint,
    encode_varint,
    open_store,
)
from ..storage.codec import DEFAULT_BLOCK_SIZE
from .cache import PAPER_BUDGET
from .engine import NestedSetIndex, commit_group, list_cache_for, \
    require_snapshots
from .exec.compiler import ALGORITHMS, compile_query
from .exec.context import ExecCounters
from .exec.observer import MergedExplainResult, merge_explains, run_explained
from .invfile import decode_path_of
from .matchspec import QuerySpec
from .model import NestedSet, as_nested_set
from .parallel import ShardExecutor
from .prefixjoin import prefix_join_lists
from .resultcache import ResultCacheStats
from .stats import CollectionStats

__all__ = [
    "HashShardPolicy",
    "MANIFEST_KEY",
    "POLICIES",
    "RoundRobinShardPolicy",
    "ShardError",
    "ShardGroupSnapshot",
    "ShardedIndex",
    "make_policy",
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
    the name, and :meth:`ShardedIndex.open` resolves it through this
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


def _commit_manifest(store: KVStore, n_shards: int,
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
    """Shard layout of a base store, or ``None`` for monolithic stores."""
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


class _SharedResultCache:
    """Aggregate view over the per-shard result caches.

    Matches the read surface of :class:`~repro.core.resultcache.ResultCache`
    that callers use (``stats``, ``invalidate_all``, ``len``); the
    underlying caches stay per-shard so a single-shard mutation leaves
    the other shards' entries warm -- the sharded index's headline
    advantage on mixed workloads.
    """

    def __init__(self, caches: Sequence[object]) -> None:
        self._caches = list(caches)

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


# -- the sharded index -------------------------------------------------------


class ShardedIndex:
    """N inverted-file shards in one store, one query surface.

    Mirrors the :class:`~repro.core.engine.NestedSetIndex` facade --
    ``query`` / ``query_batch`` / ``containment_join`` / ``explain`` /
    ``insert`` / ``delete`` / ``compact`` / ``stats`` -- so callers and
    the CLI can hold either without caring which they got.
    """

    def __init__(self, base_store: KVStore,
                 shards: Sequence[NestedSetIndex], policy: object,
                 *, workers: int = 1) -> None:
        if not shards:
            raise ShardError("a sharded index needs at least one shard")
        require_snapshots(base_store)
        self._base = base_store
        self._shards = list(shards)
        self._policy = policy
        self._executor = ShardExecutor(max_workers=workers)
        self._result_cache: _SharedResultCache | None = None
        #: Serializes mutations among themselves (route + engine write
        #: + shared-WAL commit as one unit); fan-outs pin a base version
        #: and never block on (or are blocked by) writers.
        self._writer_mutex = threading.Lock()
        #: Fan-out refcounts per base-store generation; compact retires
        #: the old base, which closes when its last fan-out drains.
        self._gen_lock = threading.Lock()
        self._base_counts: dict[KVStore, int] = {}
        self._retired_bases: set[KVStore] = set()
        #: Cumulative, workload-level counters merged from every fan-out.
        self.counters = ExecCounters()
        self._counters_lock = threading.Lock()
        #: One shared snapshot group per committed base version (see
        #: :meth:`_pinned_group`): fan-outs refcount it on a dedicated
        #: lock instead of pinning the base per query, keeping
        #: steady-state reader traffic off every writer-shared lock.
        self._pin_lock = threading.Lock()
        self._group_pin: _SharedGroup | None = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def _shard_views(base: KVStore, n_shards: int) -> list[NamespacedStore]:
        """One namespaced view per shard; disk bases share one lock."""
        import threading
        lock = None if isinstance(base, MemoryKVStore) else threading.Lock()
        return [NamespacedStore(base, _shard_prefix(i), lock=lock)
                for i in range(n_shards)]

    @classmethod
    def build(cls, records: Iterable[tuple[str, object]], *,
              shards: int, workers: int = 1, policy: object = "hash",
              storage: str = "memory", path: str | None = None,
              cache: str | None = None, cache_budget: int = PAPER_BUDGET,
              bloom: str | None = None, bloom_bits: int = 512,
              block_size: int = DEFAULT_BLOCK_SIZE,
              **store_options: object) -> "ShardedIndex":
        """Partition ``records`` and build one inverted file per shard.

        Shard builds run sequentially: they write interleaved key ranges
        into the shared base store, and the disk pagers are not safe for
        concurrent writers.  ``workers`` only sizes the *query* fan-out.
        """
        if shards < 1:
            raise ShardError("shards must be >= 1")
        partitioner = make_policy(policy)
        buckets: list[list[tuple[str, NestedSet]]] = [[] for _ in
                                                      range(shards)]
        for key, value in records:
            buckets[partitioner.shard_of(key, shards)].append(
                (key, as_nested_set(value)))
        base = open_store(storage, path, create=True, **store_options)
        engines = []
        budget = max(1, cache_budget // shards)
        for view, bucket in zip(cls._shard_views(base, shards), buckets):
            engines.append(cls._build_one(
                bucket, view, cache=cache, cache_budget=budget,
                bloom=bloom, bloom_bits=bloom_bits, block_size=block_size))
        _commit_manifest(base, shards, partitioner.name)
        return cls(base, engines, partitioner, workers=workers)

    @staticmethod
    def _build_one(bucket: list[tuple[str, NestedSet]],
                   view: NamespacedStore, *, cache: str | None,
                   cache_budget: int, bloom: str | None, bloom_bits: int,
                   block_size: int) -> NestedSetIndex:
        from .bloom import BloomIndex
        from .invfile import InvertedFile
        ifile = InvertedFile.build(iter(bucket), store=view,
                                   block_size=block_size)
        ifile.cache = list_cache_for(ifile, cache, cache_budget)
        bloom_index = None
        if bloom is not None:
            bloom_index = BloomIndex(bloom, n_bits=bloom_bits)
            for _ordinal, _key, _root, tree in ifile.iter_records():
                bloom_index.add_record(tree)
            bloom_index.save(ifile.store)
        return NestedSetIndex(ifile, bloom_index)

    @classmethod
    def build_external(cls, records: Iterable[tuple[str, object]], *,
                       shards: int, workers: int = 1,
                       policy: object = "hash",
                       storage: str = "memory", path: str | None = None,
                       memory_budget: int | None = None,
                       cache: str | None = None,
                       cache_budget: int = PAPER_BUDGET,
                       block_size: int = DEFAULT_BLOCK_SIZE,
                       **store_options: object) -> "ShardedIndex":
        """Bulk-load each shard with its slice of the posting budget."""
        from .bulkload import DEFAULT_MEMORY_BUDGET, build_external
        if shards < 1:
            raise ShardError("shards must be >= 1")
        partitioner = make_policy(policy)
        buckets: list[list[tuple[str, NestedSet]]] = [[] for _ in
                                                      range(shards)]
        for key, value in records:
            buckets[partitioner.shard_of(key, shards)].append(
                (key, as_nested_set(value)))
        base = open_store(storage, path, create=True, **store_options)
        total_budget = (memory_budget if memory_budget is not None
                        else DEFAULT_MEMORY_BUDGET)
        per_shard_budget = max(1, total_budget // shards)
        per_shard_cache = max(1, cache_budget // shards)
        engines = []
        for view, bucket in zip(cls._shard_views(base, shards), buckets):
            ifile = build_external(iter(bucket), store=view,
                                   memory_budget=per_shard_budget,
                                   block_size=block_size)
            ifile.cache = list_cache_for(ifile, cache, per_shard_cache)
            engines.append(NestedSetIndex(ifile))
        _commit_manifest(base, shards, partitioner.name)
        return cls(base, engines, partitioner, workers=workers)

    @classmethod
    def open(cls, storage: str, path: str, *, workers: int = 1,
             cache: str | None = None, cache_budget: int = PAPER_BUDGET,
             bloom: str | None = None, bloom_bits: int = 512,
             **store_options: object) -> "ShardedIndex":
        """Reopen a persisted sharded index from its base store."""
        base = open_store(storage, path, create=False, **store_options)
        return cls.from_base_store(base, workers=workers, cache=cache,
                                   cache_budget=cache_budget, bloom=bloom,
                                   bloom_bits=bloom_bits)

    @classmethod
    def from_base_store(cls, base: KVStore, *, workers: int = 1,
                        cache: str | None = None,
                        cache_budget: int = PAPER_BUDGET,
                        bloom: str | None = None,
                        bloom_bits: int = 512) -> "ShardedIndex":
        """Bring up every shard over an already-open base store."""
        manifest = read_manifest(base)
        if manifest is None:
            raise ShardError("store carries no shard manifest; open it "
                             "as a monolithic NestedSetIndex instead")
        n_shards, policy_name = manifest
        partitioner = make_policy(policy_name)
        budget = max(1, cache_budget // n_shards)
        engines = [NestedSetIndex.from_store(view, cache=cache,
                                             cache_budget=budget,
                                             bloom=bloom,
                                             bloom_bits=bloom_bits)
                   for view in cls._shard_views(base, n_shards)]
        return cls(base, engines, partitioner, workers=workers)

    # -- fan-out plumbing --------------------------------------------------

    def _release_base(self, base: KVStore) -> None:
        with self._gen_lock:
            count = self._base_counts.get(base, 0) - 1
            if count > 0:
                self._base_counts[base] = count
                return
            self._base_counts.pop(base, None)
            close_now = base in self._retired_bases
            self._retired_bases.discard(base)
        if close_now:
            base.close()

    def _open_group_handles(self):
        """Pin ONE base version; open a per-shard snapshot over it.

        The base store is pinned exactly once, and each shard engine
        gets a namespaced view of that pin -- so all shards observe the
        same committed version even while the writer commits between
        per-shard tasks.  Returns ``(base, base_snap, snaps)``; pass
        them to :meth:`_close_group_handles` to release the per-shard
        handles, the single pin, and (after a concurrent ``compact``)
        possibly the retired base store.
        """
        with self._gen_lock:
            base = self._base
            self._base_counts[base] = self._base_counts.get(base, 0) + 1
        base_snap = None
        snaps: list[object] = []
        try:
            base_snap = base.snapshot()
            base_snap.stats = base.stats      # keep aggregate counters
            version = base_snap.version
            for shard_no, engine in enumerate(self._shards):
                view = NamespacedStore(base_snap, _shard_prefix(shard_no))
                view.stats = engine.inverted_file.store.stats
                snaps.append(engine.open_snapshot(view, version=version))
        except BaseException:
            self._close_group_handles(base, base_snap, snaps)
            raise
        return base, base_snap, snaps

    def _close_group_handles(self, base, base_snap, snaps) -> None:
        for snap in snaps:
            snap.close()
        if base_snap is not None:
            base_snap.close()
        self._release_base(base)

    @contextmanager
    def _snapshot_group(self):
        """A private (non-shared) pinned group; see
        :meth:`_open_group_handles`.  Used by the public
        :class:`ShardGroupSnapshot` handle, whose lifetime the caller
        controls; one-shot queries go through :meth:`_pinned_group`."""
        base, base_snap, snaps = self._open_group_handles()
        try:
            yield snaps
        finally:
            self._close_group_handles(base, base_snap, snaps)

    @contextmanager
    def _pinned_group(self):
        """Context manager yielding the shared snapshot group for the
        latest committed base version.

        Fan-outs refcount one group per version instead of pinning the
        base per query: steady-state readers touch exactly one lock
        (``_pin_lock``), which the writer's put path never takes --
        per-query pin/unpin churn through writer-shared locks convoys
        with the GIL badly enough to starve a background writer thread
        outright.
        """
        pin = self._acquire_group()
        try:
            yield pin.snaps
        finally:
            self._release_group(pin)

    def _acquire_group(self) -> "_SharedGroup":
        # Lock-free committed-version read: a racing commit publishes
        # its bump as one atomic attribute store, so we see either the
        # old or the new version -- both servable.
        version = self._base.current_version()
        close_old = None
        with self._pin_lock:
            cur = self._group_pin
            if cur is not None and not cur.retired \
                    and cur.version == version \
                    and cur.base is self._base:
                cur.refs += 1
                return cur
            base, base_snap, snaps = self._open_group_handles()
            pin = _SharedGroup(base, base_snap, snaps, base_snap.version)
            self._group_pin = pin
            if cur is not None:
                cur.retired = True
                if cur.refs == 0:
                    close_old = cur
        if close_old is not None:
            self._close_group_handles(close_old.base, close_old.base_snap,
                                      close_old.snaps)
        return pin

    def _release_group(self, pin: "_SharedGroup") -> None:
        with self._pin_lock:
            pin.refs -= 1
            close_now = pin.refs == 0 and pin.retired
        if close_now:
            self._close_group_handles(pin.base, pin.base_snap, pin.snaps)

    def _retire_group_pin(self) -> None:
        """Drop the cached shared group (mutations/compact/close): the
        next fan-out re-pins at the then-current version.  Without this
        a stale pin would force pre-image capture on every subsequent
        page write (unbounded history growth under write-only loads)."""
        with self._pin_lock:
            cur = self._group_pin
            self._group_pin = None
            if cur is None:
                return
            cur.retired = True
            close_now = cur.refs == 0
        if close_now:
            self._close_group_handles(cur.base, cur.base_snap, cur.snaps)

    def _fan_out(self, task: Callable[[object], object], items: Sequence,
                 workers: int | None = None) -> list[object]:
        """Run ``task`` once per item; parallel when workers allow."""
        if workers is None or workers == self._executor.max_workers:
            return self._executor.map(task, items)
        with ShardExecutor(max_workers=workers) as executor:
            return executor.map(task, items)

    @staticmethod
    def _merge_sorted(per_shard: Iterable[list[str]]) -> list[str]:
        # Shards partition the key space, so the lists are disjoint and a
        # flat sort of the concatenation is the exact global answer.
        merged = [key for part in per_shard for key in part]
        merged.sort()
        return merged

    def _absorb_counters(self, counters: Iterable[ExecCounters]) -> None:
        merged = ExecCounters.merged(list(counters))
        with self._counters_lock:
            self.counters.merge(merged)

    def snapshot(self) -> "ShardGroupSnapshot":
        """Pin one consistent cross-shard read view.

        All shards observe the same committed base version for the life
        of the handle; writers commit freely in the meantime.  Close it
        (or use it as a context manager) to release the pin.
        """
        return ShardGroupSnapshot(self)

    # -- querying ----------------------------------------------------------

    def query(self, query: object, *, algorithm: str = "bottomup",
              semantics: str = "hom", join: str = "subset",
              epsilon: int = 1, mode: str = "root",
              use_bloom: bool = False, planner: str | None = None,
              workers: int | None = None) -> list[str]:
        """Compile once, run the plan on every shard, merge the answers."""
        spec = QuerySpec(semantics=semantics, join=join, epsilon=epsilon,
                         mode=mode)
        plan = compile_query(query, spec, algorithm=algorithm,
                             planner=planner, use_bloom=use_bloom)

        def run_shard(snap) -> tuple[list[str], ExecCounters]:
            ctx = snap.execution_context()
            return plan.run(ctx), ctx.counters

        with self._pinned_group() as snaps:
            outcomes = self._fan_out(run_shard, snaps, workers)
        self._absorb_counters(counters for _result, counters in outcomes)
        return self._merge_sorted(result for result, _counters in outcomes)

    def run_plans(self, plans: Sequence[object], *, memoize: bool = False,
                  workers: int | None = None
                  ) -> tuple[list[list[str]], ExecCounters]:
        """Run pre-compiled plans on every shard; merge results/counters.

        Every shard gets its own execution context over one shared
        pinned base version (and, with ``memoize=True``, its own
        cross-query subquery memo -- node ids are shard-local, so memos
        cannot be shared across shards).  Returns per-plan merged key
        lists plus this fan-out's merged counters (also accumulated
        into :attr:`counters`).
        """
        def run_shard(snap) -> tuple[list[list[str]], ExecCounters]:
            ctx = snap.execution_context(memo={} if memoize else None)
            return [plan.run(ctx) for plan in plans], ctx.counters

        with self._pinned_group() as snaps:
            outcomes = self._fan_out(run_shard, snaps, workers)
        counters = ExecCounters.merged(
            [shard_counters for _results, shard_counters in outcomes])
        with self._counters_lock:
            self.counters.merge(counters)
        merged = [self._merge_sorted(results[plan_no]
                                     for results, _counters in outcomes)
                  for plan_no in range(len(plans))]
        return merged, counters

    def run_prefix_join(self, queries: Sequence[NestedSet],
                        spec: QuerySpec, *, workers: int | None = None
                        ) -> tuple[list[list[str]], ExecCounters]:
        """Prefix-tree join fan-out over one pinned snapshot group.

        Each shard builds its own prefix tree and subquery memo (node
        ids, frequencies, and posting lists are all shard-local) but
        every shard observes the same committed base version, so the
        join is version-consistent exactly like :meth:`run_plans`.
        Returns per-query merged key lists plus this fan-out's merged
        counters (also accumulated into :attr:`counters`).
        """
        def run_shard(snap) -> tuple[list[list[str]], ExecCounters]:
            ctx = snap.execution_context(memo={})
            return prefix_join_lists(queries, ctx, spec), ctx.counters

        with self._pinned_group() as snaps:
            outcomes = self._fan_out(run_shard, snaps, workers)
        counters = ExecCounters.merged(
            [shard_counters for _results, shard_counters in outcomes])
        with self._counters_lock:
            self.counters.merge(counters)
        merged = [self._merge_sorted(results[query_no]
                                     for results, _counters in outcomes)
                  for query_no in range(len(queries))]
        return merged, counters

    def query_batch(self, queries: Sequence[object], *,
                    share_subqueries: bool = True,
                    algorithm: str = "bottomup", semantics: str = "hom",
                    join: str = "subset", epsilon: int = 1,
                    mode: str = "root", use_bloom: bool = False,
                    planner: str | None = None,
                    workers: int | None = None) -> list[list[str]]:
        """Batch evaluation: each shard runs the whole compiled workload."""
        spec = QuerySpec(semantics=semantics, join=join, epsilon=epsilon,
                         mode=mode)
        plans = [compile_query(query, spec, algorithm=algorithm,
                               planner=planner, use_bloom=use_bloom)
                 for query in queries]
        memoize = bool(share_subqueries and plans and
                       all(plan.match.memoizable for plan in plans))
        results, _counters = self.run_plans(plans, memoize=memoize,
                                            workers=workers)
        return results

    def compile(self, query: object, *, algorithm: str = "bottomup",
                semantics: str = "hom", join: str = "subset",
                epsilon: int = 1, mode: str = "root",
                use_bloom: bool = False, planner: str | None = None,
                cacheable: bool = True):
        """Compile without running; the plan is shard-independent."""
        spec = QuerySpec(semantics=semantics, join=join, epsilon=epsilon,
                         mode=mode)
        return compile_query(query, spec, algorithm=algorithm,
                             planner=planner, use_bloom=use_bloom,
                             cacheable=cacheable)

    def containment_join(self, queries: Iterable[tuple[str, object]],
                         **options: object) -> list[tuple[str, str]]:
        """Same contract as the monolithic facade's join."""
        materialized = [(qkey, query) for qkey, query in queries]
        results = self.query_batch(
            [query for _qkey, query in materialized], **options)
        return [(qkey, skey)
                for (qkey, _query), result in zip(materialized, results)
                for skey in result]

    def explain(self, query: object, *, algorithm: str = "bottomup",
                semantics: str = "hom", join: str = "subset",
                epsilon: int = 1, mode: str = "root",
                use_bloom: bool = False,
                planner: str | None = None,
                workers: int | None = None) -> MergedExplainResult:
        """One full trace per shard under a merged header."""
        spec = QuerySpec(semantics=semantics, join=join, epsilon=epsilon,
                         mode=mode)
        plan = compile_query(query, spec, algorithm=algorithm,
                             planner=planner, use_bloom=use_bloom,
                             cacheable=False)
        started = time.perf_counter()
        with self._pinned_group() as snaps:
            traces = self._fan_out(
                lambda snap: run_explained(plan, snap.execution_context()),
                snaps, workers)
        total_ms = (time.perf_counter() - started) * 1000
        return merge_explains(list(traces), total_ms)

    def match_nodes(self, query: object, **_options: object) -> set[int]:
        raise ShardError(
            "match_nodes is not defined on a sharded index: node ids are "
            "shard-local; run it on an individual shard via .shards[i]")

    def self_check(self, query: object, *, semantics: str = "hom",
                   join: str = "subset", epsilon: int = 1,
                   mode: str = "root") -> dict[str, list[str]]:
        """Run every applicable algorithm on one query (diagnostics)."""
        out: dict[str, list[str]] = {}
        for algorithm in ALGORITHMS:
            if algorithm == "topdown-paper" and (
                    semantics == "iso" or join == "superset"):
                continue
            out[algorithm] = self.query(
                query, algorithm=algorithm, semantics=semantics,
                join=join, epsilon=epsilon, mode=mode)
        return out

    # -- updates -----------------------------------------------------------

    def _route(self, key: str) -> NestedSetIndex:
        return self._shards[self._policy.shard_of(key, len(self._shards))]

    def insert(self, key: str, value: object) -> int:
        """Route to the owning shard; returns the *shard-local* ordinal.

        Only that shard's cached results go stale (its engine bumps its
        own mutation epoch); the other shards' caches stay warm.  The
        commit lands as a new base version -- in-flight
        fan-outs keep reading the version they pinned, and no query ever
        observes one shard pre-insert and another mid-insert.
        """
        with self._writer_mutex:
            ordinal = self._route(key).insert(key, value)
        self._retire_group_pin()
        return ordinal

    def insert_batch(self, records: Iterable[tuple[str, object]]
                     ) -> list[int]:
        """Insert several (routed) records as **one** WAL commit group.

        The streaming ingestor's batch path: each shard's writer takes
        its slice as one group (every list it touches written once),
        nested in one transaction of the shared base store, whose
        version advances once for the whole batch -- readers observe
        either none of it or all of it regardless of how the records
        scatter across shards.
        """
        materialized = [(key, value) for key, value in records]
        with self._writer_mutex:
            # Route first, then hand each shard its whole slice as one
            # nested batch, so each shard's writer writes its lists,
            # tail blocks and statistics delta once (routing calls
            # shard_of in submission order, so stateful policies like
            # round-robin scatter exactly as single inserts do).
            by_shard: dict[int, list[int]] = {}
            for pos, (key, _value) in enumerate(materialized):
                shard_no = self._policy.shard_of(key, len(self._shards))
                by_shard.setdefault(shard_no, []).append(pos)
            ordinals: list[int] = [0] * len(materialized)
            with commit_group(self._base, b"ingest", self._reload_shards):
                for shard_no, positions in by_shard.items():
                    batch = [materialized[pos] for pos in positions]
                    for pos, ordinal in zip(
                            positions,
                            self._shards[shard_no].insert_batch(batch)):
                        ordinals[pos] = ordinal
        self._retire_group_pin()
        return ordinals

    def _reload_shards(self) -> None:
        """An aborted group takes every shard's slice with it, the
        slices of shards that had already finished theirs included."""
        for engine in self._shards:
            engine.reload_live_state()

    def delete(self, key: str) -> bool:
        """Tombstone ``key`` on its owning shard.

        Under a key-deterministic policy this is a single-shard
        operation; under a non-deterministic one (round-robin) the
        routed shard may miss, so the delete falls back to trying every
        shard (at most one can hold the key).
        """
        try:
            with self._writer_mutex:
                routed = self._route(key)
                if routed.delete(key):
                    return True
                if isinstance(self._policy, HashShardPolicy):
                    return False
                # The routed shard already missed -- sweep the others.
                return any(engine.delete(key) for engine in self._shards
                           if engine is not routed)
        finally:
            self._retire_group_pin()

    def compact(self, *, storage: str = "memory",
                path: str | None = None,
                **store_options: object) -> None:
        """Rebuild every shard into a fresh base store, then swap.

        Disk targets need a new ``path`` for the same reason the
        monolithic engine does: a store cannot be rebuilt into its own
        open file.  Fan-outs pinned on the old base keep answering from
        it; it closes when the last of them drains.
        """
        with self._writer_mutex:
            fresh_base = open_store(storage, path, create=True,
                                    **store_options)
            views = self._shard_views(fresh_base, len(self._shards))
            for engine, view in zip(self._shards, views):
                engine.compact(store=view)
            # Manifest swap comes last: until it lands, the fresh store
            # is not a valid sharded index and the old store is still
            # whole.
            _commit_manifest(fresh_base, len(self._shards),
                             self._policy.name)
            # Drop the cached shared group first: it holds a base
            # refcount, and closing it here (when idle) lets the old
            # base close immediately below instead of deferring.
            self._retire_group_pin()
            with self._gen_lock:
                old = self._base
                defer = self._base_counts.get(old, 0) > 0
                if defer:
                    self._retired_bases.add(old)
            if not defer:
                old.close()
            self._base = fresh_base
            if self._result_cache is not None:
                self._result_cache.invalidate_all()

    # -- caches ------------------------------------------------------------

    def enable_result_cache(self, capacity: int = 1024
                            ) -> _SharedResultCache:
        """Per-shard result caches behind one aggregate stats view.

        Capacity is per shard: each cache serves a disjoint slice of the
        workload's answer, and per-shard caches are what make mutation
        invalidation partial instead of total.
        """
        self._result_cache = _SharedResultCache(
            [engine.enable_result_cache(capacity)
             for engine in self._shards])
        # The cached shared group holds per-shard snapshots wired with
        # the old cache configuration; drop it so fan-outs re-wire
        # (same below on disable / cache swap).
        self._retire_group_pin()
        return self._result_cache

    def disable_result_cache(self) -> None:
        for engine in self._shards:
            engine.disable_result_cache()
        self._result_cache = None
        self._retire_group_pin()

    @property
    def result_cache(self) -> _SharedResultCache | None:
        return self._result_cache

    def set_cache(self, policy: str | None,
                  budget: int = PAPER_BUDGET) -> None:
        """Swap every shard's inverted-list cache (budget split evenly)."""
        per_shard = max(1, budget // len(self._shards))
        for engine in self._shards:
            engine.set_cache(policy, per_shard)
        self._retire_group_pin()

    # -- statistics --------------------------------------------------------

    def collection_stats(self) -> CollectionStats:
        """Merged live-frequency statistics across all shards."""
        merged: Counter = Counter()
        n_nodes = 0
        n_records = 0
        for engine in self._shards:
            shard_stats = engine.collection_stats()
            merged.update(engine.inverted_file.live_document_frequencies())
            n_nodes += shard_stats.n_nodes
            n_records += shard_stats.n_records
        frequencies = sorted(merged.items(),
                             key=lambda item: (-item[1], str(item[0])))
        return CollectionStats(frequencies, n_nodes, n_records)

    def frequencies(self) -> list[tuple[object, int]]:
        """Merged raw document frequencies (CLI ``info`` surface)."""
        merged: Counter = Counter()
        for engine in self._shards:
            for atom, count in engine.inverted_file.frequencies():
                merged[atom] += count
        return sorted(merged.items(),
                      key=lambda item: (-item[1], str(item[0])))

    def stats(self) -> dict[str, dict[str, object]]:
        """Aggregated index/cache counters plus the shared-store view."""
        per_shard = [engine.stats() for engine in self._shards]
        index_totals = {
            "records": self.n_records,
            "nodes": self.n_nodes,
        }
        for field in ("postings_requests", "cache_hits", "lists_decoded",
                      "meta_block_reads", "blocks_read", "blocks_skipped",
                      "bytes_decoded", "intersects_vectorized",
                      "intersects_scalar"):
            index_totals[field] = sum(stats["index"][field]
                                      for stats in per_shard)
        index_totals["decode_path"] = decode_path_of(
            index_totals["intersects_vectorized"],
            index_totals["intersects_scalar"])
        cache_hits = sum(stats["cache"]["hits"] for stats in per_shard)
        cache_misses = sum(stats["cache"]["misses"] for stats in per_shard)
        cache_requests = cache_hits + cache_misses
        out: dict[str, dict[str, object]] = {
            "index": index_totals,
            "cache": {
                "policy": per_shard[0]["cache"]["policy"],
                "hits": cache_hits,
                "misses": cache_misses,
                "hit_rate": (cache_hits / cache_requests
                             if cache_requests else 0.0),
            },
            "store": self._base.stats.snapshot(),
            "shards": {
                "count": len(self._shards),
                "policy": self._policy.name,
                "workers": self._executor.max_workers,
                "exec": self.counters.snapshot(),
            },
        }
        wal = self._base.wal_info()
        if wal is not None:
            out["wal"] = wal
        mvcc = self._base.mvcc_info()
        with self._gen_lock:
            mvcc["open_snapshots"] = sum(self._base_counts.values())
            mvcc["retired_generations"] = len(self._retired_bases)
        out["mvcc"] = mvcc
        return out

    def reset_stats(self) -> None:
        for engine in self._shards:
            engine.reset_stats()
        self.counters = ExecCounters()

    # -- introspection -----------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> tuple[NestedSetIndex, ...]:
        """The per-shard engines (read-only tuple; order = shard number)."""
        return tuple(self._shards)

    @property
    def policy(self) -> object:
        return self._policy

    @property
    def workers(self) -> int:
        return self._executor.max_workers

    @property
    def base_store(self) -> KVStore:
        return self._base

    # -- replication hooks --------------------------------------------------
    # All shards share one base store / one pager / one shipped log, so
    # one replicated commit group can touch any shard's namespace: the
    # hooks fan out to every shard engine.

    def note_replicated_apply(self, version: int | None = None) -> None:
        for engine in self._shards:
            engine.note_replicated_apply(version)

    def finish_replicated_apply(self) -> None:
        for engine in self._shards:
            engine.finish_replicated_apply()
        self._retire_group_pin()

    @property
    def n_records(self) -> int:
        return sum(engine.n_records for engine in self._shards)

    @property
    def n_nodes(self) -> int:
        return sum(engine.n_nodes for engine in self._shards)

    def records(self) -> Iterator[tuple[str, NestedSet]]:
        """All ``(key, tree)`` records, shard by shard."""
        for engine in self._shards:
            yield from engine.records()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self._retire_group_pin()
        for engine in self._shards:
            engine.close()   # flushes writers; views leave the base open
        self._executor.shutdown()
        with self._gen_lock:
            base = self._base
            defer = self._base_counts.get(base, 0) > 0
            if defer:
                self._retired_bases.add(base)
        if not defer:
            base.close()

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class _SharedGroup:
    """A refcounted snapshot group shared by every fan-out at one
    committed base version (guarded by the index's ``_pin_lock``)."""

    __slots__ = ("base", "base_snap", "snaps", "version", "refs",
                 "retired")

    def __init__(self, base: KVStore, base_snap: KVStore,
                 snaps: "list[object]", version: int) -> None:
        self.base = base
        self.base_snap = base_snap
        self.snaps = snaps
        self.version = version
        self.refs = 1
        self.retired = False


class ShardGroupSnapshot:
    """One pinned base version, queryable across every shard.

    Wraps the per-shard :class:`~repro.core.engine.Snapshot` handles of
    one :meth:`ShardedIndex.snapshot` call.  All reads fan out
    sequentially (the handle is a consistency primitive, not a
    throughput one) and merge exactly like the live fan-out path.
    """

    def __init__(self, owner: ShardedIndex) -> None:
        self._stack = ExitStack()
        self.snapshots: Sequence = self._stack.enter_context(
            owner._snapshot_group())

    @property
    def version(self) -> int | None:
        """The pinned base-store version."""
        for snap in self.snapshots:
            return snap.version
        return None

    def query(self, query: object, **options: object) -> list[str]:
        """Evaluate one query against the pinned version, merged."""
        return ShardedIndex._merge_sorted(
            snap.query(query, **options) for snap in self.snapshots)

    def query_batch(self, queries: Sequence[object],
                    **options: object) -> list[list[str]]:
        """Evaluate many queries against the one pinned version."""
        per_shard = [snap.query_batch(queries, **options)
                     for snap in self.snapshots]
        return [ShardedIndex._merge_sorted(parts)
                for parts in zip(*per_shard)]

    def close(self) -> None:
        self._stack.close()

    def __enter__(self) -> "ShardGroupSnapshot":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

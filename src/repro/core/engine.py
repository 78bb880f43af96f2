"""Public facade: build, open, and query a nested-set containment index.

:class:`NestedSetIndex` wires together the inverted file, its block cache
and pins, the Bloom prefilters (both Section 3.3), the two containment
algorithms (Section 3) and their extensions (Section 4) behind a small
surface::

    from repro import NestedSetIndex

    index = NestedSetIndex.build(records)           # in-memory
    index.query("{USA, {UK, {A, motorbike}}}")      # -> ['tim']
    index.query(q, algorithm="topdown", semantics="homeo")
    index.query(q, join="overlap", epsilon=2)

Disk-resident indexes (``storage="diskhash"``) persist and reopen via
:meth:`NestedSetIndex.open`.

One index is N >= 1 :class:`Partition`\\ s -- independent inverted files
over disjoint slices of the records (:mod:`repro.core.shard` says who
owns a record and where a partition's keys live).  A :class:`Partition`
holds what is per inverted file: the live file and its block cache,
modification epochs, Bloom filters, writer.
Everything else exists once, on the facade: a query is compiled once,
run on every partition of one pinned :class:`Snapshot`, one after the
other, and merged.  Merging is exact: each record key belongs to
exactly one partition, so the per-partition result lists are disjoint
and the answer is their sorted concatenation; counters merge by
summation, EXPLAIN traces keep one tree per partition.  With N = 1 the
fan-out is a loop of one and the merge the identity -- the paper's one
inverted file.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import fields
from typing import Callable, Iterable, Iterator, Sequence

from ..storage import KVStore, StorageError, open_store
from ..storage.codec import DEFAULT_BLOCK_SIZE
from .batch import QueryFold
from .bloom import BloomIndex
from .cache import PAPER_BUDGET
from .exec.compiler import ALGORITHMS, compile_query
from .exec.context import ExecCounters, ExecutionContext
from .exec.plan import ExecutionPlan
from .invfile import InvertedFile, QueryStats
from .matchspec import QuerySpec
from .model import NestedSet, as_nested_set
from .observe import ExplainResult, MergedExplainResult, merge_explains, \
    run_explained
from .postings import LazyPostingList
from .shard import ShardError, commit_manifest, partition_stores, \
    read_manifest, shard_of
from .snapshot import ModEpochs, SharedIndexState, SnapshotInvertedFile
from .stats import CollectionStats
from .updates import DEFAULT_MEMORY_BUDGET, IndexWriter, write_index

__all__ = ["ALGORITHMS", "NestedSetIndex", "Partition", "PartitionView",
           "Snapshot", "as_nested_set"]

@contextmanager
def commit_group(store: KVStore, label: bytes,
                 roll_back: Callable[[], None]) -> Iterator[None]:
    """One store transaction whose failure also rolls back live objects.

    When the block raises, the store discards the group, but whatever
    the block advanced in memory (an inverted file's counters and
    tombstones, a writer's pending buffers, Bloom filters) is still
    ahead of it; ``roll_back()`` runs after the abort and re-derives
    that state from the store.  A failure inside the commit itself is
    left alone, like
    :meth:`KVStore.transaction <repro.storage.KVStore.transaction>`
    leaves it: recovery on reopen decides that group's fate.
    """
    aborted = False
    try:
        with store.transaction(label):
            try:
                yield
            except BaseException:
                aborted = True
                raise
    finally:
        if aborted:
            roll_back()


def require_snapshots(store: KVStore) -> None:
    """The index reads through pinned versions and takes no lock against
    writers, so a store that cannot pin one is refused."""
    if store.mvcc_info() is None:
        raise StorageError(
            f"{type(store).__name__} does not version its commits "
            "(mvcc_info() is None); an index needs a store with "
            "snapshot support")


def _bloom_for(ifile: InvertedFile, kind: str | None,
               n_bits: int) -> BloomIndex | None:
    """The ``kind`` Bloom prefilters of ``ifile``'s records.

    Filters persisted with a matching shape load directly; otherwise
    they are built from the record table (one sequential scan) and
    persisted.
    """
    if kind is None:
        return None
    stored = BloomIndex.load(ifile.store)
    if stored is not None and stored.kind == kind \
            and stored.n_bits == n_bits:
        return stored
    bloom_index = BloomIndex(kind, n_bits=n_bits)
    for _ordinal, _key, _root, tree in ifile.iter_records():
        bloom_index.add_record(tree)
    bloom_index.save(ifile.store)
    return bloom_index


class PartitionView:
    """One partition as of one pinned store version.

    Everything a plan reads here -- configuration, tombstones, dead
    counts, posting bytes -- is what was committed at that version; the
    decoded-object caches are the partition's shared, epoch-scoped ones
    (:mod:`repro.core.snapshot`).  Closing the view closes the store it
    was opened over.
    """

    __slots__ = ("_ifile", "_bloom")

    def __init__(self, ifile: SnapshotInvertedFile,
                 bloom: BloomIndex | None) -> None:
        self._ifile = ifile
        self._bloom = bloom

    @property
    def inverted_file(self) -> SnapshotInvertedFile:
        return self._ifile

    @property
    def n_records(self) -> int:
        return self._ifile.n_records

    @property
    def n_nodes(self) -> int:
        return self._ifile.n_nodes

    def execution_context(self, *, observer=None,
                          memo: dict | None = None) -> ExecutionContext:
        """An execution context bound to this pinned view."""
        return ExecutionContext(
            ifile=self._ifile, bloom_index=self._bloom,
            observer=observer, memo=memo)

    def close(self) -> None:
        self._ifile.close()


class Partition:
    """One inverted file of an index, and what exists per file.

    The writer's file (unpinned: it caches nothing); the block cache
    and pins, the modification epochs and the cross-version caches
    that every view of it shares; the Bloom prefilters, the writer and
    the statistics memo.
    A partition pins no store version and opens no transaction of its
    own: the owning :class:`NestedSetIndex` hands :meth:`view` an
    already pinned store and calls :meth:`insert_group` /
    :meth:`delete` inside its commit group.
    """

    def __init__(self, ifile: InvertedFile, *, cache: str | None,
                 cache_budget: int, bloom: str | None,
                 bloom_bits: int) -> None:
        self._wire(ifile)
        self.set_cache(cache, cache_budget)
        self.bloom_index = _bloom_for(ifile, bloom, bloom_bits)
        self._stats: CollectionStats | None = None
        self._writer: IndexWriter | None = None

    def _wire(self, ifile: InvertedFile) -> None:
        """Make ``ifile`` the live generation: fresh epochs and shared
        caches for its views (construction, and again after a compact)."""
        self._ifile = ifile
        self._epochs = ModEpochs()
        self._shared = SharedIndexState()

    # -- read views ---------------------------------------------------------

    def view(self, store: KVStore, version: int) -> PartitionView:
        """Wrap ``store``, this partition's keys pinned at ``version``."""
        generation = self._ifile
        store.stats = generation.store.stats    # one home for the counters
        ifile = SnapshotInvertedFile(
            store, block_cache=generation.block_cache, shared=self._shared,
            epochs=self._epochs, version=version, stats=generation.stats)
        return PartitionView(ifile, self.bloom_index)

    def snapshot(self) -> PartitionView:
        """A view of this partition alone over a pin of its own.

        For measurement and inspection; close it before the index is
        compacted or closed (only :meth:`NestedSetIndex.snapshot` holds
        a store generation open).
        """
        store = self._ifile.store.snapshot()
        return self.view(store, store.version)

    def collection_stats(self) -> CollectionStats:
        """Frequency statistics over the live records, memoized until the
        next commit, rebuilt from the frequency table commits keep current."""
        if self._stats is None:
            self._stats = CollectionStats.from_inverted_file(self._ifile)
        return self._stats

    # -- updates (inside the owning index's commit group) --------------------

    def _index_writer(self) -> IndexWriter:
        if self._writer is None:
            self._writer = IndexWriter(self._ifile,
                                       on_mutate=self._note_mutation,
                                       warm=self._warm_list)
        return self._writer

    def _warm_list(self, token: str) -> LazyPostingList | None:
        """Writer hook: the list the block cache holds for ``token`` at
        the committed version, if any."""
        plist = self._ifile.block_cache.directory((token, self._epochs.floor(
            token, self._ifile.store.current_version())))
        return plist if isinstance(plist, LazyPostingList) else None

    def end_group(self, landed: bool) -> None:
        """End of a commit group.

        Once it ``landed``, every list the writer appended to from its
        warm list goes into the block cache under its new epoch's key,
        derived from the warm one (:meth:`LazyPostingList.appended
        <repro.core.postings.LazyPostingList.appended>`) and sharing its
        unchanged decoded blocks.  A group that did not land carries
        nothing.
        """
        writer = self._writer
        carried = {} if writer is None else writer.carried
        if writer is not None:
            writer.carried = {}
        if not landed:
            return
        version = self._ifile.store.current_version()
        cache = self._ifile.block_cache
        for token, carry in carried.items():
            new_key = (token, self._epochs.floor(token, version))
            cache.carry(new_key, LazyPostingList.appended(
                *carry, cache_key=new_key))

    def _upcoming_version(self) -> int:
        return int(self._ifile.store.mvcc_info()["snapshot_version"]) + 1

    def _note_mutation(self, tokens: set[str]) -> None:
        """Writer hook: advance modification epochs pre-commit.

        Called inside the mutation's open transaction, stamped with the
        *upcoming* commit version: a reader pinning the new version
        after the commit lands always computes a post-bump floor, while
        readers at older versions are unaffected (their floors count
        only bumps at or below their pinned version).
        """
        self._epochs.bump(tokens, self._upcoming_version())

    def insert_group(self, records: Iterable[tuple[str, NestedSet]]
                     ) -> list[int]:
        """Buffer ``records`` and write them as this partition's slice
        of the open commit group; returns their ordinals."""
        writer = self._index_writer()
        store = self._ifile.store
        ordinals: list[int] = []
        for key, tree in records:
            ordinals.append(writer.insert(key, tree, flush_stats=False))
            if self.bloom_index is not None:
                self.bloom_index.append_persisted(store, tree)
        writer.flush()
        self._stats = None
        return ordinals

    def delete(self, key: str) -> bool:
        """Tombstone ``key`` if this partition holds it."""
        deleted = self._index_writer().delete(key)
        if deleted:
            # Dead counts change live frequencies: the memoized
            # collection statistics must be recomputed.
            self._stats = None
        return deleted

    def note_replicated_apply(self, version: int) -> None:
        """Replica-side pre-apply hook: shipped groups are about to land.

        Log replay bypasses the writer path entirely (no ``_note_mutation``
        with per-atom tokens), so the epochs get one *global* bump at the
        ``version`` about to be applied -- called *before* the pager
        rewrites pages, exactly as ``_note_mutation`` bumps before a
        local commit: a reader that pins the new version can never
        compute a pre-bump floor, while readers pinned below it keep
        hitting their still-correct entries.  Nothing is cleared, which
        keeps the invalidation race-free.
        """
        self._epochs.bump_all(version)

    def reload_live_state(self) -> None:
        """Re-derive the live in-memory objects from the store as it is.

        The inverted-file configuration, tombstones, dead counts, Bloom
        filters and memoized statistics; the writer goes too, its
        pending buffers belong to a group the store no longer has.
        """
        self._writer = None
        self._ifile.reload_config()
        if self.bloom_index is not None:
            self.bloom_index.refresh_persisted(self._ifile.store)
        self._stats = None

    def rebuilt(self, store: KVStore
                ) -> tuple[InvertedFile, BloomIndex | None]:
        """The live records (and their Bloom filters) rebuilt into
        ``store``; the partition itself is untouched until
        :meth:`adopt`."""
        fresh = self._index_writer().compact(store=store)
        fresh.set_cache(*self._cache_policy)
        if self.bloom_index is None:
            return fresh, None
        return fresh, _bloom_for(fresh, self.bloom_index.kind,
                                 self.bloom_index.n_bits)

    def adopt(self, fresh: InvertedFile,
              bloom_index: BloomIndex | None) -> None:
        """Swap to a rebuilt generation (see :meth:`rebuilt`)."""
        self._writer = None
        self._wire(fresh)
        self.bloom_index = bloom_index
        self._stats = None

    def set_cache(self, policy: str | None, budget: int) -> None:
        """Re-pin the block cache (:meth:`InvertedFile.set_cache`)."""
        self._ifile.set_cache(policy, budget)
        self._cache_policy = (policy, budget)     # carried across a compact

    # -- introspection ------------------------------------------------------

    @property
    def inverted_file(self) -> InvertedFile:
        """The writer's file: reads see the store as it is; use
        :meth:`snapshot`.  Its ``block_cache`` is the one every view
        shares."""
        return self._ifile

    @property
    def n_records(self) -> int:
        return self._ifile.n_records

    @property
    def n_nodes(self) -> int:
        return self._ifile.n_nodes


class _Reads:
    """The read surface: compile once, run on every partition view of
    one pinned :class:`Snapshot`, merge.

    Both users supply ``_index`` and an ``_acquire()`` /
    ``_release(snap)`` pair: :class:`NestedSetIndex` pins per call
    (sharing one pin per committed version); a held :class:`Snapshot`
    answers from itself.  Either way every partition of one call
    observes the same committed version.
    """

    def _fan_out(self, task: Callable[[PartitionView], object]) -> list:
        """Run ``task`` once per partition view, in partition order."""
        snap = self._acquire()
        try:
            return [task(view) for view in snap.views]
        finally:
            self._release(snap)

    def _merge(self, outcomes: list
               ) -> tuple[list[list[str]], ExecCounters]:
        """Per-partition ``(key lists, counters)`` into one of each;
        the counters also accumulate on the index."""
        if len(outcomes) == 1:      # one partition: both are the answer
            merged, counters = outcomes[0]
        else:
            counters = ExecCounters.merged(
                [part_counters for _results, part_counters in outcomes])
            # Partitions are disjoint in keys, so a flat sort of the
            # concatenation is the exact answer.
            merged = [sorted(key for part in parts for key in part)
                      for parts in zip(*(results for results, _counters
                                         in outcomes))]
        index = self._index
        with index._counters_lock:
            index.counters.merge(counters)
        return merged, counters

    def run_plans(self, plans: Sequence[ExecutionPlan]
                  ) -> tuple[list[list[str]], ExecCounters]:
        """Run pre-compiled plans on every partition, each on its own
        (the paper's loop over Q); merge.

        Every partition gets its own execution context over the one
        pinned version.  Returns per-plan merged key lists plus this
        call's merged counters (also accumulated into
        :attr:`NestedSetIndex.counters`).
        """
        def run(view: PartitionView):
            ctx = view.execution_context()
            return [plan.run(ctx) for plan in plans], ctx.counters

        return self._merge(self._fan_out(run))

    def run_shared(self, fold: QueryFold,
                   evaluate: Callable[[ExecutionContext], list[list[str]]]
                   ) -> tuple[list[list[str]], ExecCounters]:
        """A batch that shares work across its queries, on every
        partition; merge.

        ``evaluate`` answers ``fold.distinct`` on one partition's
        context, which carries a cross-query subquery memo of its own
        (node ids are partition-local, so memos cannot be shared).
        Each distinct query is thus evaluated and mapped to keys once
        per partition; the folded copies are charged to the counters
        (:meth:`QueryFold.charge`) and the answers come back one per
        distinct query (:meth:`QueryFold.unfold` puts them back onto
        the input positions).
        """
        def run(view: PartitionView):
            ctx = view.execution_context(memo={})
            results = evaluate(ctx)
            fold.charge(ctx.counters)
            return results, ctx.counters

        return self._merge(self._fan_out(run))

    def query(self, query: object, *, algorithm: str | None = None,
              semantics: str = "hom", join: str = "subset",
              epsilon: int = 1, mode: str = "root",
              use_bloom: bool = False) -> list[str]:
        """Evaluate ``query ⋉ S``; returns sorted matching record keys.

        ``algorithm`` is one of ``bottomup`` / ``topdown`` /
        ``topdown-paper`` / ``naive``; left unset, the compiler picks
        (:func:`~repro.core.exec.compiler.pick_algorithm`: top-down for
        the ``subset`` and ``equality`` joins, bottom-up for
        ``superset`` and ``overlap``) and the plan and EXPLAIN name the
        pick.  The query is compiled into an
        :class:`~repro.core.exec.plan.ExecutionPlan` and run against one
        pinned version; use :meth:`NestedSetIndex.compile` to inspect
        the plan and :meth:`explain` for a full evaluation trace.
        """
        spec = QuerySpec(semantics=semantics, join=join, epsilon=epsilon,
                         mode=mode)
        plan = compile_query(query, spec, algorithm=algorithm,
                             use_bloom=use_bloom)
        return self.run_plans([plan])[0][0]

    def query_batch(self, queries: Sequence[object], *,
                    share_subqueries: bool = True,
                    algorithm: str | None = None, semantics: str = "hom",
                    join: str = "subset", epsilon: int = 1,
                    mode: str = "root", use_bloom: bool = False
                    ) -> list[list[str]]:
        """Evaluate a workload of queries (the paper times 100 at a time).

        Every answer in the batch reflects the same index version even
        while writers commit concurrently, one list per query in input
        order.  Results are identical whatever the options below
        (tested property).

        ``share_subqueries`` (on by default) shares work across the
        batch at two levels.  Whole queries, under any algorithm: a
        query that repeats in the batch is compiled, evaluated and
        mapped to keys once per partition, and each repeat gets a copy
        of the answer (:class:`~repro.core.batch.QueryFold`).  Repeated
        *subtrees* of distinct queries, under bottom-up only: each
        partition's plans run the one memo walk
        (:func:`~repro.core.batch.memoized_match_ids`) over a memo the
        whole batch shares, so a subtree is evaluated once per
        partition.  With ``algorithm`` unset the compiler picks per join
        (:meth:`query`), which for ``subset``/``equality`` is top-down:
        each distinct query runs on its own, pruned by its own
        frontier.  Ask for ``algorithm="bottomup"`` when distinct
        queries repeat subtrees (EXPERIMENTS.md BA1, "Top-down by
        default" and "One evaluation per distinct query", has the
        timings).  ``share_subqueries=False`` evaluates every query on
        its own, repeats included.
        """
        spec = QuerySpec(semantics=semantics, join=join, epsilon=epsilon,
                         mode=mode)
        if share_subqueries:
            fold = QueryFold(as_nested_set(query) for query in queries)
            queries = fold.distinct
        plans = [compile_query(query, spec, algorithm=algorithm,
                               use_bloom=use_bloom)
                 for query in queries]
        if not share_subqueries:
            return self.run_plans(plans)[0]
        return fold.unfold(self.run_shared(
            fold, lambda ctx: [plan.run(ctx) for plan in plans])[0])

    def explain(self, query: object, *, algorithm: str | None = None,
                semantics: str = "hom", join: str = "subset",
                epsilon: int = 1, mode: str = "root",
                use_bloom: bool = False
                ) -> ExplainResult | MergedExplainResult:
        """Trace one query's evaluation (works for every algorithm).

        The trace observes the real execution through the context, so
        ``explain(...).matches`` always equals ``query(...)`` with the
        same options.  One partition yields its
        :class:`ExplainResult`; several, one trace each under a merged
        header.
        """
        spec = QuerySpec(semantics=semantics, join=join, epsilon=epsilon,
                         mode=mode)
        plan = compile_query(query, spec, algorithm=algorithm,
                             use_bloom=use_bloom)
        started = time.perf_counter()
        traces = self._fan_out(
            lambda view: run_explained(plan, view.execution_context()))
        return merge_explains(traces,
                              (time.perf_counter() - started) * 1000)

    def match_nodes(self, query: object, *, algorithm: str | None = None,
                    spec: QuerySpec = QuerySpec()) -> set[int]:
        """Raw node-level result: ids at which the query embeds.

        Node ids are partition-local: defined for a one-partition index,
        :class:`~repro.core.shard.ShardError` otherwise.
        """
        self._index._sole_partition("match_nodes")
        plan = compile_query(query, spec, algorithm=algorithm)
        return self._fan_out(
            lambda view: plan.match_nodes(view.execution_context()))[0]

    def containment_join(self, queries: Iterable[tuple[str, object]],
                         **options: object) -> list[tuple[str, str]]:
        """Equation 1: all pairs ``(q.key, s.key)`` with ``q ⊆ s``.

        Accepts the same options as :meth:`query_batch` (including
        ``share_subqueries``); the whole join runs through one compiled
        batch against one pinned version.  See
        :func:`repro.core.join.containment_join` for the strategy-level
        executor with counters.
        """
        materialized = [(qkey, query) for qkey, query in queries]
        results = self.query_batch([query for _qkey, query in materialized],
                                   **options)
        return [(qkey, skey)
                for (qkey, _query), result in zip(materialized, results)
                for skey in result]

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


class Snapshot(_Reads):
    """A consistent read view of an index, pinned at one version.

    Obtained from :meth:`NestedSetIndex.snapshot`: the base store pinned
    **once**, and one :class:`PartitionView` per partition over that one
    pin.  Every read method runs entirely against the pinned version, so
    writers commit freely while this handle is open and the answers
    never mix two states.  Close it (or use it as a context manager) to
    release the pin.
    """

    def __init__(self, index: "NestedSetIndex", base: KVStore,
                 pinned: KVStore, views: list[PartitionView]) -> None:
        self._index = index
        self._base = base
        self._pinned = pinned
        self.views = views
        #: The pinned base-store version.
        self.version: int = pinned.version
        #: Sharing bookkeeping of the index's per-version pin (guarded
        #: by its ``_pin_lock``; unused on a handle the caller holds).
        self.refs = 1
        self.retired = False
        self._closed = False

    @property
    def n_records(self) -> int:
        return sum(view.n_records for view in self.views)

    @property
    def n_nodes(self) -> int:
        return sum(view.n_nodes for view in self.views)

    def _acquire(self) -> "Snapshot":
        return self

    def _release(self, snap: "Snapshot") -> None:
        pass

    def close(self) -> None:
        """Release the version pin (idempotent) and, after a concurrent
        ``compact``/``close`` of the index, the retired base store."""
        if self._closed:
            return
        self._closed = True
        for view in self.views:
            view.close()
        self._pinned.close()
        self._index._release_base(self._base)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class NestedSetIndex(_Reads):
    """A queryable containment index over a collection of nested sets.

    Thread-safety: reads are **version-based, not lock-based**.  Every
    read entry point (``query``, ``query_batch``, ``explain``,
    ``match_nodes``, the joins) runs against a :class:`Snapshot` pinned
    at the base store's committed version without blocking -- or being
    blocked by -- mutations, which serialize among themselves on the
    writer mutex and commit through the store's MVCC machinery, each as
    one :func:`commit_group` whatever partitions it touches.  The shared
    caches are epoch-scoped (:mod:`repro.core.snapshot`), so a commit
    invalidates nothing for in-flight readers.  The store must version
    its commits (every built-in store does): one whose ``mvcc_info()``
    is ``None`` is refused at construction.
    """

    def __init__(self, base_store: KVStore,
                 partitions: Sequence[Partition]) -> None:
        if not partitions:
            raise ShardError("an index needs at least one partition")
        require_snapshots(base_store)
        self._base = base_store
        self._partitions = tuple(partitions)
        #: Serializes mutations (route + partition writes + commit as
        #: one unit): reads take no lock, so this mutex is the only
        #: writer-writer coordination.
        self._writer_mutex = threading.Lock()
        #: Guards which generation is live (``_base`` and the partitions'
        #: wiring) and the snapshot refcounts per base store; a compact
        #: retires the old base, which closes when the last snapshot
        #: over it is released.
        self._gen_lock = threading.Lock()
        self._base_counts: dict[KVStore, int] = {}
        self._retired: set[KVStore] = set()
        #: Cumulative, workload-level counters merged from every fan-out.
        self.counters = ExecCounters()
        self._counters_lock = threading.Lock()
        #: One shared snapshot per committed version (:meth:`_acquire`):
        #: queries refcount it on a dedicated lock instead of pinning
        #: the base per call, keeping reader traffic off the locks the
        #: writer's put path needs (per-query pin churn convoys with the
        #: GIL and can starve writers almost completely).
        self._pin_lock = threading.Lock()
        self._shared_pin: Snapshot | None = None

    @property
    def _index(self) -> "NestedSetIndex":
        return self

    # -- construction ------------------------------------------------------

    @classmethod
    def _build(cls, records: Iterable[tuple[str, object]], *,
               block_size: int, memory_budget: int | None = None,
               storage: str, path: str | None, shards: int,
               store_options: dict,
               cache: str | None, cache_budget: int,
               bloom: str | None = None,
               bloom_bits: int = 512) -> "NestedSetIndex":
        """Partition ``records``, write one inverted file per partition
        (:func:`~repro.core.updates.write_index`) into one fresh store,
        publish the layout last.

        Partition builds run sequentially: they write interleaved key
        ranges into the shared base store, and the disk pagers are not
        safe for concurrent writers.
        """
        if shards < 1:
            raise ShardError("shards must be >= 1")
        if shards == 1:
            buckets: list = [records]       # streamed, never materialized
        else:
            buckets = [[] for _ in range(shards)]
            for key, value in records:
                buckets[shard_of(key, shards)].append((key, value))
        base = open_store(storage, path, create=True, **store_options)
        stores = partition_stores(base, shards if shards > 1 else None)
        partitions = [
            Partition(
                InvertedFile(write_index(
                    bucket, store=store, block_size=block_size,
                    memory_budget=memory_budget)),
                cache=cache, bloom=bloom, bloom_bits=bloom_bits,
                cache_budget=max(1, cache_budget // shards))
            for bucket, store in zip(buckets, stores)]
        if shards > 1:
            commit_manifest(base, shards)
        return cls(base, partitions)

    @classmethod
    def build(cls, records: Iterable[tuple[str, object]], *,
              storage: str = "memory", path: str | None = None,
              cache: str | None = None, cache_budget: int = PAPER_BUDGET,
              bloom: str | None = None, bloom_bits: int = 512,
              block_size: int = DEFAULT_BLOCK_SIZE,
              shards: int = 1,
              **store_options: object) -> "NestedSetIndex":
        """Index ``(key, nested-set)`` records.

        ``cache``: None/"none", "frequency" (the paper's policy) or "lru".
        ``bloom``: None, "flat", "breadth" or "depth" -- builds per-record
        prefilters consumed by the naive algorithm.
        ``block_size``: postings per block of a stored posting list.
        ``shards``: how many partitions the records are split across
        (by :func:`~repro.core.shard.shard_of`); 1 stores the paper's
        one inverted file, more store one namespace each plus a
        manifest.
        """
        return cls._build(
            records, block_size=block_size,
            storage=storage, path=path, shards=shards,
            store_options=store_options,
            cache=cache, cache_budget=cache_budget, bloom=bloom,
            bloom_bits=bloom_bits)

    @classmethod
    def build_external(cls, records: Iterable[tuple[str, object]], *,
                       storage: str = "memory", path: str | None = None,
                       memory_budget: int | None = None,
                       cache: str | None = None,
                       cache_budget: int = PAPER_BUDGET,
                       block_size: int = DEFAULT_BLOCK_SIZE,
                       shards: int = 1,
                       **store_options: object) -> "NestedSetIndex":
        """:meth:`build` with a bounded posting buffer.

        Use for collections whose posting lists don't fit in memory; see
        :func:`repro.core.updates.build_external`.  ``memory_budget``
        counts buffered postings (default 500k entries) and is split
        evenly across the ``shards`` partition builds.
        """
        if memory_budget is None:
            memory_budget = DEFAULT_MEMORY_BUDGET
        return cls._build(
            records, block_size=block_size,
            memory_budget=memory_budget // shards or memory_budget,
            storage=storage, path=path, shards=shards,
            store_options=store_options,
            cache=cache, cache_budget=cache_budget)

    @classmethod
    def open(cls, storage: str, path: str, *,
             cache: str | None = None, cache_budget: int = PAPER_BUDGET,
             bloom: str | None = None, bloom_bits: int = 512,
             **store_options: object) -> "NestedSetIndex":
        """Reopen a disk-resident index built earlier (see
        :meth:`from_store`)."""
        store = open_store(storage, path, create=False, **store_options)
        return cls.from_store(store, cache=cache, cache_budget=cache_budget,
                              bloom=bloom, bloom_bits=bloom_bits)

    @classmethod
    def from_store(cls, store: KVStore, *,
                   cache: str | None = None,
                   cache_budget: int = PAPER_BUDGET,
                   bloom: str | None = None, bloom_bits: int = 512
                   ) -> "NestedSetIndex":
        """Bring up an index over an already-open store.

        The partitions are what the store says: without a manifest its
        key space is one inverted file, with one it names the namespaces
        (a manifest naming another routing than ``hash`` raises
        :class:`~repro.core.shard.ShardError`).  Bloom filters persisted
        at build time reload directly when their kind matches; otherwise
        they are rebuilt from the record table (one sequential scan).
        """
        require_snapshots(store)
        stores = partition_stores(store, read_manifest(store))
        budget = max(1, cache_budget // len(stores))
        partitions = [Partition(InvertedFile(view), cache=cache,
                                cache_budget=budget, bloom=bloom,
                                bloom_bits=bloom_bits)
                      for view in stores]
        return cls(store, partitions)

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Pin the current committed version and return a read handle.

        The base store is pinned exactly once and each partition gets a
        view of that pin, so all partitions observe the same committed
        version even while the writer commits between per-partition
        tasks.  The handle answers from that version no matter how many
        commits land meanwhile; close it to release the pin (and, after
        a concurrent ``compact``, the retired base store).
        """
        with self._gen_lock:
            base = self._base
            pinned = base.snapshot()
            try:
                namespaced = self._partitions[0].inverted_file.store \
                    is not base
                stores = partition_stores(
                    pinned, len(self._partitions) if namespaced else None,
                    pinned=True)
                views = [partition.view(store, pinned.version)
                         for partition, store
                         in zip(self._partitions, stores)]
            except BaseException:
                pinned.close()
                raise
            self._base_counts[base] = self._base_counts.get(base, 0) + 1
        return Snapshot(self, base, pinned, views)

    def _release_base(self, base: KVStore) -> None:
        with self._gen_lock:
            count = self._base_counts.get(base, 0) - 1
            if count > 0:
                self._base_counts[base] = count
                return
            self._base_counts.pop(base, None)
            close_now = base in self._retired
            self._retired.discard(base)
        if close_now:
            base.close()

    def _retire_base(self) -> KVStore | None:
        """(Under ``_gen_lock``.)  Retire the live base store: returned
        when it can close now, else closed by the last snapshot over it
        as that is released."""
        if self._base_counts.get(self._base, 0) > 0:
            self._retired.add(self._base)
            return None
        return self._base

    # -- shared pin ---------------------------------------------------------
    # One-shot reads do not open a private snapshot each: they share a
    # single refcounted snapshot of the latest committed version,
    # re-pinned only when the version advances.  Steady-state readers
    # then touch exactly one lock (``_pin_lock``), which the writer's
    # put path never takes -- per-query pin/unpin churn through
    # writer-shared locks convoys with the GIL badly enough to starve a
    # background writer thread outright.

    def _acquire(self) -> Snapshot:
        # Lock-free committed-version read: a racing commit publishes
        # its bump as one atomic attribute store, so we see either the
        # old or the new version -- both servable (read-your-writes for
        # the committing thread holds because the bump happens-before
        # its next query under the GIL).
        version = self._base.current_version()
        close_old = None
        with self._pin_lock:
            cur = self._shared_pin
            if cur is not None and not cur.retired \
                    and cur.version == version \
                    and cur._base is self._base:
                cur.refs += 1
                return cur
            pin = self._shared_pin = self.snapshot()
            if cur is not None:
                cur.retired = True
                if cur.refs == 0:
                    close_old = cur
        if close_old is not None:
            close_old.close()
        return pin

    def _release(self, snap: Snapshot) -> None:
        with self._pin_lock:
            snap.refs -= 1
            close_now = snap.refs == 0 and snap.retired
        if close_now:
            snap.close()

    def _retire_shared_pin(self) -> None:
        """Drop the cached shared pin (mutations/compact/close): the
        next reader re-pins at the then-current state.
        Without this a stale pin would force pre-image capture on every
        subsequent page write (unbounded history growth under
        write-only loads)."""
        with self._pin_lock:
            cur = self._shared_pin
            self._shared_pin = None
            if cur is None:
                return
            cur.retired = True
            close_now = cur.refs == 0
        if close_now:
            cur.close()

    # -- querying (the read methods are :class:`_Reads`') -------------------

    def compile(self, query: object, *, algorithm: str | None = None,
                semantics: str = "hom", join: str = "subset",
                epsilon: int = 1, mode: str = "root",
                use_bloom: bool = False) -> ExecutionPlan:
        """Compile a query without running it (validation + plan); the
        plan is partition-independent."""
        spec = QuerySpec(semantics=semantics, join=join, epsilon=epsilon,
                         mode=mode)
        return compile_query(query, spec, algorithm=algorithm,
                             use_bloom=use_bloom)

    # -- updates -------------------------------------------------------------

    @contextmanager
    def _mutation(self, label: bytes) -> Iterator[None]:
        """One writer at a time, one commit group on the base store.

        On journaled stores the group is one write-ahead-log group with
        one commit fsync however its writes scatter across partitions:
        a crash at any point leaves the index wholly without or with
        it, readers observe none of it or all of it, and the store
        version advances once.  A group that raises writes nothing and
        :meth:`reload_live_state` leaves every partition as the store
        has it; only a group that landed carries the warm lists it
        appended to forward (:meth:`Partition.end_group`).
        """
        with self._writer_mutex:
            landed = False
            try:
                with commit_group(self._base, label,
                                  self.reload_live_state):
                    yield
                landed = True
            finally:
                for partition in self._partitions:
                    partition.end_group(landed)
                # The commit advanced the version, so the cached shared
                # pin can never be reused -- retire it now.
                self._retire_shared_pin()

    def reload_live_state(self) -> None:
        """Re-derive every partition's live in-memory objects from the
        store as it is (an aborted commit group; a replicated apply)."""
        for partition in self._partitions:
            partition.reload_live_state()
        self._retire_shared_pin()

    def insert(self, key: str, value: object) -> int:
        """Add one record to the live index; returns its ordinal within
        the owning partition.  A commit group of one: see
        :meth:`insert_batch`."""
        return self._insert_group([(key, value)], b"insert")[0]

    def insert_batch(self, records: Iterable[tuple[str, object]]
                     ) -> list[int]:
        """Insert several records as **one** WAL commit group.

        Each partition's writer numbers and buffers its slice, then
        writes it: every posting list the slice touches once, the
        node-metadata tail, ALL/ZERO, the statistics delta, the Bloom
        filter appends and the configuration once.  Only the owning
        partitions' cached results go stale; the others' stay warm.  A
        group that raises (a duplicate key, say) writes nothing and
        leaves the index as it found it.
        """
        return self._insert_group(records, b"ingest")

    def _insert_group(self, records: Iterable[tuple[str, object]],
                      label: bytes) -> list[int]:
        materialized = [(key, as_nested_set(value))
                        for key, value in records]
        with self._mutation(label):
            # Route first, then hand each partition its whole slice.
            n_shards = len(self._partitions)
            slices: dict[int, list[int]] = {}
            for pos, (key, _tree) in enumerate(materialized):
                slices.setdefault(shard_of(key, n_shards), []).append(pos)
            ordinals = [0] * len(materialized)
            for shard_no, positions in slices.items():
                inserted = self._partitions[shard_no].insert_group(
                    [materialized[pos] for pos in positions])
                for pos, ordinal in zip(positions, inserted):
                    ordinals[pos] = ordinal
        return ordinals

    def delete(self, key: str) -> bool:
        """Tombstone the record with ``key`` in the partition that owns
        it; see repro.core.updates."""
        with self._mutation(b"delete"):
            return self._partitions[
                shard_of(key, len(self._partitions))].delete(key)

    def compact(self, *, storage: str = "memory",
                path: str | None = None,
                **store_options: object) -> None:
        """Rebuild the index from live records, dropping tombstones.

        Every partition is rebuilt into one fresh base store and the
        index swaps to it in place; disk targets need a new ``path`` (a
        store cannot be rebuilt into its own open file).  Snapshots
        pinned on the old base keep answering from it; it closes when
        the last of them is released.
        """
        with self._writer_mutex:
            n_shards = len(self._partitions)
            fresh_base = open_store(storage, path, create=True,
                                    **store_options)
            stores = partition_stores(fresh_base,
                                      n_shards if n_shards > 1 else None)
            rebuilt = [partition.rebuilt(store) for partition, store
                       in zip(self._partitions, stores)]
            if n_shards > 1:
                # Last: until it lands the fresh store is not a valid
                # index and the old store is still whole.
                commit_manifest(fresh_base, n_shards)
            # Drop the cached shared pin first: it holds a base
            # refcount, and closing it here (when idle) lets the old
            # base close immediately below instead of deferring.
            self._retire_shared_pin()
            with self._gen_lock:
                idle = self._retire_base()
                self._base = fresh_base
                for partition, (fresh, bloom) in zip(self._partitions,
                                                     rebuilt):
                    partition.adopt(fresh, bloom)
            if idle is not None:
                idle.close()

    # -- replication hooks ----------------------------------------------------
    # All partitions share one base store / one pager / one shipped log,
    # so one replicated commit group can touch any of them.

    def note_replicated_apply(self, version: int) -> None:
        """Replica-side pre-apply hook (see
        :meth:`Partition.note_replicated_apply`)."""
        for partition in self._partitions:
            partition.note_replicated_apply(version)

    def finish_replicated_apply(self) -> None:
        """Replica-side post-apply hook: everything the live objects
        computed came from pages the apply just rewrote; reloading keeps
        the index answering correctly the moment it serves -- including
        right after a promotion turns mutations back on."""
        self.reload_live_state()

    # -- caches ---------------------------------------------------------------

    def set_cache(self, policy: str | None,
                  budget: int = PAPER_BUDGET) -> None:
        """Re-pin every partition's block cache under ``policy``
        (``budget`` split evenly across partitions), open snapshots
        included: the experiment harness swaps policies on the *same*
        built index instead of rebuilding it."""
        share = max(1, budget // len(self._partitions))
        with self._writer_mutex:
            for partition in self._partitions:
                partition.set_cache(policy, share)

    # -- statistics -------------------------------------------------------------

    def collection_stats(self) -> CollectionStats:
        """Live-frequency statistics over the whole collection."""
        return CollectionStats.merged(
            [partition.collection_stats()
             for partition in self._partitions])

    def frequencies(self) -> list[tuple[object, int]]:
        """Raw document frequencies over the whole collection,
        descending (CLI ``info`` surface)."""
        parts = [partition.inverted_file.frequencies()
                 for partition in self._partitions]
        if len(parts) == 1:
            return parts[0]
        merged: dict[object, int] = {}
        for part in parts:
            for atom, count in part:
                merged[atom] = merged.get(atom, 0) + count
        return sorted(merged.items(),
                      key=lambda item: (-item[1], str(item[0])))

    def stats(self) -> dict[str, dict[str, object]]:
        """Index / cache / store counters, for reports and experiments."""
        ifiles = [partition.inverted_file for partition in self._partitions]
        index: dict[str, object] = {"records": self.n_records,
                                    "nodes": self.n_nodes}
        for counter in fields(QueryStats):
            index[counter.name] = sum(getattr(ifile.stats, counter.name)
                                      for ifile in ifiles)
        caches = [ifile.block_cache for ifile in ifiles]
        hits = sum(cache.stats.hits for cache in caches)
        misses = sum(cache.stats.misses for cache in caches)
        out: dict[str, dict[str, object]] = {
            "index": index,
            "cache": {
                "policy": self._partitions[0]._cache_policy[0] or "none",
                "pinned": sum(len(cache.pins) for cache in caches),
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            },
            "store": self._base.stats.snapshot(),
            "shards": {
                "count": len(self._partitions),
                "exec": self.counters.snapshot(),
                # How each partition reached its lists: store gets of a
                # list value vs. warm lists handed out without one.
                "partitions": [{"list_fetches": ifile.stats.list_fetches,
                                "directory_hits": ifile.stats.directory_hits}
                               for ifile in ifiles],
            },
        }
        wal = self._base.wal_info()
        if wal is not None:
            out["wal"] = wal
        mvcc = self._base.mvcc_info()
        with self._gen_lock:
            mvcc["open_snapshots"] = sum(self._base_counts.values())
            mvcc["retired_generations"] = len(self._retired)
        out["mvcc"] = mvcc
        return out

    def reset_stats(self) -> None:
        """Zero all query-time counters (between experiment runs),
        the shared base store's that ``stats()["store"]`` reports
        included."""
        for partition in self._partitions:
            partition.inverted_file.reset_stats()
        self._base.stats.reset()
        self.counters = ExecCounters()

    # -- introspection ----------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self._partitions)

    @property
    def shards(self) -> tuple[Partition, ...]:
        """The partitions, in shard-number order."""
        return self._partitions

    @property
    def base_store(self) -> KVStore:
        """The one physical store every partition lives in."""
        return self._base

    def _sole_partition(self, what: str) -> Partition:
        if len(self._partitions) > 1:
            raise ShardError(
                f"{what} is not defined on an index of "
                f"{len(self._partitions)} partitions: node ids are "
                "partition-local; use an individual one via .shards[i]")
        return self._partitions[0]

    @property
    def inverted_file(self) -> InvertedFile:
        """The writer's inverted file of a one-partition index
        (:attr:`Partition.inverted_file`)."""
        return self._sole_partition("inverted_file").inverted_file

    @property
    def n_records(self) -> int:
        return sum(partition.n_records for partition in self._partitions)

    @property
    def n_nodes(self) -> int:
        return sum(partition.n_nodes for partition in self._partitions)

    def records(self) -> Iterator[tuple[str, NestedSet]]:
        """Iterate ``(key, tree)`` over the indexed collection as one
        committed version holds it, partition by partition.  The version
        stays pinned until the iteration ends or the generator is
        closed."""
        with self.snapshot() as snap:
            for view in snap.views:
                for _ordinal, key, _root, tree in \
                        view.inverted_file.iter_records():
                    yield key, tree

    # -- lifecycle ------------------------------------------------------------------

    def close(self) -> None:
        self._retire_shared_pin()
        with self._gen_lock:
            idle = self._retire_base()
        if idle is not None:
            idle.close()

    def __enter__(self) -> "NestedSetIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

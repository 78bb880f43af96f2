"""Public facade: build, open, and query a nested-set containment index.

:class:`NestedSetIndex` wires together the inverted file, the list cache
(Section 3.3), the Bloom prefilters (Section 3.3), the two containment
algorithms (Section 3) and their extensions (Section 4) behind a small
surface::

    from repro import NestedSetIndex

    index = NestedSetIndex.build(records)           # in-memory
    index.query("{USA, {UK, {A, motorbike}}}")      # -> ['tim']
    index.query(q, algorithm="topdown", semantics="homeo")
    index.query(q, join="overlap", epsilon=2)

Disk-resident indexes (``storage="diskhash"`` or ``"btree"``) persist and
reopen via :meth:`NestedSetIndex.open`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from ..storage import KVStore, StorageError
from .bloom import BloomIndex
from ..storage.codec import DEFAULT_BLOCK_SIZE
from .cache import PAPER_BUDGET, ListCache, make_cache
from .exec.compiler import ALGORITHMS, compile_query
from .exec.context import ExecutionContext
from .exec.observer import ExplainResult, run_explained
from .exec.plan import ExecutionPlan
from .invfile import InvertedFile
from .matchspec import QuerySpec
from .model import NestedSet, as_nested_set
from .resultcache import ResultCache
from .snapshot import ModEpochs, SharedIndexState, SnapshotInvertedFile, \
    SnapshotListCache
from .stats import CollectionStats
from .updates import IndexWriter

if TYPE_CHECKING:
    from .shard import ShardedIndex

__all__ = ["ALGORITHMS", "NestedSetIndex", "Snapshot", "as_nested_set"]

#: Reserved epoch token bumped by *every* mutation of one engine
#: (inserts and deletes alike).  Its floor at a pinned version counts
#: the mutations of this engine visible there, and scopes the result
#: cache and statistics memo: two versions with an equal floor saw the
#: identical index state, so commits elsewhere in a shared store (e.g.
#: sibling shards) do not thrash this engine's cached results.
_RESULT_EPOCH = "\x00index"


@contextmanager
def commit_group(store: KVStore, label: bytes,
                 roll_back: Callable[[], None]) -> Iterator[None]:
    """One store transaction whose failure also rolls back live objects.

    When the block raises, the store discards the group, but whatever
    the block advanced in memory (an inverted file's counters, a
    writer's pending buffers, Bloom filters) is still ahead of it;
    ``roll_back()`` runs after the abort and re-derives that state from
    the store.  A failure inside the commit itself is left alone, like
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
    """The index facades read through pinned versions and take no lock
    against writers, so a store that cannot pin one is refused."""
    if store.mvcc_info() is None:
        raise StorageError(
            f"{type(store).__name__} does not version its commits "
            "(mvcc_info() is None); an index needs a store with "
            "snapshot support")


class _SharedPin:
    """A refcounted :class:`Snapshot` shared by every query at one
    committed version (guarded by the engine's ``_pin_lock``)."""

    __slots__ = ("snap", "version", "generation", "refs", "retired")

    def __init__(self, snap: "Snapshot", version: int,
                 generation: "InvertedFile") -> None:
        self.snap = snap
        self.version = version
        self.generation = generation
        self.refs = 1
        self.retired = False


class Snapshot:
    """A consistent read view of one index, pinned at one version.

    Obtained from :meth:`NestedSetIndex.snapshot`; every read method
    runs entirely against the pinned version, so writers commit freely
    while this handle is open and the answers never mix two states.
    Close it (or use it as a context manager) to release the pin.
    """

    def __init__(self, engine: "NestedSetIndex",
                 ifile: SnapshotInvertedFile, version: int,
                 generation: InvertedFile) -> None:
        self._engine = engine
        self._ifile = ifile
        self.version = version
        self._generation = generation
        self._bloom = engine._bloom
        result_cache = engine._result_cache
        if result_cache is not None:
            # Scope entries to (generation, mutation floor): a commit
            # starts a fresh key space instead of invalidating, and a
            # slow reader can only re-populate its own floor's entries.
            floor = engine._epochs.floor(_RESULT_EPOCH, version)
            result_cache = result_cache.at_version((id(generation), floor))
        self._result_cache = result_cache
        self._closed = False

    # -- introspection -----------------------------------------------------

    @property
    def inverted_file(self) -> SnapshotInvertedFile:
        return self._ifile

    @property
    def n_records(self) -> int:
        return self._ifile.n_records

    @property
    def n_nodes(self) -> int:
        return self._ifile.n_nodes

    # -- reads -------------------------------------------------------------

    def execution_context(self, *, observer=None,
                          memo: dict | None = None) -> ExecutionContext:
        """An execution context bound to this pinned view."""
        engine = self._engine
        return ExecutionContext(
            ifile=self._ifile, bloom_index=self._bloom,
            result_cache=self._result_cache,
            stats_provider=lambda: engine._snapshot_stats(
                self._ifile, self._generation),
            observer=observer, memo=memo)

    def query(self, query: object, *, algorithm: str = "bottomup",
              semantics: str = "hom", join: str = "subset",
              epsilon: int = 1, mode: str = "root",
              use_bloom: bool = False,
              planner: str | None = None) -> list[str]:
        """Evaluate one query against the pinned version."""
        spec = QuerySpec(semantics=semantics, join=join, epsilon=epsilon,
                         mode=mode)
        plan = compile_query(query, spec, algorithm=algorithm,
                             planner=planner, use_bloom=use_bloom)
        return plan.run(self.execution_context())

    def query_batch(self, queries: Sequence[object], *,
                    share_subqueries: bool = True,
                    algorithm: str = "bottomup", semantics: str = "hom",
                    join: str = "subset", epsilon: int = 1,
                    mode: str = "root", use_bloom: bool = False,
                    planner: str | None = None) -> list[list[str]]:
        """Evaluate a workload; every answer reflects the same version."""
        spec = QuerySpec(semantics=semantics, join=join, epsilon=epsilon,
                         mode=mode)
        plans = [compile_query(query, spec, algorithm=algorithm,
                               planner=planner, use_bloom=use_bloom)
                 for query in queries]
        memo: dict | None = None
        if share_subqueries and plans and \
                all(plan.match.memoizable for plan in plans):
            memo = {}
        ctx = self.execution_context(memo=memo)
        return [plan.run(ctx) for plan in plans]

    def explain(self, query: object, *, algorithm: str = "bottomup",
                semantics: str = "hom", join: str = "subset",
                epsilon: int = 1, mode: str = "root",
                use_bloom: bool = False,
                planner: str | None = None) -> ExplainResult:
        """Trace one query's evaluation against the pinned version."""
        spec = QuerySpec(semantics=semantics, join=join, epsilon=epsilon,
                         mode=mode)
        plan = compile_query(query, spec, algorithm=algorithm,
                             planner=planner, use_bloom=use_bloom,
                             cacheable=False)
        return run_explained(plan, self.execution_context())

    def match_nodes(self, query: object, *, algorithm: str = "bottomup",
                    spec: QuerySpec = QuerySpec(),
                    planner: str | None = None) -> set[int]:
        """Raw node-level result at the pinned version."""
        plan = compile_query(query, spec, algorithm=algorithm,
                             planner=planner, cacheable=False)
        return plan.match_nodes(self.execution_context())

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the version pin (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._ifile.close()
        self._engine._release_generation(self._generation)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def list_cache_for(ifile: InvertedFile, policy: str | None,
                   budget: int) -> ListCache:
    """The ``policy`` list cache for ``ifile``.

    Only the frequency policy reads the document-frequency table, so
    only it pays for decoding one (most of an ``open`` otherwise).
    """
    frequencies = ifile.frequencies() if policy == "frequency" else ()
    return make_cache(policy, frequencies=frequencies, budget=budget)


class NestedSetIndex:
    """A queryable containment index over a collection of nested sets.

    Thread-safety: reads are **version-based, not lock-based**.  Every
    public query entry point (``query``, ``query_batch``, ``explain``,
    ``match_nodes``) opens a :class:`Snapshot` pinned at the store's
    committed version and runs against it without blocking -- or being
    blocked by -- mutations, which serialize among themselves on a
    writer mutex and commit through the store's MVCC machinery.  The
    shared caches are epoch-scoped (:mod:`repro.core.snapshot`), so a
    commit invalidates nothing for in-flight readers.  The store must
    version its commits (every built-in store does): one whose
    ``mvcc_info()`` is ``None`` is refused at construction.
    """

    def __init__(self, ifile: InvertedFile,
                 bloom_index: BloomIndex | None = None) -> None:
        self._ifile = ifile
        self._bloom = bloom_index
        self._stats: CollectionStats | None = None
        self._writer: IndexWriter | None = None
        self._result_cache: ResultCache | None = None
        require_snapshots(ifile.store)
        #: Serializes mutations (and deferred-statistics flushes): reads
        #: take no lock, so this mutex is the only writer-writer
        #: coordination.
        self._writer_mutex = threading.Lock()
        self._wire_generation(ifile, ModEpochs(), SharedIndexState())
        #: Snapshot refcounts per index generation; a compact retires
        #: the old generation and its store closes when the last pinned
        #: snapshot over it drains.
        self._gen_lock = threading.Lock()
        self._gen_counts: dict[InvertedFile, int] = {}
        self._retired: set[InvertedFile] = set()
        self._memo_lock = threading.Lock()
        self._stats_memo: dict[tuple[int, int], CollectionStats] = {}
        #: One shared snapshot per committed version (see :meth:`_pinned`):
        #: queries refcount it on a dedicated lock instead of opening a
        #: pin per call, keeping reader traffic off the locks the
        #: writer's put path needs (per-query pin churn convoys with the
        #: GIL and can starve writers almost completely).
        self._pin_lock = threading.Lock()
        self._shared_pin: _SharedPin | None = None

    def _wire_generation(self, ifile: InvertedFile, epochs: ModEpochs,
                         shared: SharedIndexState) -> None:
        """Attach the epoch/shared-cache plumbing to a live ifile."""
        self._epochs = epochs
        self._shared = shared
        inner = ifile.cache
        if isinstance(inner, SnapshotListCache):
            inner = inner.inner
        self._list_cache = inner
        ifile.cache = SnapshotListCache(inner, epochs, None)
        ifile._epochs = epochs
        ifile._key_cache = shared.key_cache

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, records: Iterable[tuple[str, object]], *,
              storage: str = "memory", path: str | None = None,
              cache: str | None = None, cache_budget: int = PAPER_BUDGET,
              bloom: str | None = None, bloom_bits: int = 512,
              block_size: int = DEFAULT_BLOCK_SIZE,
              shards: int = 1, workers: int = 1,
              shard_policy: object = "hash",
              **store_options: object) -> "NestedSetIndex | ShardedIndex":
        """Index ``(key, nested-set)`` records.

        ``cache``: None/"none", "frequency" (the paper's policy) or "lru".
        ``bloom``: None, "flat", "breadth" or "depth" -- builds per-record
        prefilters consumed by the naive algorithm.
        ``block_size``: postings per block of a stored posting list.
        ``shards``: > 1 partitions the records across that many
        independent inverted files inside one store and returns a
        :class:`~repro.core.shard.ShardedIndex` (same query surface;
        ``workers`` threads fan queries out, ``shard_policy`` picks the
        partitioner).
        """
        if shards > 1:
            from .shard import ShardedIndex
            return ShardedIndex.build(
                records, shards=shards, workers=workers,
                policy=shard_policy, storage=storage, path=path,
                cache=cache, cache_budget=cache_budget, bloom=bloom,
                bloom_bits=bloom_bits, block_size=block_size,
                **store_options)
        prepared = ((key, as_nested_set(value)) for key, value in records)
        ifile = InvertedFile.build(prepared, storage=storage, path=path,
                                   block_size=block_size, **store_options)
        ifile.cache = list_cache_for(ifile, cache, cache_budget)
        bloom_index = None
        if bloom is not None:
            bloom_index = BloomIndex(bloom, n_bits=bloom_bits)
            for _ordinal, _key, _root, tree in ifile.iter_records():
                bloom_index.add_record(tree)
            bloom_index.save(ifile.store)
        return cls(ifile, bloom_index)

    @classmethod
    def build_external(cls, records, *,
                       storage: str = "memory", path: str | None = None,
                       memory_budget: int | None = None,
                       cache: str | None = None,
                       cache_budget: int = PAPER_BUDGET,
                       block_size: int = DEFAULT_BLOCK_SIZE,
                       shards: int = 1, workers: int = 1,
                       shard_policy: object = "hash",
                       **store_options: object
                       ) -> "NestedSetIndex | ShardedIndex":
        """Bulk-load with a bounded posting buffer (run-merge build).

        Use for collections whose posting lists don't fit in memory; see
        :mod:`repro.core.bulkload`.  ``memory_budget`` counts buffered
        postings (default 500k entries).  ``shards > 1`` splits both the
        records and the budget across that many shard builds and returns
        a :class:`~repro.core.shard.ShardedIndex`.
        """
        if shards > 1:
            from .shard import ShardedIndex
            return ShardedIndex.build_external(
                records, shards=shards, workers=workers,
                policy=shard_policy, storage=storage, path=path,
                memory_budget=memory_budget, cache=cache,
                cache_budget=cache_budget, block_size=block_size,
                **store_options)
        from .bulkload import DEFAULT_MEMORY_BUDGET, build_external
        prepared = ((key, as_nested_set(value)) for key, value in records)
        ifile = build_external(
            prepared, storage=storage, path=path,
            memory_budget=(memory_budget if memory_budget is not None
                           else DEFAULT_MEMORY_BUDGET),
            block_size=block_size, **store_options)
        ifile.cache = list_cache_for(ifile, cache, cache_budget)
        return cls(ifile)

    @classmethod
    def open(cls, storage: str, path: str, *,
             cache: str | None = None, cache_budget: int = PAPER_BUDGET,
             bloom: str | None = None, bloom_bits: int = 512,
             workers: int = 1,
             **store_options: object) -> "NestedSetIndex | ShardedIndex":
        """Reopen a disk-resident index built earlier.

        A store carrying a shard manifest reopens as a
        :class:`~repro.core.shard.ShardedIndex` automatically (``workers``
        sizes its fan-out pool; it is ignored for monolithic indexes).
        Bloom filters persisted at build time reload directly when their
        kind matches; otherwise they are rebuilt from the record table
        (one sequential scan).
        """
        from ..storage import open_store
        from .shard import ShardedIndex, read_manifest
        store = open_store(storage, path, create=False, **store_options)
        if read_manifest(store) is not None:
            return ShardedIndex.from_base_store(
                store, workers=workers, cache=cache,
                cache_budget=cache_budget, bloom=bloom,
                bloom_bits=bloom_bits)
        return cls.from_store(store, cache=cache, cache_budget=cache_budget,
                              bloom=bloom, bloom_bits=bloom_bits)

    @classmethod
    def from_store(cls, store: KVStore, *,
                   cache: str | None = None,
                   cache_budget: int = PAPER_BUDGET,
                   bloom: str | None = None,
                   bloom_bits: int = 512) -> "NestedSetIndex":
        """Wrap an already-open store holding one inverted file.

        The sharded index uses this to bring up each shard over its
        namespaced view of the shared store.
        """
        ifile = InvertedFile(store)
        ifile.cache = list_cache_for(ifile, cache, cache_budget)
        bloom_index = None
        if bloom is not None:
            stored = BloomIndex.load(ifile.store)
            if stored is not None and stored.kind == bloom and \
                    stored.n_bits == bloom_bits:
                bloom_index = stored
            else:
                bloom_index = BloomIndex(bloom, n_bits=bloom_bits)
                for _ordinal, _key, _root, tree in ifile.iter_records():
                    bloom_index.add_record(tree)
                bloom_index.save(ifile.store)
        return cls(ifile, bloom_index)

    # -- snapshots ---------------------------------------------------------

    def open_snapshot(self, store: KVStore | None = None,
                      version: int | None = None) -> Snapshot:
        """Open a pinned read view (see :meth:`snapshot`).

        ``store`` lets a coordinator supply an already-pinned store view
        -- the sharded index pins its base store *once* per fan-out and
        hands each shard engine a namespaced view of that one pin; the
        snapshot then does not own the base pin.
        """
        with self._gen_lock:
            generation = self._ifile
            self._gen_counts[generation] = \
                self._gen_counts.get(generation, 0) + 1
        try:
            snap_store = store if store is not None \
                else generation.store.snapshot()
            pinned = version if version is not None else snap_store.version
            ifile = SnapshotInvertedFile(
                snap_store, list_cache=self._list_cache,
                block_cache=generation.block_cache, shared=self._shared,
                epochs=self._epochs, version=pinned,
                stats=generation.stats)
        except BaseException:
            self._release_generation(generation)
            raise
        return Snapshot(self, ifile, pinned, generation)

    def snapshot(self) -> Snapshot:
        """Pin the current committed version and return a read handle.

        The handle's ``query``/``query_batch``/``explain`` answer from
        that version no matter how many commits land meanwhile; close
        it to release the pin (and, after a concurrent ``compact``, the
        retired generation's store).
        """
        return self.open_snapshot()

    def _release_generation(self, generation: InvertedFile) -> None:
        with self._gen_lock:
            count = self._gen_counts.get(generation, 0) - 1
            if count > 0:
                self._gen_counts[generation] = count
                return
            self._gen_counts.pop(generation, None)
            close_now = generation in self._retired
            self._retired.discard(generation)
        if close_now:
            generation.close()

    # -- shared pin ---------------------------------------------------------
    # One-shot queries do not open a private snapshot each: they share
    # a single refcounted snapshot of the latest committed
    # version, re-pinned only when the version advances.  Steady-state
    # readers then touch exactly one lock (``_pin_lock``), which the
    # writer's put path never takes -- per-query pin/unpin churn through
    # writer-shared locks convoys with the GIL badly enough to starve a
    # background writer thread outright.

    @contextmanager
    def _pinned(self):
        """Context manager yielding a shared snapshot of the latest
        committed version."""
        pin = self._acquire_pin()
        try:
            yield pin.snap
        finally:
            self._release_pin(pin)

    def _acquire_pin(self) -> "_SharedPin":
        # Lock-free committed-version read: a racing commit publishes
        # its bump as one atomic attribute store, so we see either the
        # old or the new version -- both servable (read-your-writes for
        # the committing thread holds because the bump happens-before
        # its next query under the GIL).
        version = self._ifile.store.current_version()
        close_old = None
        with self._pin_lock:
            cur = self._shared_pin
            if cur is not None and not cur.retired \
                    and cur.version == version \
                    and cur.generation is self._ifile:
                cur.refs += 1
                return cur
            snap = self.open_snapshot()
            pin = _SharedPin(snap, snap.version, self._ifile)
            self._shared_pin = pin
            if cur is not None:
                cur.retired = True
                if cur.refs == 0:
                    close_old = cur.snap
        if close_old is not None:
            close_old.close()
        return pin

    def _release_pin(self, pin: "_SharedPin") -> None:
        with self._pin_lock:
            pin.refs -= 1
            close_now = pin.refs == 0 and pin.retired
        if close_now:
            pin.snap.close()

    def _retire_shared_pin(self) -> None:
        """Drop the cached shared pin (compact/close): the next reader
        re-pins against the current generation."""
        with self._pin_lock:
            cur = self._shared_pin
            self._shared_pin = None
            if cur is None:
                return
            cur.retired = True
            close_now = cur.refs == 0
        if close_now:
            cur.snap.close()

    def _snapshot_stats(self, ifile: SnapshotInvertedFile,
                        generation: InvertedFile) -> CollectionStats:
        """Collection statistics at a snapshot's version (memoized)."""
        key = (id(generation),
               self._epochs.floor(_RESULT_EPOCH, ifile.version))
        memo = self._stats_memo.get(key)
        if memo is None:
            memo = CollectionStats.from_inverted_file(ifile)
            with self._memo_lock:
                self._stats_memo[key] = memo
                while len(self._stats_memo) > 8:
                    self._stats_memo.pop(next(iter(self._stats_memo)))
        return memo

    def _note_mutation(self, tokens: set[str],
                       postings_changed: bool) -> None:
        """Writer hook: advance modification epochs pre-commit.

        Called inside the mutation's open transaction, stamped with the
        *upcoming* commit version: a reader pinning the new version
        after the commit lands always computes a post-bump floor, while
        readers at older versions are unaffected (their floors count
        only bumps at or below their pinned version).  Deletes change
        no posting bytes, so they bump only the engine-level
        ``_RESULT_EPOCH`` (tombstones change answers, not lists).
        """
        info = self._ifile.store.mvcc_info()
        upcoming = int(info["snapshot_version"]) + 1
        if postings_changed:
            self._epochs.bump(tokens, upcoming)
        self._epochs.bump((_RESULT_EPOCH,), upcoming)

    # -- querying -----------------------------------------------------------

    def query(self, query: object, *, algorithm: str = "bottomup",
              semantics: str = "hom", join: str = "subset",
              epsilon: int = 1, mode: str = "root",
              use_bloom: bool = False,
              planner: str | None = None) -> list[str]:
        """Evaluate ``query ⋉ S``; returns sorted matching record keys.

        ``planner`` ("selective-first" / "bulky-first" / "text") installs
        a sibling-ordering strategy for the top-down algorithm; see
        :mod:`repro.core.planner`.  The query is compiled into an
        :class:`~repro.core.exec.plan.ExecutionPlan` and run against a
        snapshot pinned for the duration; use :meth:`compile` to inspect
        the plan and :meth:`explain` for a full evaluation trace.
        """
        spec = QuerySpec(semantics=semantics, join=join, epsilon=epsilon,
                         mode=mode)
        plan = compile_query(query, spec, algorithm=algorithm,
                             planner=planner, use_bloom=use_bloom)
        with self._pinned() as snap:
            return plan.run(snap.execution_context())

    def compile(self, query: object, *, algorithm: str = "bottomup",
                semantics: str = "hom", join: str = "subset",
                epsilon: int = 1, mode: str = "root",
                use_bloom: bool = False, planner: str | None = None,
                cacheable: bool = True) -> ExecutionPlan:
        """Compile a query without running it (validation + plan)."""
        spec = QuerySpec(semantics=semantics, join=join, epsilon=epsilon,
                         mode=mode)
        return compile_query(query, spec, algorithm=algorithm,
                             planner=planner, use_bloom=use_bloom,
                             cacheable=cacheable)

    def execution_context(self, *, observer=None,
                          memo: dict | None = None) -> ExecutionContext:
        """A context bound to the *live* index state (legacy surface).

        Prefer :meth:`snapshot` -- a live context offers no isolation
        from concurrent mutations.  Kept for callers
        that coordinate externally (single-threaded experiments).
        """
        return ExecutionContext(
            ifile=self._ifile, bloom_index=self._bloom,
            result_cache=self._result_cache,
            stats_provider=self.collection_stats,
            observer=observer, memo=memo)

    def explain(self, query: object, *, algorithm: str = "bottomup",
                semantics: str = "hom", join: str = "subset",
                epsilon: int = 1, mode: str = "root",
                use_bloom: bool = False,
                planner: str | None = None) -> ExplainResult:
        """Trace one query's evaluation (works for every algorithm).

        The trace observes the real execution through the context, so
        ``explain(...).matches`` always equals ``query(...)`` with the
        same options; the result cache is bypassed so the trace reflects
        a full evaluation.
        """
        with self._pinned() as snap:
            plan = self.compile(query, algorithm=algorithm,
                                semantics=semantics, join=join,
                                epsilon=epsilon, mode=mode,
                                use_bloom=use_bloom, planner=planner,
                                cacheable=False)
            return run_explained(plan, snap.execution_context())

    def enable_result_cache(self, capacity: int = 1024) -> ResultCache:
        """Cache whole query results.

        Entries are scoped to the snapshot version they were computed
        at, so mutations need not (and do not) invalidate them.
        Returns the cache so callers can read its hit statistics; call
        :meth:`disable_result_cache` to turn it off.
        """
        self._result_cache = ResultCache(capacity)
        # The cached shared pin was wired without the cache; drop it so
        # the next query re-wires (same below on disable).
        self._retire_shared_pin()
        return self._result_cache

    def disable_result_cache(self) -> None:
        self._result_cache = None
        self._retire_shared_pin()

    @property
    def result_cache(self) -> ResultCache | None:
        """The active result cache, if enabled (for stats inspection)."""
        return self._result_cache

    def match_nodes(self, query: object, *, algorithm: str = "bottomup",
                    spec: QuerySpec = QuerySpec(),
                    planner: str | None = None) -> set[int]:
        """Raw node-level result: ids at which the query embeds."""
        plan = compile_query(query, spec, algorithm=algorithm,
                             planner=planner, cacheable=False)
        with self._pinned() as snap:
            return plan.match_nodes(snap.execution_context())

    def collection_stats(self) -> CollectionStats:
        """Frequency statistics over the indexed collection (memoized)."""
        if self._stats is None:
            self._stats = CollectionStats.from_inverted_file(self._ifile)
        return self._stats

    # -- updates ----------------------------------------------------------------

    def _index_writer(self) -> IndexWriter:
        if self._writer is None:
            self._writer = IndexWriter(self._ifile,
                                       on_mutate=self._note_mutation)
        return self._writer

    def _after_mutation(self) -> None:
        self._stats = None
        # The commit advanced the version, so the cached shared pin can
        # never be reused -- retire it now rather than letting a stale
        # pin force pre-image capture on every subsequent page write
        # (unbounded history growth under write-only workloads).
        self._retire_shared_pin()

    def note_replicated_apply(self, version: int | None = None) -> None:
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
        self._epochs.bump((_RESULT_EPOCH,), version)

    def finish_replicated_apply(self) -> None:
        """Replica-side post-apply hook: refresh live-object state.

        The inverted-file config, tombstones, bloom filters and
        memoized statistics were all computed from pages that the
        replicated apply just rewrote; refreshing them here keeps the
        engine answering correctly the moment it serves -- including
        right after a promotion turns mutations back on.
        """
        self.reload_live_state()

    def reload_live_state(self) -> None:
        """Re-derive the live in-memory objects from the store as it is.

        Also what an aborted commit group calls (:func:`commit_group`):
        the writer goes too, its pending buffers belong to the group
        the store discarded.
        """
        self._writer = None
        self._ifile.reload_config()
        if self._bloom is not None:
            self._bloom.refresh_persisted(self._ifile.store)
        self._stats = None
        with self._memo_lock:
            self._stats_memo.clear()
        self._retire_shared_pin()

    def insert(self, key: str, value: object) -> int:
        """Add one record to the live index; returns its ordinal.

        A commit group of one: see :meth:`insert_batch`.
        """
        return self._insert_group([(key, value)], b"insert")[0]

    def insert_batch(self, records: Iterable[tuple[str, object]]
                     ) -> list[int]:
        """Insert several records as **one** WAL commit group.

        The writer numbers and buffers the records, then writes the
        group: every posting list the batch touches once, the
        node-metadata tail, ALL/ZERO, the statistics delta and the
        configuration once.  On journaled stores all of it -- the Bloom
        filter appends included -- is one write-ahead-log group with one
        commit fsync: a crash at any point leaves the index wholly
        without or with the batch, readers observe none of it or all of
        it, and the store version advances once.  Mutations serialize
        on the writer mutex; concurrent readers keep running against
        their pinned versions throughout.  A group that raises (a
        duplicate key, say) writes nothing and leaves the index as it
        found it.
        """
        return self._insert_group(records, b"ingest")

    def _insert_group(self, records: Iterable[tuple[str, object]],
                      label: bytes) -> list[int]:
        with self._writer_mutex:
            ordinals: list[int] = []
            writer = self._index_writer()
            store = self._ifile.store
            with commit_group(store, label, self.reload_live_state):
                for key, value in records:
                    tree = as_nested_set(value)
                    ordinals.append(
                        writer.insert(key, tree, flush_stats=False))
                    if self._bloom is not None:
                        self._bloom.append_persisted(store, tree)
                writer.flush()
            self._after_mutation()
            return ordinals

    def delete(self, key: str) -> bool:
        """Tombstone the record with ``key``; see repro.core.updates."""
        with self._writer_mutex:
            deleted = self._index_writer().delete(key)
            if deleted:
                # Dead counts change live frequencies: the memoized
                # collection statistics (planner input) must be recomputed.
                self._after_mutation()
            return deleted

    def compact(self, *, storage: str = "memory",
                path: str | None = None,
                store: KVStore | None = None) -> None:
        """Rebuild the index from live records, dropping tombstones.

        The engine swaps to the fresh index in place; disk targets need a
        new ``path`` (a store cannot be rebuilt into its own open file).
        ``store`` accepts a pre-opened destination (used by the sharded
        index to compact each shard into one fresh shared store).
        Snapshots pinned on the old generation keep answering from it;
        its store closes when the last of them is released.
        """
        with self._writer_mutex:
            fresh = self._index_writer().compact(storage=storage, path=path,
                                                 store=store)
            self._writer = None
            if self._result_cache is not None:
                # Version numbering restarts with the fresh store;
                # generation-scoped keys prevent collisions, but the old
                # entries can never hit again -- drop them.
                self._result_cache.invalidate_all()
            old_bloom_kind = self._bloom.kind if self._bloom else None
            # Drop the cached shared pin first: it holds a generation
            # refcount, and closing it here (when idle) lets the old
            # store close immediately below instead of deferring.
            self._retire_shared_pin()
            with self._gen_lock:
                old = self._ifile
                defer = self._gen_counts.get(old, 0) > 0
                if defer:
                    self._retired.add(old)
            if not defer:
                old.close()
            self._list_cache.clear()
            self._wire_generation(fresh, ModEpochs(), SharedIndexState())
            self._ifile = fresh
            self._stats = None
            with self._memo_lock:
                self._stats_memo.clear()
            if old_bloom_kind is not None:
                self._bloom = BloomIndex(old_bloom_kind)
                for _ordinal, _key, _root, tree in fresh.iter_records():
                    self._bloom.add_record(tree)
                self._bloom.save(fresh.store)

    def query_batch(self, queries: Sequence[object], *,
                    share_subqueries: bool = True,
                    algorithm: str = "bottomup", semantics: str = "hom",
                    join: str = "subset", epsilon: int = 1,
                    mode: str = "root", use_bloom: bool = False,
                    planner: str | None = None,
                    workers: int | None = None) -> list[list[str]]:
        """Evaluate a workload of queries (the paper times 100 at a time).

        All plans share one execution context over one pinned snapshot,
        so every answer in the batch reflects the same index version
        even while writers commit concurrently.  When every plan
        supports it (the memoized evaluation is bottom-up, so
        ``bottomup`` only), a cross-query subquery memo is attached so
        structurally shared subtrees are evaluated once per batch; pass
        ``share_subqueries=False`` to opt out and run a plain per-query
        loop.  Results are identical either way (tested property).
        ``workers`` exists for facade symmetry with
        :class:`~repro.core.shard.ShardedIndex`; a monolithic index has
        a single execution context and always evaluates sequentially.
        """
        del workers  # single index: nothing to fan out over
        spec = QuerySpec(semantics=semantics, join=join, epsilon=epsilon,
                         mode=mode)
        plans = [compile_query(query, spec, algorithm=algorithm,
                               planner=planner, use_bloom=use_bloom)
                 for query in queries]
        memo: dict | None = None
        if share_subqueries and plans and \
                all(plan.match.memoizable for plan in plans):
            memo = {}
        with self._pinned() as snap:
            ctx = snap.execution_context(memo=memo)
            return [plan.run(ctx) for plan in plans]

    def containment_join(self, queries: Iterable[tuple[str, object]],
                         **options: object) -> list[tuple[str, str]]:
        """Equation 1: all pairs ``(q.key, s.key)`` with ``q ⊆ s``.

        Accepts the same options as :meth:`query_batch` (including
        ``share_subqueries``); the whole join runs through one compiled
        batch against one pinned snapshot.  See
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

    def set_cache(self, policy: str | None,
                  budget: int = PAPER_BUDGET) -> None:
        """Swap the inverted-list cache policy in place.

        The experiment harness runs each configuration with and without
        caching on the *same* built index; swapping the cache (rather than
        rebuilding) is what makes that cheap.  Open snapshots keep the
        cache they were wired with.
        """
        with self._writer_mutex:
            inner = list_cache_for(self._ifile, policy, budget)
            self._list_cache = inner
            self._ifile.cache = SnapshotListCache(inner, self._epochs, None)
        # One-shot queries must pick up the new cache immediately.
        self._retire_shared_pin()

    # -- introspection ----------------------------------------------------------

    @property
    def n_records(self) -> int:
        return self._ifile.n_records

    @property
    def n_nodes(self) -> int:
        return self._ifile.n_nodes

    @property
    def inverted_file(self) -> InvertedFile:
        return self._ifile

    @property
    def bloom_index(self) -> BloomIndex | None:
        return self._bloom

    def records(self) -> Iterable[tuple[str, NestedSet]]:
        """Iterate ``(key, tree)`` over the indexed collection."""
        for _ordinal, key, _root, tree in self._ifile.iter_records():
            yield key, tree

    def stats(self) -> dict[str, dict[str, object]]:
        """Index / cache / store counters, for reports and experiments."""
        out: dict[str, dict[str, object]] = {
            "index": {
                "records": self.n_records,
                "nodes": self.n_nodes,
                "postings_requests": self._ifile.stats.postings_requests,
                "cache_hits": self._ifile.stats.cache_hits,
                "lists_decoded": self._ifile.stats.lists_decoded,
                "meta_block_reads": self._ifile.stats.meta_block_reads,
                "blocks_read": self._ifile.stats.blocks_read,
                "blocks_skipped": self._ifile.stats.blocks_skipped,
                "bytes_decoded": self._ifile.stats.bytes_decoded,
                "intersects_vectorized":
                    self._ifile.stats.intersects_vectorized,
                "intersects_scalar": self._ifile.stats.intersects_scalar,
                "decode_path": self._ifile.stats.decode_path,
            },
            "cache": {
                "policy": self._ifile.cache.name,
                "hits": self._ifile.cache.stats.hits,
                "misses": self._ifile.cache.stats.misses,
                "hit_rate": self._ifile.cache.stats.hit_rate,
            },
            "store": self._ifile.store.stats.snapshot(),
        }
        wal = self._ifile.store.wal_info()
        if wal is not None:
            out["wal"] = wal
        mvcc = self._ifile.store.mvcc_info()
        with self._gen_lock:
            mvcc["open_snapshots"] = sum(self._gen_counts.values())
            mvcc["retired_generations"] = len(self._retired)
        out["mvcc"] = mvcc
        return out

    def reset_stats(self) -> None:
        """Zero all query-time counters (between experiment runs)."""
        self._ifile.reset_stats()

    # -- lifecycle ------------------------------------------------------------------

    def close(self) -> None:
        self._retire_shared_pin()
        with self._gen_lock:
            live = self._ifile
            defer = self._gen_counts.get(live, 0) > 0
            if defer:
                self._retired.add(live)
        if not defer:
            live.close()

    def __enter__(self) -> "NestedSetIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

"""The one writer of the index layout: build, insert, delete, compact.

Every index key is written here, by one group append
(:meth:`IndexWriter._append_group`): a build (:func:`write_index`)
appends one group, or several, onto an empty store;
:meth:`IndexWriter.flush` appends a commit group to a live index.
Appending to a list is byte for byte encoding it whole, so an index
grown group by group is the index built at once.

The paper builds its inverted files offline; a library a downstream user
adopts also needs online updates.  The design:

* **insert** -- new internal nodes receive the next preorder ids (so the
  global preorder/interval invariants keep holding: a fresh record's
  interval lies entirely after every existing one), which makes every
  insert an append: new ids sort last.  ``insert()`` numbers and
  buffers; :meth:`IndexWriter.flush` writes the commit group -- each
  touched posting list once, the node-metadata tail once, ALL and ZERO
  once -- and an append costs what it adds, not what the list holds.
* **delete** -- a tombstone: the record ordinal joins the persisted
  deleted set and every result-mapping path filters it.  Posting lists
  keep the dead entries until compaction (the classic deferred-delete
  trade: O(1) deletes, slight read amplification).
* **compact** -- rebuilds a fresh index from the live records, dropping
  tombstoned postings and restoring exact statistics.

Statistics: a commit costs what it touched.  :meth:`IndexWriter.flush`
appends the commit's ``(atom, +df)`` and ``(atom, +dead)`` pairs to the
delta logs of ``M:freq`` / ``M:dead`` inside the commit's own WAL group,
and folds the logs back into the two tables once they outgrow the base
(:data:`FOLD_RATIO`).  Readers merge base and log, so document
frequencies are exact after every insert; after deletes they still
count dead postings (``dead_counts`` says how many) until compaction.
"""

from __future__ import annotations

from typing import Iterable

from ..storage import KVStore, open_store
from ..storage.codec import (
    DEFAULT_BLOCK_SIZE,
    append_blocked,
    append_postings,
    decode_postings,
    decode_varint,
    encode_blocked,
    encode_uint_list,
    encode_varint,
)
from .invfile import (
    InvertedFile,
    InvertedFileError,
    LIST_BLOCK,
    META_BLOCK,
    atom_token,
    delta_key,
    encode_config,
    encode_counts,
    number_record,
    record_blob,
)
from .model import Atom, as_nested_set
from .postings import PostingList

# Private layout constants shared with invfile (same store, same keys).
from .invfile import (  # noqa: E402  (grouped for clarity)
    _ALL_PREFIX,
    _ATOM_PREFIX,
    _CONFIG_KEY,
    _DEAD_COUNT_KEY,
    _DELETED_KEY,
    _FREQ_KEY,
    _KEYMAP_PREFIX,
    _META_ENTRY,
    _META_PREFIX,
    _RECORD_PREFIX,
    _ZERO_PREFIX,
)


#: The delta logs are folded into ``M:freq`` / ``M:dead`` when they hold
#: more than this many (atom, count) pairs per entry of the base
#: frequency table.  At 1 a fold rewrites at most twice the pairs logged
#: since the last one (the doubling rule: amortised O(1) per pair), and
#: a reader merging base and log never decodes more than twice the base.
FOLD_RATIO = 1

#: Default posting buffer of :func:`build_external` (entries, not bytes).
DEFAULT_MEMORY_BUDGET = 500_000


class UpdateError(Exception):
    """Raised for invalid update operations (duplicate key, missing key)."""


class _NewIndex:
    """The counters of an index being built onto an empty store: what
    :class:`IndexWriter` advances where a live writer advances its
    :class:`InvertedFile`'s (there is none before ``M:config``)."""

    n_records = n_nodes = _n_all_blocks = _n_zero_blocks = 0

    def __init__(self, store: KVStore, block_size: int) -> None:
        self.store = store
        self.block_size = block_size

    def ordinal_of_key(self, key: str) -> int | None:
        raw = self.store.get(_KEYMAP_PREFIX + key.encode("utf-8"))
        return None if raw is None else decode_varint(raw, 0)[0]


class IndexWriter:
    """Applies record-level updates to an open :class:`InvertedFile`.

    ``on_mutate`` replaces destructive cache invalidation with a
    notification: the engine's MVCC read path passes a callback that
    bumps modification epochs (:mod:`repro.core.snapshot`) instead of
    clearing the shared list/block caches, so commits invalidate
    nothing for in-flight readers.  Without it (standalone use) the
    writer clears the caches itself, as before.
    """

    def __init__(self, ifile: InvertedFile | _NewIndex,
                 on_mutate=None) -> None:
        self._ifile = ifile
        self._store = ifile.store
        self._on_mutate = on_mutate
        #: Entries of the base frequency table (read on first flush).
        self._base_entries: int | None = None
        #: Last head of the ZERO list's tail block (read on first use;
        #: ALL's is always the last node id).
        self._zero_last: int | None = None
        self._reset_group()

    def _reset_group(self) -> None:
        """Fresh buffers for the next commit group.  Node ids only grow,
        so extending them record by record keeps every list sorted
        across the group."""
        self._postings: dict[Atom, list[tuple[int, tuple[int, ...]]]] = {}
        #: Postings held in ``_postings`` (what ``memory_budget`` bounds).
        self._buffered = 0
        self._pending_all: list[tuple[int, tuple[int, ...]]] = []
        self._pending_zero: list[tuple[int, tuple[int, ...]]] = []
        self._meta: list[bytes] = []
        #: key -> (ordinal, record-table value) of the group's records.
        self._records: dict[str, tuple[int, bytes]] = {}
        #: Per-atom dead-posting counts the group's deletes add.
        self._dead_delta: dict[Atom, int] = {}

    # -- insert -----------------------------------------------------------

    def insert(self, key: str, value: object, *,
               flush_stats: bool = True) -> int:
        """Add one record to the open commit group; returns its ordinal.

        Numbers the record's nodes and buffers what they add; nothing is
        written before :meth:`flush`, which ``flush_stats=True`` calls
        before returning (a group of one).  With ``flush_stats=False``
        the caller MUST call :meth:`flush` before the enclosing commit
        group closes.  Raises :class:`UpdateError`, before anything is
        buffered, when a live record or one of this group uses the key
        (the store is asked only once it holds an earlier group).
        """
        ifile = self._ifile
        tree = as_nested_set(value)
        if key in self._records or (
                ifile.n_records > len(self._records)
                and ifile.ordinal_of_key(key) is not None):
            raise UpdateError(f"a live record with key {key!r} exists")
        ordinal = ifile.n_records
        first_id = ifile.n_nodes
        nodes, meta, text = number_record(tree, ordinal, first_id)
        for atoms, posting in nodes:
            for atom in atoms:
                self._postings.setdefault(atom, []).append(posting)
            self._buffered += len(atoms)
            self._pending_all.append(posting)
            if not atoms:
                self._pending_zero.append(posting)
        self._meta += meta
        self._records[key] = (ordinal, record_blob(key, first_id, text))
        ifile.n_records += 1
        ifile.n_nodes += len(meta)
        if flush_stats:
            self.flush()
        return ordinal

    def insert_many(self, records) -> list[int]:
        """Insert several records as one group; returns their ordinals."""
        ordinals = [self.insert(key, value, flush_stats=False)
                    for key, value in records]
        self.flush()
        return ordinals

    # -- delete --------------------------------------------------------------

    def delete(self, key: str) -> bool:
        """Tombstone the live record with ``key``; False when absent.

        Beyond the tombstone itself, the record's per-atom posting counts
        move into the persisted dead-count table, so live document
        frequencies (:meth:`InvertedFile.live_frequencies`) and the
        rarest-atom candidate ordering stay accurate until compaction.
        """
        ifile = self._ifile
        self.flush()                # the key may be one of the open group's
        ordinal = ifile.ordinal_of_key(key)
        if ordinal is None:
            return False
        _key, _root, tree = ifile.record(ordinal)
        dead_atoms: set[Atom] = set()
        with self._store.transaction(b"delete"):
            ifile.deleted.add(ordinal)
            self._store.put(_DELETED_KEY,
                            encode_uint_list(sorted(ifile.deleted)))
            self._store.delete(_KEYMAP_PREFIX + key.encode("utf-8"))
            ifile._key_cache.pop(ordinal, None)
            for node in tree.iter_sets():
                for atom in node.atoms:
                    dead_atoms.add(atom)
                    ifile.dead_counts[atom] = \
                        ifile.dead_counts.get(atom, 0) + 1
                    self._dead_delta[atom] = \
                        self._dead_delta.get(atom, 0) + 1
            self.flush()
            # A delete leaves every posting list's bytes untouched; only
            # the tombstone set and dead counts change, and consumers
            # read those from index attributes (or their own pinned
            # store), not from the list/block caches.  The standalone
            # invalidation path still drops the atoms' cached lists so
            # live-frequency ordering re-reads fresh lengths.  Runs
            # inside the transaction: the epoch hook must stamp the
            # *upcoming* commit version, i.e. fire before the commit.
            self._invalidate(dict.fromkeys(dead_atoms),
                             postings_changed=False)
        return True

    # -- compact ----------------------------------------------------------------

    def compact(self, *, storage: str = "memory",
                path: str | None = None,
                store=None) -> InvertedFile:
        """Rebuild a fresh index from the live records.

        Returns the new :class:`InvertedFile`; the old one stays open and
        untouched (swap at the engine level).  ``store`` accepts a
        pre-opened destination (a sharded index compacts every shard into
        namespaced views of one fresh base store).
        """
        self.flush()
        ifile = self._ifile
        live = ((key, tree) for _ordinal, key, _root, tree
                in ifile.iter_records())
        return InvertedFile.build(live, storage=storage, path=path,
                                  store=store, block_size=ifile.block_size)

    # -- the commit group ------------------------------------------------------------

    def flush(self) -> None:
        """Write the open commit group: every touched posting list once,
        ALL and ZERO once, the node-metadata tail once, the records, the
        statistics delta and the configuration -- as one store
        transaction, inside the caller's if one is open."""
        if not (self._records or self._dead_delta):
            return
        ifile = self._ifile
        store = self._store
        with store.transaction(b"flush"):
            if self._records:
                self._append_group()
                # Inside the transaction: the epoch hook must stamp the
                # *upcoming* commit version, i.e. fire before the commit.
                self._invalidate(self._postings)
            # The statistics delta goes *inside* the group -- deferring
            # it would add a third on-disk state (insert applied, stats
            # stale) that recovery cannot name.
            df_delta = {atom: len(entries)
                        for atom, entries in self._postings.items()}
            if self._base_entries is None:
                raw = store.get(_FREQ_KEY)
                self._base_entries = decode_varint(raw, 0)[0] if raw else 0
            pairs = ifile._delta_pairs + len(df_delta) + \
                len(self._dead_delta)
            if pairs > FOLD_RATIO * self._base_entries:
                self._fold(df_delta)
            else:
                if df_delta:
                    store.put(delta_key(_FREQ_KEY, ifile._n_freq_deltas),
                              encode_counts(df_delta))
                    ifile._n_freq_deltas += 1
                if self._dead_delta:
                    store.put(
                        delta_key(_DEAD_COUNT_KEY, ifile._n_dead_deltas),
                        encode_counts(self._dead_delta))
                    ifile._n_dead_deltas += 1
                ifile._delta_pairs = pairs
            self._write_config()
        self._reset_group()

    def _append_group(self) -> None:
        """Append the group's records: every touched list once (new ids
        sort past its tail, so only the partial tail block changes),
        ALL/ZERO, the metadata tail, the record table.  A group that
        starts at node id 0 has no tails to read."""
        ifile = self._ifile
        store = self._store
        first_id = ifile.n_nodes - len(self._meta)
        for atom, entries in self._postings.items():
            entries.sort()          # a record lists its nodes post-order
            store_key = _ATOM_PREFIX + atom_token(atom).encode("utf-8")
            raw = store.get(store_key) if first_id else None
            store.put(store_key,
                      encode_blocked(entries, ifile.block_size)
                      if raw is None else append_blocked(raw, entries))
        self._pending_all.sort()
        ifile._n_all_blocks = _append_blocks(
            store, _ALL_PREFIX, ifile._n_all_blocks, first_id - 1,
            self._pending_all)
        if self._pending_zero:
            self._pending_zero.sort()
            ifile._n_zero_blocks = _append_blocks(
                store, _ZERO_PREFIX, ifile._n_zero_blocks,
                self._zero_last, self._pending_zero)
            self._zero_last = self._pending_zero[-1][0]
        _append_meta(store, first_id, self._meta)
        for key, (ordinal, blob) in self._records.items():
            store.put(_RECORD_PREFIX + encode_varint(ordinal), blob)
            store.put(_KEYMAP_PREFIX + key.encode("utf-8"),
                      encode_varint(ordinal))

    def _fold(self, df_delta: dict[Atom, int]) -> None:
        """Rewrite both count tables whole and drop their delta logs."""
        ifile = self._ifile
        df = ifile._document_frequencies()
        for atom, delta in df_delta.items():
            df[atom] = df.get(atom, 0) + delta
        self._store.put(_FREQ_KEY, encode_counts(df, ranked=True))
        if ifile.dead_counts:       # kept current in memory by delete()
            self._store.put(_DEAD_COUNT_KEY,
                            encode_counts(ifile.dead_counts))
        for seq in range(ifile._n_freq_deltas):
            self._store.delete(delta_key(_FREQ_KEY, seq))
        for seq in range(ifile._n_dead_deltas):
            self._store.delete(delta_key(_DEAD_COUNT_KEY, seq))
        ifile._n_freq_deltas = ifile._n_dead_deltas = ifile._delta_pairs = 0
        self._base_entries = len(df)

    def _write_config(self) -> None:
        ifile = self._ifile
        self._store.put(_CONFIG_KEY, encode_config(
            ifile.n_records, ifile.n_nodes, ifile._n_all_blocks,
            ifile._n_zero_blocks, ifile.block_size,
            (ifile._n_freq_deltas, ifile._n_dead_deltas,
             ifile._delta_pairs)))

    def _invalidate(self, touched_postings: dict, *,
                    postings_changed: bool = True) -> None:
        ifile = self._ifile
        ifile._all_nodes = None
        ifile._zero_leaf = None
        ifile._meta_cache.clear()
        tokens = {atom_token(atom) for atom in touched_postings}
        if self._on_mutate is not None:
            # Epoch-based caching: nothing to clear.  Deletes are pure
            # tombstones (posting bytes unchanged), so they report
            # postings_changed=False and bump no epochs either.
            self._on_mutate(tokens, postings_changed)
            return
        ifile.block_cache.invalidate(tokens)


def _append_blocks(store, prefix: bytes, n_blocks: int,
                   last_head: int | None,
                   entries: list[tuple[int, tuple[int, ...]]]) -> int:
    """Extend the ALL or ZERO list; returns the new block count.

    ``last_head`` is the last head the tail block holds (``None``: not
    known, decode the block to find it), so topping the block up costs
    the rows it adds.
    """
    pending = entries
    if n_blocks:
        tail_key = prefix + encode_varint(n_blocks - 1)
        raw = store.get(tail_key)
        if raw is None:
            raise InvertedFileError(f"missing tail block under {prefix!r}")
        room = LIST_BLOCK - decode_varint(raw, 0)[0]
        if room > 0:
            if last_head is None:
                last_head = decode_postings(raw)[-1][0]
            store.put(tail_key,
                      append_postings(raw, last_head, pending[:room]))
            pending = pending[room:]
    for start in range(0, len(pending), LIST_BLOCK):
        store.put(prefix + encode_varint(n_blocks),
                  PostingList(pending[start:start + LIST_BLOCK]).encode())
        n_blocks += 1
    return n_blocks


def _append_meta(store, first_id: int, entries: list[bytes]) -> None:
    """Append node-metadata entries starting at node id ``first_id``."""
    index = 0
    while index < len(entries):
        node_id = first_id + index
        block_no, offset = divmod(node_id, META_BLOCK)
        block_key = _META_PREFIX + encode_varint(block_no)
        raw = (store.get(block_key) if node_id else None) or b""
        expected = offset * _META_ENTRY.size
        if len(raw) != expected:
            raise InvertedFileError(
                f"metadata block {block_no} has {len(raw)} bytes, "
                f"expected {expected} before append")
        take = min(len(entries) - index, META_BLOCK - offset)
        raw += b"".join(entries[index:index + take])
        store.put(block_key, raw)
        index += take


def write_index(records: Iterable[tuple[str, object]], *,
                storage: str = "memory", path: str | None = None,
                store: KVStore | None = None,
                block_size: int = DEFAULT_BLOCK_SIZE,
                memory_budget: int | None = None,
                **store_options: object) -> KVStore:
    """Write ``records`` as a fresh index onto an empty store (a
    pre-opened ``store``, else ``storage``/``path``); returns the store.

    One group when ``memory_budget`` is ``None``; otherwise a new group
    whenever the buffered postings pass it (the buffer exceeds it by at
    most one record; a list touched by G groups is rewritten G times).
    Not journaled: runs outside any store transaction, ends with
    ``sync()``.  Raises :class:`UpdateError` on a repeated key, before
    anything of that group is written.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    if memory_budget is not None and memory_budget < 1:
        raise ValueError("memory_budget must be >= 1")
    opened = store is None
    if opened:
        store = open_store(storage, path, create=True, **store_options)
    new = _NewIndex(store, block_size)
    writer = IndexWriter(new)
    df: dict[Atom, int] = {}

    def write_group() -> None:
        for atom, entries in writer._postings.items():
            df[atom] = df.get(atom, 0) + len(entries)
        writer._append_group()
        writer._reset_group()

    try:
        for key, value in records:
            writer.insert(key, value, flush_stats=False)
            if memory_budget is not None and \
                    writer._buffered > memory_budget:
                write_group()
        if writer._records:
            write_group()
        store.put(_FREQ_KEY, encode_counts(df, ranked=True))
        store.put(_CONFIG_KEY, encode_config(
            new.n_records, new.n_nodes, new._n_all_blocks,
            new._n_zero_blocks, block_size))
        store.sync()
    except BaseException:
        if opened:
            store.close()
        raise
    return store


def build_external(records: Iterable[tuple[str, object]], *,
                   storage: str = "memory", path: str | None = None,
                   memory_budget: int = DEFAULT_MEMORY_BUDGET,
                   block_size: int = DEFAULT_BLOCK_SIZE,
                   store: KVStore | None = None,
                   **store_options: object) -> InvertedFile:
    """:meth:`InvertedFile.build` with a bounded posting buffer, for
    the paper's setting ("both Q and S are too large to fit in internal
    memory"): the same stored bytes, written as groups of at most
    ``memory_budget`` buffered postings (see :func:`write_index`)."""
    return InvertedFile(write_index(
        records, storage=storage, path=path, store=store,
        block_size=block_size, memory_budget=memory_budget,
        **store_options))

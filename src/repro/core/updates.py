"""Incremental index maintenance: insert, delete, compact.

The paper builds its inverted files offline; a library a downstream user
adopts also needs online updates.  The design:

* **insert** -- new internal nodes receive the next preorder ids (so the
  global preorder/interval invariants keep holding: a fresh record's
  interval lies entirely after every existing one).  Affected posting
  lists are read-modified-appended (new ids sort last, so appends keep
  lists sorted); the partial tail blocks of the node-metadata and
  ALL/ZERO lists are extended in place.
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

from ..storage.codec import (
    append_blocked,
    decode_varint,
    encode_blocked,
    encode_str,
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
    encode_counts,
)
from .model import Atom, NestedSet
from .postings import PostingList
from .segments import (
    BLOCK_FORMATS,
    FORMAT_PLAIN,
    SegmentInfo,
    decode_header,
    decode_plain,
    encode_header,
    encode_plain,
    encode_segmented,
    value_format,
)

# Private layout constants shared with invfile (same store, same keys).
from .invfile import (  # noqa: E402  (grouped for clarity)
    _ALL_PREFIX,
    _ATOM_PREFIX,
    _CONFIG_KEY,
    _DEAD_COUNT_KEY,
    _DELETED_KEY,
    _FLAG_ROOT,
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


class UpdateError(Exception):
    """Raised for invalid update operations (duplicate key, missing key)."""


class IndexWriter:
    """Applies record-level updates to an open :class:`InvertedFile`.

    ``on_mutate`` replaces destructive cache invalidation with a
    notification: the engine's MVCC read path passes a callback that
    bumps modification epochs (:mod:`repro.core.snapshot`) instead of
    clearing the shared list/block caches, so commits invalidate
    nothing for in-flight readers.  Without it (standalone use) the
    writer clears the caches itself, as before.
    """

    def __init__(self, ifile: InvertedFile,
                 on_mutate=None) -> None:
        self._ifile = ifile
        self._store = ifile.store
        #: Per-atom posting / dead-posting counts the open commit group
        #: adds, unflushed.
        self._df_delta: dict[Atom, int] = {}
        self._dead_delta: dict[Atom, int] = {}
        #: Entries of the base frequency table (read on first flush).
        self._base_entries: int | None = None
        self._on_mutate = on_mutate
        #: Deferred ALL/ZERO appends (``insert(flush_stats=False)``):
        #: node ids grow monotonically, so extending keeps the global
        #: sort and one tail-block rewrite serves the whole batch.
        self._pending_all: list[tuple[int, tuple[int, ...]]] = []
        self._pending_zero: list[tuple[int, tuple[int, ...]]] = []

    # -- insert -----------------------------------------------------------

    def insert(self, key: str, value: object, *,
               flush_stats: bool = True) -> int:
        """Add one record; returns its ordinal.

        Raises :class:`UpdateError` when a live record already uses the
        key.  ``flush_stats=False`` leaves the per-group writes -- the
        ALL/ZERO tail-block rewrite, the statistics delta and the
        configuration -- to the caller, who MUST call :meth:`flush`
        before the enclosing commit group closes (a batch needs exactly
        one of each).
        """
        from .engine import as_nested_set
        ifile = self._ifile
        tree = as_nested_set(value)
        if ifile.ordinal_of_key(key) is not None:
            raise UpdateError(f"a live record with key {key!r} exists")
        ordinal = ifile.n_records
        first_id = ifile.n_nodes

        postings: dict[Atom, list[tuple[int, tuple[int, ...]]]] = {}
        all_nodes: list[tuple[int, tuple[int, ...]]] = []
        zero_leaf: list[tuple[int, tuple[int, ...]]] = []
        meta_entries: list[bytes] = []
        next_id = first_id

        def build(node: NestedSet, is_root: bool) -> int:
            nonlocal next_id
            node_id = next_id
            next_id += 1
            meta_entries.append(b"")
            child_ids = tuple(
                build(child, False)
                for child in sorted(node.children,
                                    key=lambda c: c.to_text()))
            max_desc = next_id - 1
            meta_entries[node_id - first_id] = _META_ENTRY.pack(
                ordinal, len(node.atoms), max_desc,
                _FLAG_ROOT if is_root else 0)
            posting = (node_id, child_ids)
            for atom in node.atoms:
                postings.setdefault(atom, []).append(posting)
            all_nodes.append(posting)
            if not node.atoms:
                zero_leaf.append(posting)
            return node_id

        root_id = build(tree, True)

        # All store writes for one logical insert form one WAL commit
        # group: a crash leaves the index wholly pre- or post-insert.
        with self._store.transaction(b"insert"):
            # 1. posting lists: new ids exceed all existing ids, so
            #    sorted append preserves order (both physical formats).
            for atom, entries in postings.items():
                entries.sort()
                self._append_postings(atom, entries)
                self._df_delta[atom] = self._df_delta.get(atom, 0) \
                    + len(entries)

            # 2. ALL / ZERO blocks: queued for flush(), which extends
            #    the tail block once per group -- the tail-block
            #    decode/re-encode is O(block size), and paying it once
            #    per group rather than once per record is a large share
            #    of streaming-ingest throughput.
            self._pending_all.extend(sorted(all_nodes))
            self._pending_zero.extend(sorted(zero_leaf))

            # 3. node metadata: fill the partial tail block.
            _append_meta(self._store, ifile.n_nodes, meta_entries)

            # 4. record table + key map.
            blob = encode_str(key) + encode_varint(root_id) + \
                encode_str(tree.to_text())
            self._store.put(_RECORD_PREFIX + encode_varint(ordinal), blob)
            self._store.put(_KEYMAP_PREFIX + key.encode("utf-8"),
                            encode_varint(ordinal))

            # 5. config, and the statistics delta *inside* the group --
            #    deferring them would add a third on-disk state (insert
            #    applied, stats stale) that recovery cannot name.
            ifile.n_records += 1
            ifile.n_nodes = next_id
            if flush_stats:
                self.flush()
        self._invalidate(postings)
        return ordinal

    def _append_postings(self, atom: Atom,
                         entries: list[tuple[int, tuple[int, ...]]]) -> None:
        """Extend one atom's list, honoring its physical format."""
        ifile = self._ifile
        token = atom_token(atom).encode("utf-8")
        store_key = _ATOM_PREFIX + token
        raw = self._store.get(store_key)
        segment_size = ifile.segment_size

        def segment_key(seg_no: int) -> bytes:
            return b"G:" + token + b":" + encode_varint(seg_no)

        if raw is not None and value_format(raw) in BLOCK_FORMATS:
            # Blocked/packed: new ids sort past the tail, so only the
            # partial tail block is re-encoded; full blocks keep their
            # bytes -- and their format (0x02 values stay 0x02 under
            # mutation; only compaction upgrades them to packed).
            self._store.put(store_key, append_blocked(raw, entries))
            return
        if raw is None and ifile.block_size:
            self._store.put(store_key,
                            encode_blocked(entries, ifile.block_size))
            return
        if raw is None or value_format(raw) == FORMAT_PLAIN:
            existing = decode_plain(raw) if raw is not None else []
            merged = existing + entries
            if segment_size and len(merged) > segment_size:
                header, blobs = encode_segmented(merged, segment_size)
                self._store.put(store_key, header)
                for seg_no, blob in enumerate(blobs):
                    self._store.put(segment_key(seg_no), blob)
            else:
                self._store.put(store_key, encode_plain(merged))
            return
        # Segmented: top up the tail segment, then spill into new ones.
        header = decode_header(raw)
        last = len(header.segments) - 1
        tail_raw = self._store.get(segment_key(last))
        if tail_raw is None:
            raise InvertedFileError(
                f"missing tail segment of atom {atom!r}")
        tail = list(PostingList.decode(tail_raw).entries) + entries
        chunks = [tail[start:start + segment_size]
                  for start in range(0, len(tail), segment_size)]
        infos = list(header.segments[:last])
        for offset, chunk in enumerate(chunks):
            infos.append(SegmentInfo(chunk[0][0], chunk[-1][0]))
            self._store.put(segment_key(last + offset),
                            PostingList(chunk).encode())
        self._store.put(store_key,
                        encode_header(header.total + len(entries), infos))

    def insert_many(self, records) -> list[int]:
        """Insert several records; returns their ordinals."""
        return [self.insert(key, value) for key, value in records]

    # -- delete --------------------------------------------------------------

    def delete(self, key: str) -> bool:
        """Tombstone the live record with ``key``; False when absent.

        Beyond the tombstone itself, the record's per-atom posting counts
        move into the persisted dead-count table, so live document
        frequencies (:meth:`InvertedFile.live_frequencies`) and the
        rarest-atom candidate ordering stay accurate until compaction.
        """
        ifile = self._ifile
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
                                  store=store,
                                  segment_size=ifile.segment_size,
                                  block_size=ifile.block_size)

    # -- statistics maintenance ------------------------------------------------------

    def flush(self) -> None:
        """Persist the commit group's deferred state: ALL/ZERO appends,
        the statistics delta and the configuration.  After
        ``insert(flush_stats=False)`` this MUST run inside the same
        commit group (the engine's batch path does)."""
        # Every inserted record queues at least its root for ALL, every
        # delete that changes a count a dead pair: nothing else is ours.
        if not (self._pending_all or self._dead_delta):
            return
        ifile = self._ifile
        with self._store.transaction(b"flush"):
            ifile._n_all_blocks = _append_blocks(
                self._store, _ALL_PREFIX, ifile._n_all_blocks,
                self._pending_all)
            ifile._n_zero_blocks = _append_blocks(
                self._store, _ZERO_PREFIX, ifile._n_zero_blocks,
                self._pending_zero)
            if self._base_entries is None:
                raw = self._store.get(_FREQ_KEY)
                self._base_entries = decode_varint(raw, 0)[0] if raw else 0
            pairs = ifile._delta_pairs + len(self._df_delta) + \
                len(self._dead_delta)
            if pairs > FOLD_RATIO * self._base_entries:
                self._fold()
            else:
                if self._df_delta:
                    self._store.put(
                        delta_key(_FREQ_KEY, ifile._n_freq_deltas),
                        encode_counts(self._df_delta))
                    ifile._n_freq_deltas += 1
                if self._dead_delta:
                    self._store.put(
                        delta_key(_DEAD_COUNT_KEY, ifile._n_dead_deltas),
                        encode_counts(self._dead_delta))
                    ifile._n_dead_deltas += 1
                ifile._delta_pairs = pairs
            self._write_config()
        self._pending_all = []
        self._pending_zero = []
        self._df_delta = {}
        self._dead_delta = {}

    def _fold(self) -> None:
        """Rewrite both count tables whole and drop their delta logs."""
        ifile = self._ifile
        df = ifile._document_frequencies()
        for atom, delta in self._df_delta.items():
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
        # Must rewrite *every* config field: dropping the trailing
        # segment_size/block_size varints here would silently demote a
        # segmented or blocked index to "plain" on the next open.
        ifile = self._ifile
        config = encode_varint(ifile.n_records) + \
            encode_varint(ifile.n_nodes) + \
            encode_varint(ifile._n_all_blocks) + \
            encode_varint(ifile._n_zero_blocks) + \
            encode_varint(ifile.segment_size) + \
            encode_varint(ifile.block_size) + \
            encode_varint(ifile._n_freq_deltas) + \
            encode_varint(ifile._n_dead_deltas) + \
            encode_varint(ifile._delta_pairs)
        self._store.put(_CONFIG_KEY, config)

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
        ifile.cache.clear()
        ifile.block_cache.invalidate(tokens)


def _append_blocks(store, prefix: bytes, n_blocks: int,
                   entries: list[tuple[int, tuple[int, ...]]]) -> int:
    """Extend a blocked posting list; returns the new block count."""
    if not entries:
        return n_blocks
    pending = list(entries)
    if n_blocks:
        tail_key = prefix + encode_varint(n_blocks - 1)
        raw = store.get(tail_key)
        if raw is None:
            raise InvertedFileError(f"missing tail block under {prefix!r}")
        tail = list(PostingList.decode(raw).entries)
        room = LIST_BLOCK - len(tail)
        if room > 0:
            tail.extend(pending[:room])
            pending = pending[room:]
            store.put(tail_key, PostingList(tail).encode())
    while pending:
        chunk, pending = pending[:LIST_BLOCK], pending[LIST_BLOCK:]
        store.put(prefix + encode_varint(n_blocks),
                  PostingList(chunk).encode())
        n_blocks += 1
    return n_blocks


def _append_meta(store, first_id: int, entries: list[bytes]) -> None:
    """Append node-metadata entries starting at node id ``first_id``."""
    index = 0
    while index < len(entries):
        node_id = first_id + index
        block_no, offset = divmod(node_id, META_BLOCK)
        block_key = _META_PREFIX + encode_varint(block_no)
        raw = store.get(block_key) or b""
        expected = offset * _META_ENTRY.size
        if len(raw) != expected:
            raise InvertedFileError(
                f"metadata block {block_no} has {len(raw)} bytes, "
                f"expected {expected} before append")
        take = min(len(entries) - index, META_BLOCK - offset)
        raw += b"".join(entries[index:index + take])
        store.put(block_key, raw)
        index += take

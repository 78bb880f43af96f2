"""The inverted file for nested sets (Section 2, Table 2).

The key space is the set of all atomic values occurring in the collection
``S``.  Every internal node of every indexed tree receives a globally unique
integer id, assigned in *preorder* -- a deliberate choice that makes the id
itself the preorder rank, so the ancestor test needed by homeomorphic
containment (Section 4.2) is the constant-time interval check
``anc < desc <= max_desc(anc)``.

Per atom ``a``, the store holds the posting list ``S_IF(a)`` of pairs
``(p, C)`` (owner node, sorted internal children).  Beyond the paper's
Table 2 we persist:

* a node-metadata table (record ordinal, leaf count, subtree end, root
  flag), blocked 512 entries per store value -- leaf counts power the
  equality/superset joins of Section 4.1, subtree ends power homeomorphism;
* the record table (key, root id, and the tree itself in canonical text
  form) so queries can be sampled and results verified;
* an ``ALL`` list (every internal node) and a ``ZERO`` list (nodes with no
  leaf children) enabling empty-set query nodes and the superset join;
* the atom document-frequency ranking that picks the frequency policy's
  pinned lists.

Everything lives in one :class:`~repro.storage.kvstore.KVStore` under key
prefixes, so the index persists on the disk engines and reopens cheaply.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from functools import partial
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from ..storage import CorruptionError, KVStore, open_store
from ..storage.codec import (
    DEFAULT_BLOCK_SIZE,
    decode_blocked_header,
    decode_str,
    decode_uint_list,
    decode_varint,
    encode_str,
    encode_varint,
)
from .cache import ABSENT, PAPER_BUDGET, POLICIES, BlockCache
from .model import Atom, NestedSet
from .postings import (
    LazyPostingList,
    PostingList,
    intersect,
    intersect_within,
    with_head_in,
)

_ATOM_PREFIX = b"A:"
_META_PREFIX = b"N:"
_RECORD_PREFIX = b"R:"
_ALL_PREFIX = b"L:all:"
_ZERO_PREFIX = b"L:zero:"
_CONFIG_KEY = b"M:config"
_FREQ_KEY = b"M:freq"
_DELETED_KEY = b"M:deleted"
_DEAD_COUNT_KEY = b"M:dead"
#: Delta log of a count table: ``<table key>+<i>`` holds the i-th
#: commit's ``(token, +count)`` pairs since the table was last folded.
_DELTA_MARK = b"+"
_KEYMAP_PREFIX = b"K:"

_META_ENTRY = struct.Struct("<IIQB")
#: Estimated CPython footprint of one decoded posting ``(p, (c, ...))``:
#: outer 2-tuple (56) + head int (28) + children tuple with ~1 small-int
#: child on average (40).  Used only for the ``block_stats`` report.
_DECODED_POSTING_BYTES = 124
#: Node-metadata entries per store value.
META_BLOCK = 512
#: Postings per block of the ALL / ZERO lists.
LIST_BLOCK = 4096
_FLAG_ROOT = 1


class InvertedFileError(Exception):
    """Raised for malformed or inconsistent index contents."""


class NodeMeta(NamedTuple):
    """Per-internal-node bookkeeping."""

    record: int      # ordinal of the owning record
    leaf_count: int  # number of leaf (atom) children
    max_desc: int    # last preorder id in this node's subtree
    is_root: bool    # True when the node is a record root


@dataclass
class QueryStats:
    """Counters for index accesses made on behalf of queries."""

    postings_requests: int = 0
    #: Which path served a list lookup: a store get of the atom's value
    #: (a cold key, or a warm list's first block miss), or the block
    #: cache's directory entry with no store access.
    list_fetches: int = 0
    directory_hits: int = 0
    meta_block_reads: int = 0
    blocks_read: int = 0
    blocks_skipped: int = 0
    bytes_decoded: int = 0

    def reset(self) -> None:
        for counter in fields(self):
            setattr(self, counter.name, 0)


def atom_token(atom: Atom) -> str:
    """Type-tagged text form of an atom (ints and strings must not clash)."""
    if isinstance(atom, bool):
        raise TypeError("bool is not an atom")
    if isinstance(atom, int):
        return f"i:{atom}"
    return f"s:{atom}"


def atom_from_token(token: str) -> Atom:
    """Inverse of :func:`atom_token`."""
    tag, _, body = token.partition(":")
    if tag == "i":
        return int(body)
    if tag == "s":
        return body
    raise InvertedFileError(f"bad atom token {token!r}")


def _token_store_key(token: str) -> bytes:
    return _ATOM_PREFIX + token.encode("utf-8")


def _atom_store_key(atom: Atom) -> bytes:
    return _token_store_key(atom_token(atom))


def delta_key(table_key: bytes, seq: int) -> bytes:
    """Store key of entry ``seq`` of a count table's delta log."""
    return table_key + _DELTA_MARK + encode_varint(seq)


def number_record(tree: NestedSet, ordinal: int, first_id: int
                  ) -> tuple[list[tuple[frozenset, tuple[int, tuple[int, ...]]]],
                             list[bytes], str]:
    """Number one record's internal nodes in preorder from ``first_id``.

    The one walk behind build and insert.  Returns
    ``(nodes, meta, text)``: per node its atoms and its posting
    ``(id, child ids)``, listed as the walk completes them (post-order:
    a node after its descendants); the node-metadata entries in id
    order; and the record's canonical text.  Children are visited in
    canonical text order for determinism; ids are handed out
    sequentially during the visit, so every child-id tuple is ascending,
    as postings require.  The walk keeps its own stack (any depth).
    """
    nodes: list[tuple[frozenset, tuple[int, tuple[int, ...]]]] = []
    meta: list[bytes] = [b""]       # a slot per id, filled after the subtree
    text, root, members = tree.canonical()
    # One frame per open set: the node, its id, the members still to
    # visit, the ids of those visited.
    stack = [(root, first_id, iter(members), [])]
    while stack:
        node, node_id, pending, child_ids = stack[-1]
        for _text, child, grandchildren in pending:
            child_ids.append(first_id + len(meta))
            stack.append((child, child_ids[-1], iter(grandchildren), []))
            meta.append(b"")
            break
        else:
            stack.pop()
            meta[node_id - first_id] = _META_ENTRY.pack(
                ordinal, len(node.atoms), first_id + len(meta) - 1,
                _FLAG_ROOT if node_id == first_id else 0)
            nodes.append((node.atoms, (node_id, tuple(child_ids))))
    return nodes, meta, text


def record_blob(key: str, root_id: int, text: str) -> bytes:
    """The record-table value: key, root node id, canonical text."""
    return encode_str(key) + encode_varint(root_id) + encode_str(text)


def encode_config(n_records: int, n_nodes: int, n_all_blocks: int,
                  n_zero_blocks: int, block_size: int,
                  delta_log: tuple[int, int, int] | None = None) -> bytes:
    """The ``M:config`` value, a run of varints.

    The slot before ``block_size`` is reserved and written as 0.
    ``delta_log`` is ``(freq entries, dead entries, pairs held)`` of the
    count tables' delta logs; a build has none and ends the record
    after ``block_size``.
    """
    fields = (n_records, n_nodes, n_all_blocks, n_zero_blocks, 0,
              block_size) + (delta_log or ())
    return b"".join(map(encode_varint, fields))


def encode_counts(counts: dict[Atom, int], *, ranked: bool = False) -> bytes:
    """Serialize a per-atom count table: ``[n] { [token] [count] }*``.

    The one shape of ``M:freq``, ``M:dead`` and every delta-log value.
    ``ranked`` orders by ``(-count, token)`` (the frequency ranking)
    instead of by token.
    """
    items = [(atom_token(atom), count) for atom, count in counts.items()]
    items.sort(key=(lambda item: (-item[1], item[0])) if ranked else None)
    blob = bytearray(encode_varint(len(items)))
    for token, count in items:
        blob += encode_str(token)
        blob += encode_varint(count)
    return bytes(blob)


def decode_counts(raw: bytes) -> list[tuple[Atom, int]]:
    """Inverse of :func:`encode_counts`, in stored order.

    Token lengths and most counts fit one varint byte; reading those in
    place halves the decode (8.0 -> 4.4 ms for 5 000 atoms), which is
    what a reader merging base and log pays on every new version.
    """
    count, pos = decode_varint(raw, 0)
    out: list[tuple[Atom, int]] = []
    try:
        for _ in range(count):
            length = raw[pos]
            if length < 0x80:
                pos += 1
            else:
                length, pos = decode_varint(raw, pos)
            end = pos + length
            token = raw[pos:end].decode("utf-8")
            value = raw[end]
            if value < 0x80:
                pos = end + 1
            else:
                value, pos = decode_varint(raw, end)
            out.append((atom_from_token(token), value))
    except IndexError:
        raise CorruptionError("truncated count table") from None
    return out


class InvertedFile:
    """The nested-set inverted file over a key-value store."""

    #: The store version reads resolve at: a pinned view's
    #: (:class:`~repro.core.snapshot.SnapshotInvertedFile`), or ``None``
    #: for the live file.
    version: int | None = None

    def __init__(self, store: KVStore) -> None:
        self._store = store
        self.block_cache = BlockCache()
        self.stats = QueryStats()
        #: Modification epochs (:class:`repro.core.snapshot.ModEpochs`),
        #: attached by the engine; block-cache keys become epoch-scoped
        #: so commits never invalidate a pinned reader's decoded blocks.
        self._epochs = None
        self._meta_cache: dict[int, bytes] = {}
        self._meta_cache_cap = 256
        self._key_cache: dict[int, str] = {}
        self._all_nodes: PostingList | None = None
        self._zero_leaf: PostingList | None = None
        self.reload_config()

    def reload_config(self) -> None:
        """(Re)read persisted configuration, tombstones and dead counts.

        Called at construction and again by the replication tier after
        shipped commit groups rewrote the store underneath this live
        object: the cached counters, tombstone set, node-metadata blocks
        and ALL/ZERO lists must all be refreshed before promotion or any
        unversioned read.
        """
        store = self._store
        raw = store.get(_CONFIG_KEY)
        if raw is None:
            raise InvertedFileError("store holds no inverted-file configuration")
        self.n_records, pos = decode_varint(raw, 0)
        self.n_nodes, pos = decode_varint(raw, pos)
        self._n_all_blocks, pos = decode_varint(raw, pos)
        self._n_zero_blocks, pos = decode_varint(raw, pos)
        # A record that ends here, one with a value in the reserved
        # slot and one with block_size 0 were all written by builds
        # whose list layouts are retired.
        reserved = self.block_size = 0
        if pos < len(raw):
            reserved, pos = decode_varint(raw, pos)
        if pos < len(raw):
            self.block_size, pos = decode_varint(raw, pos)
        if reserved or not self.block_size:
            raise InvertedFileError(
                f"index configuration (reserved slot {reserved}, block "
                f"size {self.block_size}) names a retired posting-list "
                "format; only packed 0x03 lists are read: rebuild the "
                "index")
        # Delta logs of the two count tables (written by IndexWriter.flush,
        # absent on a freshly built or folded index): entries per log and
        # the (token, count) pairs they hold together.
        self._n_freq_deltas = self._n_dead_deltas = self._delta_pairs = 0
        if pos < len(raw):
            self._n_freq_deltas, pos = decode_varint(raw, pos)
            self._n_dead_deltas, pos = decode_varint(raw, pos)
            self._delta_pairs, pos = decode_varint(raw, pos)
        self._meta_cache.clear()
        self._all_nodes = None
        self._zero_leaf = None
        self.deleted: set[int] = set()
        deleted_raw = store.get(_DELETED_KEY)
        if deleted_raw is not None:
            ordinals, _pos = decode_uint_list(deleted_raw)
            self.deleted = set(ordinals)
        #: Per-atom count of postings owned by tombstoned records.  The
        #: document-frequency table keeps counting them until compaction;
        #: subtracting these yields the *live* counts that selectivity
        #: decisions (rarest-atom ordering, the planner) should use.
        self.dead_counts: dict[Atom, int] = self._count_table(
            _DEAD_COUNT_KEY, self._n_dead_deltas)

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, records: Iterable[tuple[str, NestedSet]], *,
              storage: str = "memory", path: str | None = None,
              block_size: int = DEFAULT_BLOCK_SIZE,
              store: KVStore | None = None,
              **store_options: object) -> "InvertedFile":
        """Index a collection of ``(key, nested-set)`` records.

        ``storage`` selects the engine (``memory``/``diskhash``/``btree``);
        disk engines need a ``path``.  ``block_size`` is the number of
        postings per block of a stored list
        (:func:`repro.storage.codec.encode_blocked`).  ``store`` accepts a
        pre-opened store (e.g. a namespaced view of a shared store, see
        :mod:`repro.storage.namespace`); ``storage``/``path`` are ignored
        then.  One group of the index writer
        (:func:`repro.core.updates.write_index`): the postings accumulate
        in memory (index construction is an offline step in the paper's
        setting); :func:`~repro.core.updates.build_external` bounds that.
        """
        from .updates import write_index
        return cls(write_index(records, storage=storage, path=path,
                               store=store, block_size=block_size,
                               **store_options))

    @classmethod
    def open(cls, storage: str, path: str,
             **store_options: object) -> "InvertedFile":
        """Reopen a previously built disk-resident index."""
        return cls(open_store(storage, path, create=False, **store_options))

    @property
    def cache(self) -> BlockCache:
        """The block cache (the one cache; see :meth:`set_cache`)."""
        return self.block_cache

    def set_cache(self, policy: str | None,
                  budget: int = PAPER_BUDGET) -> None:
        """Apply a ``cache=`` policy (Section 3.3): ``"frequency"`` pins
        the lists of the ``budget`` most frequent atoms (ties by token)
        in the block cache; ``None``, ``"none"`` and ``"lru"`` pin
        nothing.  Only the first decodes the frequency table."""
        if policy not in POLICIES:
            raise ValueError(f"unknown cache policy {policy!r}; "
                             "expected None, 'none', 'frequency' or 'lru'")
        if budget < 1:
            raise ValueError("budget must be >= 1")
        hot = self.frequencies()[:budget] if policy == "frequency" else ()
        self.block_cache.pin(atom_token(atom) for atom, _df in hot)

    # -- posting access -----------------------------------------------------

    def postings(self, atom: Atom) -> PostingList | LazyPostingList:
        """Retrieve ``S_IF(atom)``; a stored list comes back lazy (block
        payloads still encoded, and its value not even read while it is
        warm: :meth:`_open_list`)."""
        self.stats.postings_requests += 1
        token = atom_token(atom)
        return self._open_list(atom, token, self._epoch(token))

    def _epoch(self, token: str) -> int | None:
        """The token's epoch floor at this file's version, or ``None``
        without modification epochs (a standalone file)."""
        if self._epochs is None:
            return None
        return self._epochs.floor(token, self.version)

    def _open_list(self, atom: Atom, token: str, epoch: int | None
                   ) -> PostingList | LazyPostingList:
        """``S_IF(atom)``, the block cache's directory entry first.

        The list key is the atom token on a standalone file (which
        relies on :meth:`~repro.core.cache.BlockCache.invalidate` after
        updates) and ``(token, epoch floor)`` with modification epochs
        attached (the engine's MVCC read path,
        :mod:`repro.core.snapshot`), where it names exactly one stored
        value.  Under a cached directory the list is handed out at once
        -- no store access -- and reads its value on the first block
        the block cache misses; an :data:`~repro.core.cache.ABSENT`
        entry answers empty.  Otherwise the value is fetched, and its
        directory, or the marker when the store has none, is left under
        the key.
        """
        list_key = token if epoch is None else (token, epoch)
        store_key = _token_store_key(token)
        directory = self.block_cache.directory(list_key)
        if directory is not None:
            self.stats.directory_hits += 1
            if directory is ABSENT:
                return PostingList()
            return LazyPostingList(
                directory=directory,
                loader=partial(self._fetch_list, atom, store_key),
                cache=self.block_cache, cache_key=list_key,
                stats=self.stats)
        self.stats.list_fetches += 1
        raw = self._store.get(store_key)
        if raw is None:
            self.block_cache.admit_directory(list_key, ABSENT)
            return PostingList()
        try:
            return LazyPostingList(raw, cache=self.block_cache,
                                   cache_key=list_key, stats=self.stats)
        except CorruptionError as exc:
            raise InvertedFileError(f"atom {atom!r}: {exc}") from exc

    def _fetch_list(self, atom: Atom, store_key: bytes) -> bytes:
        """The value of a list handed out over a cached directory."""
        self.stats.list_fetches += 1
        raw = self._store.get(store_key)
        if raw is None:
            raise InvertedFileError(
                f"atom {atom!r}: cached skip directory, but no stored list")
        return raw

    def list_length(self, atom: Atom) -> int:
        """Posting count of ``atom``, through the same lookup as
        :meth:`postings` (no store access once the key is warm; a cold
        one is fetched and warmed for the fetch that usually follows)."""
        token = atom_token(atom)
        return len(self._open_list(atom, token, self._epoch(token)))

    def live_list_length(self, atom: Atom) -> int:
        """Postings of ``atom`` owned by live (non-tombstoned) records.

        ``list_length`` measures decode cost (dead postings are still
        decoded until compaction); this measures selectivity, which is
        what candidate-ordering decisions want on a delete-heavy index.
        """
        return max(0, self.list_length(atom) - self.dead_counts.get(atom, 0))

    def intersect_atoms(self, atoms: list[Atom],
                        within=None) -> PostingList:
        """Candidate generation with rarest-first block skipping.

        Touches only the blocks of the non-rarest atoms that the rarest
        atom's heads can reach (the galloping kernel in
        :func:`repro.core.postings.intersect`): identical results to
        intersecting the full lists; on skewed data most of a hot list
        stays encoded.  Every atom is fetched **once**: a lazy list
        costs its header and already knows its length, so the lists
        themselves are ranked.

        ``within`` is a match set (the top-down frontier) the
        candidates' heads must also lie in.  It is ranked with the
        lists as one more operand: when it is the shortest, its ids
        are the probes galloped through every list
        (:func:`~repro.core.postings.intersect_within`), so a few
        surviving parents cost a few blocks however long the lists;
        when some list is shorter, the lists are intersected as above
        and the result cut to the ids.
        """
        if not atoms:
            raise ValueError("intersect_atoms() needs at least one atom")
        if within is not None and not len(within):
            return PostingList()        # empty frontier: fetch nothing
        # Rank on live counts: dead postings inflate physical lengths
        # between compactions and would mislead the rarest-first choice.
        dead = self.dead_counts
        ranked = []
        for atom in atoms:
            plist = self.postings(atom)
            if not plist:
                return PostingList()    # absent atom: read no further
            ranked.append((max(0, len(plist) - dead.get(atom, 0)), plist))
        ranked.sort(key=itemgetter(0))
        lists = [plist for _live, plist in ranked]
        if within is None:
            return intersect(lists)
        if len(within) <= ranked[0][0]:
            return intersect_within(lists, within)
        return with_head_in(intersect(lists), within)

    def all_nodes(self) -> PostingList:
        """Every internal node of the collection (memoized after first load)."""
        if self._all_nodes is None:
            self._all_nodes = self._read_blocks(_ALL_PREFIX, self._n_all_blocks)
        return self._all_nodes

    def zero_leaf_nodes(self) -> PostingList:
        """Internal nodes with no leaf children (memoized)."""
        if self._zero_leaf is None:
            self._zero_leaf = self._read_blocks(_ZERO_PREFIX,
                                                self._n_zero_blocks)
        return self._zero_leaf

    def _read_blocks(self, prefix: bytes, n_blocks: int) -> PostingList:
        entries: list[tuple[int, tuple[int, ...]]] = []
        for block_no in range(n_blocks):
            raw = self._store.get(prefix + encode_varint(block_no))
            if raw is None:
                raise InvertedFileError(f"missing list block {block_no} "
                                  f"under {prefix!r}")
            entries.extend(PostingList.decode(raw).entries)
        return PostingList(entries)

    # -- node metadata ----------------------------------------------------------

    def meta(self, node_id: int) -> NodeMeta:
        """Look up a node's metadata (through a small block cache)."""
        if node_id < 0 or node_id >= self.n_nodes:
            raise InvertedFileError(f"node id {node_id} out of range "
                              f"[0, {self.n_nodes})")
        block_no, offset = divmod(node_id, META_BLOCK)
        block = self._meta_cache.get(block_no)
        if block is None:
            raw = self._store.get(_META_PREFIX + encode_varint(block_no))
            if raw is None:
                raise InvertedFileError(f"missing node metadata block {block_no}")
            self.stats.meta_block_reads += 1
            if len(self._meta_cache) >= self._meta_cache_cap:
                # Concurrent readers may race this eviction; losing the
                # race (entry already gone, or the dict resized under
                # the iterator) only means another reader evicted first.
                try:
                    self._meta_cache.pop(next(iter(self._meta_cache)))
                except (KeyError, RuntimeError, StopIteration):
                    pass
            self._meta_cache[block_no] = raw
            block = raw
        record, leaf_count, max_desc, flags = _META_ENTRY.unpack_from(
            block, offset * _META_ENTRY.size)
        return NodeMeta(record, leaf_count, max_desc, bool(flags & _FLAG_ROOT))

    def max_desc(self, node_id: int) -> int:
        """End of the preorder interval of ``node_id`` (for homeo joins)."""
        return self.meta(node_id).max_desc

    def leaf_count(self, node_id: int) -> int:
        """Number of leaf children of ``node_id`` (for §4.1 joins)."""
        return self.meta(node_id).leaf_count

    # -- records -------------------------------------------------------------------

    def record(self, ordinal: int) -> tuple[str, int, NestedSet]:
        """Fetch ``(key, root node id, tree)`` for a record ordinal."""
        raw = self._store.get(_RECORD_PREFIX + encode_varint(ordinal))
        if raw is None:
            raise InvertedFileError(f"no record with ordinal {ordinal}")
        key, pos = decode_str(raw, 0)
        root_id, pos = decode_varint(raw, pos)
        text, _pos = decode_str(raw, pos)
        return key, root_id, NestedSet.parse(text)

    def record_key(self, ordinal: int) -> str:
        """Fetch just the key of a record (memoized -- keys are immutable
        and tiny, and result mapping touches them on every query)."""
        key = self._key_cache.get(ordinal)
        if key is not None:
            return key
        raw = self._store.get(_RECORD_PREFIX + encode_varint(ordinal))
        if raw is None:
            raise InvertedFileError(f"no record with ordinal {ordinal}")
        key, _pos = decode_str(raw, 0)
        self._key_cache[ordinal] = key
        return key

    def iter_records(self) -> Iterator[tuple[int, str, int, NestedSet]]:
        """Yield ``(ordinal, key, root id, tree)`` for every live record."""
        for ordinal in range(self.n_records):
            if ordinal in self.deleted:
                continue
            key, root_id, tree = self.record(ordinal)
            yield ordinal, key, root_id, tree

    @property
    def n_live_records(self) -> int:
        """Records not tombstoned by :mod:`repro.core.updates`."""
        return self.n_records - len(self.deleted)

    def ordinal_of_key(self, key: str) -> int | None:
        """Reverse lookup: record key -> ordinal (None when absent)."""
        raw = self._store.get(_KEYMAP_PREFIX + key.encode("utf-8"))
        if raw is None:
            return None
        ordinal, _pos = decode_varint(raw, 0)
        return ordinal if ordinal not in self.deleted else None

    # -- result mapping ----------------------------------------------------------------

    def heads_to_ordinals(self, heads: Iterable[int],
                          mode: str = "root") -> list[int]:
        """Map matched node ids to record ordinals under the match mode.

        ``heads`` is any iterable of ids or a match set as the
        algorithms hand it over, id arrays included.
        """
        if hasattr(heads, "tolist"):
            heads = heads.tolist()
        ordinals: set[int] = set()
        for head in heads:
            meta = self.meta(head)
            if mode == "root" and not meta.is_root:
                continue
            if meta.record in self.deleted:
                continue
            ordinals.add(meta.record)
        return sorted(ordinals)

    def heads_to_keys(self, heads: Iterable[int],
                      mode: str = "root") -> list[str]:
        """Map matched node ids to lexicographically sorted record keys."""
        return sorted(self.record_key(ordinal)
                      for ordinal in self.heads_to_ordinals(heads, mode))

    # -- statistics --------------------------------------------------------------------

    def _count_table(self, table_key: bytes,
                     n_deltas: int) -> dict[Atom, int]:
        """A persisted count table merged with its delta log.

        Base entries keep their stored order; atoms first seen in the
        log follow.  An absent base is an empty table.
        """
        raw = self._store.get(table_key)
        counts = dict(decode_counts(raw)) if raw is not None else {}
        for seq in range(n_deltas):
            raw = self._store.get(delta_key(table_key, seq))
            if raw is None:
                raise InvertedFileError(
                    f"missing delta {seq} of table {table_key!r}")
            for atom, delta in decode_counts(raw):
                counts[atom] = counts.get(atom, 0) + delta
        return counts

    def _document_frequencies(self) -> dict[Atom, int]:
        counts = self._count_table(_FREQ_KEY, self._n_freq_deltas)
        if not counts and self._store.get(_FREQ_KEY) is None:
            raise InvertedFileError("index holds no frequency table")
        return counts

    def frequencies(self) -> list[tuple[Atom, int]]:
        """Atom document frequencies, descending (the frequency policy's
        ranking, :meth:`set_cache`).

        The base table ``M:freq`` merged with the commits logged since
        it was last folded (:meth:`IndexWriter.flush
        <repro.core.updates.IndexWriter.flush>`), in ``(-df, token)``
        order either way.
        """
        counts = self._document_frequencies()
        if not self._n_freq_deltas:
            return list(counts.items())     # stored ranked
        return _ranked(counts.items())

    def live_document_frequencies(self) -> dict[Atom, int]:
        """Tombstone-adjusted document frequency per atom, unordered.

        Each count excludes postings owned by tombstoned records, so
        selectivity estimates stay honest between compactions; atoms
        whose live count reaches zero are dropped.  What statistics
        consumers read (they key by atom and need no ranking).
        """
        counts = self._document_frequencies()
        for atom, dead in self.dead_counts.items():
            live = counts.get(atom, 0) - dead
            if live > 0:
                counts[atom] = live
            else:
                counts.pop(atom, None)
        return counts

    def live_frequencies(self) -> list[tuple[Atom, int]]:
        """:meth:`live_document_frequencies`, descending.

        Equals :meth:`frequencies` on an index without pending deletes.
        """
        if not self.dead_counts:
            return self.frequencies()
        return _ranked(self.live_document_frequencies().items())

    def iter_atoms(self) -> Iterator[Atom]:
        """Iterate over the key space (every distinct atom in S)."""
        for atom, _df in self.frequencies():
            yield atom

    def block_stats(self) -> dict[str, int | float]:
        """Physical statistics of the stored posting lists.

        Scans every atom value's header (payloads stay encoded), so the
        cost is one store read per atom -- fine for the ``info`` command,
        not for the query path.  ``decoded_bytes`` estimates the
        in-memory footprint of the fully materialized postings (head +
        children as Python int/tuple objects); comparing it with
        ``compressed_bytes`` shows what the packed blocks save.
        """
        n_lists = n_blocks = n_postings = 0
        compressed = decoded = directory = 0
        for atom in self.iter_atoms():
            raw = self._store.get(_atom_store_key(atom))
            if raw is None:
                continue
            n_lists += 1
            header = decode_blocked_header(raw)
            n_blocks += len(header.blocks)
            n_postings += header.total
            compressed += len(raw)
            payload = sum(info.length for info in header.blocks)
            directory += len(raw) - payload
            decoded += header.total * _DECODED_POSTING_BYTES
        return {
            "lists": n_lists,
            "blocks": n_blocks,
            "block_size": self.block_size,
            "postings": n_postings,
            "avg_block_fill": (n_postings / n_blocks) if n_blocks else 0.0,
            "compressed_bytes": compressed,
            "directory_bytes": directory,
            "decoded_bytes": decoded,
        }

    @property
    def store(self) -> KVStore:
        """The underlying key-value store (for stats and tests)."""
        return self._store

    def reset_stats(self) -> None:
        """Zero query-time counters on the index, block cache and store."""
        self.stats.reset()
        self.block_cache.stats.reset()
        self._store.stats.reset()

    # -- lifecycle -----------------------------------------------------------------------

    def close(self) -> None:
        self._store.close()

    def __enter__(self) -> "InvertedFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _ranked(pairs: Iterable[tuple[Atom, int]]) -> list[tuple[Atom, int]]:
    """Sort ``(atom, count)`` pairs into the frequency ranking."""
    return sorted(pairs, key=lambda item: (-item[1], atom_token(item[0])))

"""Posting lists and the inverted-list operations of Section 2.

A posting is a pair ``(p, C)``: ``p`` is the integer id of an internal node
that owns a leaf with the list's atom, and ``C`` is the sorted tuple of
``p``'s internal-node children.  :class:`PostingList` wraps a list of
postings sorted on ``p`` and provides

* k-way **intersection** on heads (candidate generation, Algorithm 1 line 1,
  Algorithm 2 line 8, Algorithm 4 line 11),
* **multiset union** with multiplicities (superset and ε-overlap joins of
  Section 4.1),
* the **navigation join** ``L ▷ L'`` used by the top-down algorithm to step
  one nesting level down while remembering the original head of each path,
* the **child-axis filters** (``H(·)`` of Algorithm 4 and its relatives),
  which run on a list's columnar view once it is long enough.

:class:`PathList` is the navigation-state companion: entries ``(head, C)``
where ``head`` is the original candidate for the query root and ``C`` the
current frontier of children ids (possibly several entries per head).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Sequence

import numpy as _np

from ..storage.codec import (
    BlockedHeader,
    Posting,
    decode_blocked_header,
    decode_packed_arrays,
    decode_postings,
    encode_postings,
)


#: Candidate count from which the child-axis filters (``H(·)`` and its
#: equality/superset/top-down relatives) and the intersection's output
#: run on columns instead of ``(p, C)`` rows.  A numpy call costs about a
#: microsecond whatever its input and a row in a Python loop a few
#: tenths of one, so short lists are cheaper as rows.  Measured on the
#: ladder's default inputs (one read round, mean of the 5 fastest of
#: 40): ``point_uniform``, where every list is under 128 postings,
#: takes 32.1-32.7 ms with everything columnar (cutoff 0) and 29.2-29.9
#: ms at 16, 32, 64, 128, 256 and with rows only; ``skew_twitter``,
#: whose lists are either far above or far below any of those, takes
#: 12.9-14.3 ms at every cutoff from 0 to 256 and 72.0 ms with rows
#: only.  So the value is not delicate; 64 is the middle of the flat
#: range.  Below it the rows are the short-list path, picked by length.
COLUMNAR_MIN = 64


def use_columns(plist: "PostingList | LazyPostingList") -> bool:
    """The size rule: is ``plist`` long enough to process as columns?"""
    return len(plist) >= COLUMNAR_MIN


class PostingList:
    """An immutable posting list sorted on head ids (unique heads).

    Two views of the same postings, each built from the other on first
    use and then kept: the **rows** ``(p, C)`` (:attr:`entries`) and the
    **columns** ``(heads, offsets, children)`` (:meth:`columns`) --
    ``int64`` arrays where posting ``i`` owns
    ``children[offsets[i]:offsets[i + 1]]``.  Lists decoded from blocks
    or cut out of other columnar lists (:func:`take`, the
    intersection) start as columns and never grow rows unless a row
    consumer asks; the rows then come from the list's own columns, so a
    cut-out list costs rows for what it kept and never for the list it
    was cut from.
    """

    # Lists shared between snapshots are read by several threads: each
    # memo below is published by one assignment.
    __slots__ = ("_entries", "_heads", "_columns")

    def __init__(self, entries: Sequence[Posting] = ()) -> None:
        self._entries: tuple[Posting, ...] | None = tuple(entries)
        self._heads = self._columns = None

    @classmethod
    def from_columns(cls, heads, offsets, children) -> "PostingList":
        """Wrap columns (see the class docstring); rows stay unbuilt."""
        plist = cls.__new__(cls)
        plist._entries = None
        plist._heads = heads
        plist._columns = (heads, offsets, children)
        return plist

    @classmethod
    def from_unsorted(cls, entries: Iterable[Posting]) -> "PostingList":
        """Build from postings in arbitrary order (sorts on head)."""
        return cls(sorted(entries))

    @classmethod
    def decode(cls, raw: bytes) -> "PostingList":
        """Decode the on-disk representation."""
        return cls(decode_postings(raw))

    def encode(self) -> bytes:
        """Encode to the on-disk representation."""
        return encode_postings(self.entries)

    @property
    def entries(self) -> tuple[Posting, ...]:
        """The ``(head, children)`` rows, built and memoized on demand."""
        if self._entries is None:
            heads, offsets, children = self._columns
            self._entries = _rows(heads.tolist(),
                                  (offsets[1:] - offsets[:-1]).tolist(),
                                  children.tolist())
        return self._entries

    def columns(self):
        """``(heads, offsets, children)`` as ``int64`` arrays."""
        if self._columns is None:
            entries = self._entries
            offsets = _offsets_of(_np.fromiter(
                (len(cs) for _, cs in entries), _np.int64, len(entries)))
            children = _np.fromiter((c for _, cs in entries for c in cs),
                                    _np.int64, int(offsets[-1]))
            self._columns = (self.heads_array(), offsets, children)
        return self._columns

    def heads(self) -> set[int]:
        """The set of head ids ``p``."""
        if self._entries is None:
            return set(self._heads.tolist())
        return {p for p, _ in self._entries}

    def heads_array(self):
        """All head ids as one sorted ``int64`` ndarray (memoized)."""
        if self._heads is None:
            self._heads = _np.fromiter(
                (p for p, _ in self._entries), _np.int64,
                len(self._entries))
        return self._heads

    def __len__(self) -> int:
        if self._entries is None:
            return len(self._heads)
        return len(self._entries)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self) -> Iterator[Posting]:
        return iter(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PostingList):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"PostingList({list(self.entries)!r})"


def _concat(arrays):
    """``concatenate`` that hands a single array back as it is."""
    if len(arrays) == 1:
        return arrays[0]
    if not arrays:
        return _np.empty(0, _np.int64)
    return _np.concatenate(arrays)


def _offsets_of(counts):
    """Child counts to offsets: ``[0, c0, c0 + c1, ...]``."""
    offsets = _np.zeros(len(counts) + 1, dtype=_np.int64)
    _np.cumsum(counts, out=offsets[1:])
    return offsets


def _gather(source, index) -> PostingList:
    """The postings of ``source`` at the ascending positions ``index``.

    A ragged gather: the kept postings' child runs are copied with one
    fancy index built from their old and new start offsets.
    """
    heads, offsets, children = source.columns()
    starts = offsets[index]
    counts = offsets[index + 1] - starts
    kept = _offsets_of(counts)
    pick = _np.repeat(starts - kept[:-1], counts)
    pick += _np.arange(len(pick))
    return PostingList.from_columns(heads[index], kept, children[pick])


def _block_columns(blocks: "Sequence[BlockData]", heads=None):
    """``(heads, offsets, children)`` of decoded blocks taken together
    (``heads``: their concatenated head column, when already at hand)."""
    if heads is None:
        heads = _concat([block.heads for block in blocks])
    return (heads,
            _offsets_of(_concat([block.counts for block in blocks])),
            _concat([block.children for block in blocks]))


def _rows(heads: list[int], counts: list[int],
          children: list[int]) -> tuple[Posting, ...]:
    """Rows out of column *lists*: posting ``i`` takes ``counts[i]`` ids."""
    out: list[Posting] = []
    at = 0
    for head, n in zip(heads, counts):
        out.append((head, tuple(children[at:at + n])))
        at += n
    return tuple(out)


class BlockData:
    """One decoded block in columnar form, rows materialized on demand.

    ``heads`` holds the block's sorted head ids; ``counts`` the number of
    children per posting; ``children`` every posting's child ids,
    flattened in posting order -- the ``int64`` ndarrays
    :func:`repro.storage.codec.decode_packed_arrays` produces.  The row
    view -- the ``(head, children-tuple)`` postings the structural
    algorithms consume -- is built lazily on first access, so the
    array-native intersection path never pays for Python tuples it does
    not read.
    """

    __slots__ = ("heads", "counts", "children", "_postings")

    def __init__(self, heads, counts, children,
                 postings: Sequence[Posting] | None = None) -> None:
        self.heads = heads
        self.counts = counts
        self.children = children
        self._postings = tuple(postings) if postings is not None else None

    @classmethod
    def from_postings(cls, postings: Sequence[Posting]) -> "BlockData":
        """Columnar view over already-materialized postings."""
        postings = tuple(postings)
        columns = ([p for p, _ in postings],
                   [len(cs) for _, cs in postings],
                   [c for _, cs in postings for c in cs])
        return cls(*(_np.array(column, dtype=_np.int64)
                     for column in columns), postings)

    @property
    def postings(self) -> tuple[Posting, ...]:
        """The ``(head, children)`` rows, built and memoized on demand."""
        if self._postings is None:
            self._postings = _rows(self.heads.tolist(), self.counts.tolist(),
                                   self.children.tolist())
        return self._postings

    def __len__(self) -> int:
        return len(self.heads)


class SkipDirectory:
    """A decoded skip directory plus the two columns readers derive from it.

    ``max_heads`` is the ``max_head`` of every block as an ``int64``
    array (what a probe is searched into) and ``starts`` the number of
    postings before each block, with the total as a last element.
    Decoding the directory is the dearest part of opening a list that
    is already in the block cache, so lazy lists keep this object in the
    :class:`~repro.core.cache.BlockCache` under their list key.
    """

    __slots__ = ("header", "max_heads", "starts")

    def __init__(self, header: BlockedHeader) -> None:
        self.header = header
        self.max_heads = _np.array([info.max_head for info in header.blocks],
                                   dtype=_np.int64)
        self.starts = list(accumulate((info.count for info in header.blocks),
                                      initial=0))


class LazyPostingList:
    """A block-compressed posting list that decodes blocks on demand.

    Wraps the raw bytes of a blocked atom value
    (:func:`repro.storage.codec.encode_blocked`): the skip directory is
    decoded up front, block payloads only when touched.  Length and head
    range are O(1); :meth:`seek` resolves one head by decoding at most
    one block.  The whole list comes in two forms: :meth:`columns`, the
    ``(heads, offsets, children)`` arrays of :class:`PostingList`
    concatenated from the decoded blocks' columns without building a
    row, and :attr:`entries`, the rows, for the consumers that read
    postings one at a time.

    Decoded blocks and the decoded skip directory go through an optional
    shared :class:`~repro.core.cache.BlockCache` (``cache`` +
    ``cache_key``) so hot blocks survive across queries; without one,
    decoded blocks are memoized locally.  ``stats`` accepts the owning
    index's :class:`~repro.core.invfile.QueryStats` and is bumped on
    every block decode (``blocks_read``/``bytes_decoded``) and every
    skip-directory jump (``blocks_skipped``).

    A list can also start from an already decoded ``directory`` and a
    ``loader`` instead of its bytes: :attr:`raw` is then fetched by the
    first block that misses the cache, and never if every touched block
    is cached.  The loader must return the very bytes the directory was
    decoded from, so it is bound to the store version the directory's
    cache key names; whoever keeps the list beyond that version's pin
    reads :attr:`raw` first.
    """

    __slots__ = ("_raw", "_loader", "directory", "header", "_cache",
                 "_cache_key", "_stats", "_local", "_entries", "_heads_arr",
                 "_columns")

    def __init__(self, raw: bytes | None = None, *, directory=None,
                 loader: Callable[[], bytes] | None = None, cache=None,
                 cache_key: object = None, stats=None) -> None:
        self._raw = raw
        self._loader = loader
        if directory is None and cache is not None:
            directory = cache.directory(cache_key)
        if directory is None:
            directory = SkipDirectory(decode_blocked_header(raw))
            if cache is not None:
                cache.admit_directory(cache_key, directory)
        self.directory = directory
        self.header = directory.header
        self._cache = cache
        self._cache_key = cache_key
        self._stats = stats
        self._local: dict[int, BlockData] | None = None
        self._entries: tuple[Posting, ...] | None = None
        self._heads_arr = None
        self._columns = None

    # -- block access ------------------------------------------------------

    @property
    def raw(self) -> bytes:
        """The stored value, loaded on first use when built from a
        directory (the list then owns it and drops the loader)."""
        raw = self._raw
        if raw is None:
            loader = self._loader
            if loader is None:      # another thread has just loaded it
                return self._raw
            raw = self._raw = loader()
            self._loader = None
        return raw

    @property
    def n_blocks(self) -> int:
        return len(self.header.blocks)

    def block_data(self, index: int) -> BlockData:
        """Decode block ``index`` to columns (through the shared cache).

        The payload decodes straight to arrays in a few bulk
        operations, and the :class:`BlockData` -- not a postings tuple
        -- is what the :class:`~repro.core.cache.BlockCache` holds, so
        a cached block serves both the array-native intersection and
        row consumers without re-decoding.
        """
        if self._entries is not None:
            return BlockData.from_postings(self.block(index))
        key = (self._cache_key, index)
        if self._cache is not None:
            hit = self._cache.get(key)
            if hit is not None:
                return hit
        elif self._local is not None and index in self._local:
            return self._local[index]
        info = self.header.blocks[index]
        data = BlockData(*decode_packed_arrays(self.raw, info))
        if self._stats is not None:
            self._stats.blocks_read += 1
            self._stats.bytes_decoded += info.length
        if self._cache is not None:
            self._cache.admit(key, data)
        else:
            if self._local is None:
                self._local = {}
            self._local[index] = data
        return data

    def block(self, index: int) -> tuple[Posting, ...]:
        """Decode block ``index`` as postings (through the shared cache)."""
        if self._entries is not None:
            starts = self.directory.starts
            return self._entries[starts[index]:starts[index + 1]]
        return self.block_data(index).postings

    def heads_array(self):
        """All head ids as one sorted ``int64`` ndarray.

        Decodes every block -- the bulk-intersection regime where probes
        outnumber blocks would decode them all anyway -- but touches
        only the head columns, never materializing children tuples.
        """
        if self._heads_arr is None:
            if self._entries is not None:
                self._heads_arr = _np.fromiter(
                    (p for p, _ in self._entries), _np.int64,
                    len(self._entries))
            else:
                self._heads_arr = _concat(
                    [self.block_data(i).heads for i in range(self.n_blocks)])
        return self._heads_arr

    def columns(self):
        """``(heads, offsets, children)`` as ``int64`` arrays.

        Every block is decoded (or found in the cache); no row is built.
        """
        if self._columns is None:
            self._columns = _block_columns(
                [self.block_data(i) for i in range(self.n_blocks)],
                self._heads_arr)
            self._heads_arr = self._columns[0]
        return self._columns

    @property
    def entries(self) -> tuple[Posting, ...]:
        """All postings, decoded and memoized on first access."""
        if self._entries is None:
            out: list[Posting] = []
            for index in range(self.n_blocks):
                out.extend(self.block(index))
            self._entries = tuple(out)
            self._local = None
        return self._entries

    # -- point lookup ------------------------------------------------------

    def seek(self, head: int) -> Posting | None:
        """The posting with ``head``, or None -- decodes at most one block."""
        blocks = self.header.blocks
        lo, hi = 0, len(blocks)
        while lo < hi:
            mid = (lo + hi) // 2
            if blocks[mid].max_head < head:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(blocks) or blocks[lo].min_head > head:
            return None
        block = self.block(lo)
        pos = bisect_left(block, (head,))
        if pos < len(block) and block[pos][0] == head:
            return block[pos]
        return None

    # -- PostingList read surface ------------------------------------------

    def heads(self) -> set[int]:
        if self._entries is None:
            return set(self.heads_array().tolist())
        return {p for p, _ in self.entries}

    def encode(self) -> bytes:
        """The (already encoded) on-disk representation."""
        return self.raw

    def __len__(self) -> int:
        return self.header.total

    def __bool__(self) -> bool:
        return self.header.total > 0

    def __iter__(self) -> Iterator[Posting]:
        return iter(self.entries)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (LazyPostingList, PostingList)):
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return (f"LazyPostingList(total={self.header.total}, "
                f"blocks={self.n_blocks})")


def _still_encoded(plist: "PostingList | LazyPostingList") -> bool:
    """A stored list whose blocks decode on demand (no rows built yet)."""
    return isinstance(plist, LazyPostingList) and plist._entries is None


#: Bulk-path density cutoff: hand both head arrays to ``intersect1d``
#: once probes reach this fraction of the operand (sort-merge beats
#: per-probe binary search only when the arrays are comparably sized).
_BULK_DENSITY = 4


def _gallop_mask(lazy: LazyPostingList, probes):
    """Keep-mask for sorted ``probes`` against a still-encoded operand.

    One ``searchsorted`` of all probes into the skip directory's
    ``max_head`` column finds each probe's candidate block, then only
    the touched blocks are decoded and probed -- again with one
    ``searchsorted`` per block over its contiguous probe run (``probes``
    sorted makes the candidate block indices nondecreasing, so runs are
    slices).  Probes falling in the gap before a block, or past the last
    block, are answered from the directory alone; the blocks between the
    first and last decoded one that were jumped over count as
    ``blocks_skipped``.
    """
    blocks = lazy.header.blocks
    target = _np.searchsorted(lazy.directory.max_heads, probes)
    keep = _np.zeros(len(probes), dtype=bool)
    in_range = target < len(blocks)
    if not in_range.any():
        return keep
    touched = _np.unique(target[in_range])
    decoded = 0
    for block_no in touched.tolist():
        lo = int(_np.searchsorted(target, block_no, side="left"))
        hi = int(_np.searchsorted(target, block_no, side="right"))
        run = probes[lo:hi]
        if int(run[-1]) < blocks[block_no].min_head:
            continue  # whole run sits in the gap before this block
        keep[lo:hi] = in_sorted(run, lazy.block_data(block_no).heads)
        decoded += 1
    if lazy._stats is not None and decoded:
        span = int(touched[-1]) - int(touched[0]) + 1
        lazy._stats.blocks_skipped += span - decoded
    return keep


def _array_membership(other: "PostingList | LazyPostingList", probes):
    """Keep-mask: which of the sorted ``probes`` occur in ``other``.

    Sparse regime (fewer probes than the operand has blocks): gallop
    through the skip directory, decoding only touched blocks.  Dense
    regime: every block gets decoded anyway, so materialize the full
    head array once and either ``intersect1d`` both sorted-unique arrays
    (probe count within ``1/_BULK_DENSITY`` of the operand -- skipping
    is pointless there, the regression regime of 1:10/1:100 skew) or
    binary-search each probe into it.
    """
    n_probes = len(probes)
    if _still_encoded(other) and n_probes < other.n_blocks:
        return _gallop_mask(other, probes)
    heads = other.heads_array()
    if n_probes * _BULK_DENSITY >= len(heads):
        _common, probe_idx, _other_idx = _np.intersect1d(
            probes, heads, assume_unique=True, return_indices=True)
        keep = _np.zeros(n_probes, dtype=bool)
        keep[probe_idx] = True
        return keep
    return in_sorted(probes, heads)


def intersect(lists: "Sequence[PostingList | LazyPostingList]"
              ) -> PostingList:
    """Intersect posting lists on their heads.

    This is the candidate-generation primitive: a node is a candidate match
    for query node ``n`` exactly when it appears in the list of *every*
    leaf atom of ``n``.  The rarest list drives: its heads (ascending) are
    galloped through the other lists' skip directories, so for
    block-compressed operands only blocks whose head range is actually
    probed get decoded -- the cost is governed by the rarest list, not the
    total postings length.

    The pass is array-native: the rare heads are filtered operand by
    operand through skip directories and head columns via
    ``searchsorted``/``intersect1d`` (:func:`_array_membership`), with no
    per-posting Python branching.  The survivors leave as columns
    gathered from the rare list's columns (rows only for a rare list
    under :data:`COLUMNAR_MIN`).

    Any empty operand short-circuits to an empty result before the other
    lists are decoded or their head sets materialized.
    """
    if not lists:
        raise ValueError("intersect() needs at least one posting list")
    if len(lists) == 1:
        return lists[0]
    if any(len(plist) == 0 for plist in lists):
        return PostingList()
    rare = min(lists, key=len)
    others = sorted((plist for plist in lists if plist is not rare),
                    key=len)
    rare_heads = rare.heads_array()
    alive = _np.arange(len(rare_heads))
    for other in others:
        probes = rare_heads if len(alive) == len(rare_heads) \
            else rare_heads[alive]
        alive = alive[_array_membership(other, probes)]
        if not len(alive):
            return PostingList()
    if use_columns(rare):
        return _gather(rare, alive)
    entries = rare.entries
    return PostingList([entries[i] for i in alive.tolist()])


def _postings_at(lazy: LazyPostingList, heads) -> PostingList:
    """The postings of a still-encoded list at the sorted array ``heads``,
    every one of which it holds.

    Only the blocks those heads fall in are read (the membership pass
    has just put them in the block cache): their columns, concatenated,
    are the list the postings are gathered from.
    """
    target = _np.searchsorted(lazy.directory.max_heads, heads)
    touched = PostingList.from_columns(*_block_columns(
        [lazy.block_data(block_no)
         for block_no in sorted(set(target.tolist()))]))
    return _gather(touched, _np.searchsorted(touched.heads_array(), heads))


def intersect_within(lists: "Sequence[PostingList | LazyPostingList]",
                     ids) -> PostingList:
    """The postings whose head lies in ``ids`` and in every one of ``lists``.

    The frontier-driven form of :func:`intersect`, for a match set
    ``ids`` that is the shortest operand (the caller ranks; any lengths
    give the same answer) and ``lists`` shortest first.  A shortest
    list under :data:`COLUMNAR_MIN` is cut to the ids as rows and
    drives the ordinary intersection.  Above it the ids are the probes:
    filtered list by list through the skip directories as a rare
    list's heads would be, and the survivors' postings then read from
    the shortest list -- out of the blocks the survivors fall in
    (:func:`_postings_at`), never out of a whole list's columns or
    rows.
    """
    rare = lists[0]
    if len(rare) < COLUMNAR_MIN or not _still_encoded(rare):
        return intersect([with_head_in(rare, ids), *lists[1:]])
    heads = id_array(ids)
    for plist in lists:
        heads = heads[_array_membership(plist, heads)]
        if not len(heads):
            return PostingList()
    return _postings_at(rare, heads)


def multiset_union(lists: Sequence[PostingList]) -> list[tuple[int, tuple[int, ...], int]]:
    """Multiset union on heads: ``(p, C, multiplicity)`` per distinct head.

    The multiplicity counts in how many of the input lists ``p`` occurs,
    i.e. how many of the query node's leaf atoms also occur as leaves of
    ``p`` -- the quantity the superset and ε-overlap joins of Section 4.1
    filter on.
    """
    counts: dict[int, int] = {}
    children_of: dict[int, tuple[int, ...]] = {}
    for plist in lists:
        for p, children in plist.entries:
            counts[p] = counts.get(p, 0) + 1
            if p not in children_of:
                children_of[p] = children
    return [(p, children_of[p], counts[p]) for p in sorted(counts)]


class PathList:
    """Navigation paths of the top-down algorithm: ``(head, frontier)``.

    ``head`` is the candidate node for the *query root*; ``frontier`` the
    children ids reachable at the current nesting level via some chain of
    successful ``▷``-joins from ``head``.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[tuple[int, tuple[int, ...]]] = ()) -> None:
        self.entries: tuple[tuple[int, tuple[int, ...]], ...] = tuple(entries)

    @classmethod
    def from_postings(cls, plist: PostingList) -> "PathList":
        """Initial paths: every root candidate heads its own path."""
        return cls(plist.entries)

    def heads(self) -> set[int]:
        """Set of original root candidates still alive on some path."""
        return {head for head, _ in self.entries}

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __iter__(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        return iter(self.entries)

    def __repr__(self) -> str:
        return f"PathList({list(self.entries)!r})"


def nav_join(paths: PathList, candidates: PostingList) -> PathList:
    """The inverted-list join ``L ▷ L'`` of Section 2.

    Keeps, for every path ``(head, C)`` and candidate ``(p', C')`` with
    ``p' ∈ C``, the extended path ``(head, C')``.  Several paths may share a
    head; duplicates ``(head, C')`` are collapsed.
    """
    if not paths or not candidates:
        return PathList()
    heads_by_child: dict[int, set[int]] = {}
    for head, frontier in paths.entries:
        for child in frontier:
            heads_by_child.setdefault(child, set()).add(head)
    out: list[tuple[int, tuple[int, ...]]] = []
    for p, children in candidates.entries:
        for head in heads_by_child.get(p, ()):
            out.append((head, children))
    return PathList(out)


def nav_join_descendant(paths: Sequence[tuple[int, int, int]],
                        candidates: PostingList
                        ) -> list[tuple[int, int, int]]:
    """Descendant-axis variant of ``▷`` for homeomorphic containment.

    ``paths`` entries are ``(head, node_id, max_desc)``: the query node is
    currently matched at ``node_id`` whose preorder subtree interval is
    ``(node_id, max_desc]``.  A candidate ``(p', C')`` qualifies for a path
    when ``node_id < p' <= max_desc`` (the constant-time interval test of
    Section 4.2).  Returns extended paths ``(head, p', max_desc')`` --
    ``max_desc'`` must be filled by the caller from node metadata, so here
    we return ``(head, p', -1)`` placeholders resolved upstream.
    """
    if not paths or not candidates:
        return []
    cand_ids = [p for p, _ in candidates.entries]
    out: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int]] = set()
    for head, node_id, max_desc in paths:
        lo = bisect_right(cand_ids, node_id)
        hi = bisect_right(cand_ids, max_desc, lo=lo)
        for index in range(lo, hi):
            key = (head, cand_ids[index])
            if key not in seen:
                seen.add(key)
                out.append((head, cand_ids[index], -1))
    return out


# -- match sets and the child-axis filters -----------------------------------
#
# A *match set* (the data nodes at which one query node embeds) travels
# between query levels either as a ``set`` of ints or, when it was read
# off a columnar list, as a sorted ``int64`` array.  The filters below
# take either form and follow the size rule of :func:`use_columns`: at
# or above :data:`COLUMNAR_MIN` candidates they run on the list's
# columns with two primitives -- :func:`in_sorted` (one membership test
# of a flat column) and :func:`children_in` (per-posting sums of that
# mask by prefix sums) -- and cut the survivors out with :func:`take`;
# below it they loop over the rows.

#: A match set in either form.  Test emptiness with ``len``; never mutate
#: one (arrays may be columns of cached blocks, sets may sit in a memo).
MatchIds = object


def match_ids(plist: "PostingList | LazyPostingList") -> MatchIds:
    """The heads of ``plist`` as a match set, in the form it is held in."""
    return plist.heads_array() if use_columns(plist) else plist.heads()


def id_array(ids):
    """A match set as a sorted ``int64`` array."""
    if isinstance(ids, _np.ndarray):
        return ids
    arr = _np.fromiter(ids, _np.int64, len(ids))
    arr.sort()
    return arr


def id_set(ids) -> "set[int] | frozenset[int]":
    """A match set as a set of Python ints."""
    if isinstance(ids, _np.ndarray):
        return set(ids.tolist())
    return ids


def in_sorted(values, ids):
    """Mask over ``values``: which occur in the sorted unique array ``ids``."""
    if not len(ids):
        return _np.zeros(len(values), dtype=bool)
    pos = _np.searchsorted(ids, values)
    _np.minimum(pos, len(ids) - 1, out=pos)
    return ids[pos] == values


def children_in(plist: "PostingList | LazyPostingList", ids):
    """Per posting of ``plist``: how many of its children lie in ``ids``.

    Prefix sums of the membership mask, differenced at the postings'
    offsets -- which, unlike ``add.reduceat``, is right for postings
    without children (equal offsets, so zero).
    """
    _heads, offsets, children = plist.columns()
    running = _np.zeros(len(children) + 1, dtype=_np.int64)
    _np.cumsum(in_sorted(children, id_array(ids)), out=running[1:])
    return running[offsets[1:]] - running[offsets[:-1]]


def take(plist: "PostingList | LazyPostingList", keep) -> PostingList:
    """The postings of ``plist`` under the boolean mask ``keep``."""
    index = _np.flatnonzero(keep)
    if len(index) == len(keep):
        return plist
    if not len(index):
        return PostingList()
    return _gather(plist, index)


def heads_with_child_in(candidates: PostingList,
                        required: Sequence) -> PostingList:
    """The ``H(·)`` operator of the bottom-up algorithm (Algorithm 4 line 12).

    Keeps candidates having at least one child in *each* of the ``required``
    match sets.
    """
    if not required:
        return candidates
    if use_columns(candidates):
        keep = _np.ones(len(candidates), dtype=bool)
        for ids in required:
            keep &= children_in(candidates, ids) > 0
        return take(candidates, keep)
    required = [id_set(ids) for ids in required]
    entries = [(p, children) for p, children in candidates.entries
               if all(any(c in h for c in children) for h in required)]
    return PostingList(entries)


def with_child_count(candidates: PostingList, want: int) -> PostingList:
    """Candidates with exactly ``want`` internal children (equality join)."""
    if use_columns(candidates):
        return take(candidates, _np.diff(candidates.columns()[1]) == want)
    return PostingList([(p, children) for p, children in candidates.entries
                        if len(children) == want])


def with_children_within(candidates: PostingList,
                         allowed: Sequence) -> PostingList:
    """Candidates whose every child lies in some ``allowed`` match set
    (superset join)."""
    if use_columns(candidates):
        union = _np.unique(_concat([id_array(ids) for ids in allowed]))
        n_children = _np.diff(candidates.columns()[1])
        return take(candidates,
                    children_in(candidates, union) == n_children)
    union = set().union(*(id_set(ids) for ids in allowed))
    return PostingList([(p, children) for p, children in candidates.entries
                        if all(c in union for c in children)])


def with_head_in(plist: PostingList, ids) -> PostingList:
    """Postings whose head lies in the match set ``ids``."""
    if use_columns(plist):
        return take(plist, in_sorted(plist.heads_array(), id_array(ids)))
    ids = id_set(ids)
    return PostingList([(p, children) for p, children in plist.entries
                        if p in ids])


def child_ids(plist: PostingList):
    """Every child id of ``plist``'s postings, as a match set."""
    if use_columns(plist):
        return _np.unique(plist.columns()[2])
    ids: set[int] = set()
    for _p, children in plist.entries:
        ids.update(children)
    return ids


def heads_with_descendant_in(candidates: PostingList,
                             required_sorted: Sequence[Sequence[int]],
                             max_desc_of) -> PostingList:
    """Homeomorphic ``H(·)``: candidates must have a *descendant* in each
    required set.  ``required_sorted`` holds sorted id lists; ``max_desc_of``
    maps a node id to the end of its preorder interval."""
    if not required_sorted:
        return candidates
    entries = []
    for p, children in candidates.entries:
        end = max_desc_of(p)
        if all(_has_in_interval(ids, p, end) for ids in required_sorted):
            entries.append((p, children))
    return PostingList(entries)


def _has_in_interval(sorted_ids: Sequence[int], start: int, end: int) -> bool:
    """True when some id in ``sorted_ids`` lies in ``(start, end]``."""
    index = bisect_left(sorted_ids, start + 1)
    return index < len(sorted_ids) and sorted_ids[index] <= end

"""Binary codecs for the physical representation of inverted-file payloads.

The inverted file of Section 2 of the paper stores, per atom, a posting list

    S_IF(a) = <(p_1, C_1), ..., (p_n, C_n)>

sorted on the ``p_i`` (internal node identifiers), where each ``C_i`` is the
sorted tuple of internal-node children of ``p_i``.  This module provides the
compact on-disk encoding for those lists: unsigned LEB128 varints with
delta-encoding of the sorted id sequences.

All encoders return :class:`bytes`; all decoders consume a :class:`bytes`
buffer (plus offset) and are written to be allocation-light since posting
list decoding sits on the hot path of every query.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterable, NamedTuple, Sequence

import numpy as _np

from .errors import CorruptionError

#: A posting pairs an internal node id with the sorted tuple of its
#: internal-node children ids (the ``(p, C)`` of the paper).
Posting = tuple[int, tuple[int, ...]]

#: Format byte of an atom value -- the one stored list layout: a skip
#: directory over blocks whose payloads are fixed-width little-endian
#: delta arrays, decodable in one ``frombuffer``/``cumsum`` shot (see
#: ``encode_blocked``).  The bytes below it named layouts this module
#: no longer reads or writes (DESIGN.md, "Formats retired").
PACKED_FORMAT_BYTE = 3

#: Postings per block of a block-compressed value.  128 keeps a block's
#: decode cost small (a few microseconds) while the per-block directory
#: overhead stays under 1% of the payload on realistic id densities.
DEFAULT_BLOCK_SIZE = 128

#: Permitted fixed widths (bytes per value) of a packed block's arrays.
PACKED_WIDTHS = (1, 2, 4, 8)

_WIDTH_TYPECODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
_WIDTH_LIMITS = {1: 1 << 8, 2: 1 << 16, 4: 1 << 32, 8: 1 << 64}
_WIDTH_DTYPES = {1: _np.dtype("<u1"), 2: _np.dtype("<u2"),
                 4: _np.dtype("<u4"), 8: _np.dtype("<u8")}


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as an unsigned LEB128 varint."""
    if value < 0:
        raise ValueError("varints encode non-negative integers only")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(buf: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint from ``buf`` at ``offset``.

    Returns ``(value, next_offset)``.
    """
    result = 0
    shift = 0
    pos = offset
    try:
        while True:
            byte = buf[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result, pos
            shift += 7
    except IndexError:
        raise CorruptionError("truncated varint") from None


def encode_uint_list(values: Sequence[int]) -> bytes:
    """Encode a *sorted* list of non-negative ints with delta compression."""
    out = bytearray()
    out += encode_varint(len(values))
    prev = 0
    for value in values:
        delta = value - prev
        if delta < 0:
            raise ValueError("encode_uint_list requires a sorted sequence")
        out += encode_varint(delta)
        prev = value
    return bytes(out)


def decode_uint_list(buf: bytes, offset: int = 0) -> tuple[list[int], int]:
    """Decode a delta-compressed sorted int list; returns (list, next_offset)."""
    count, pos = decode_varint(buf, offset)
    values: list[int] = []
    current = 0
    for _ in range(count):
        delta, pos = decode_varint(buf, pos)
        current += delta
        values.append(current)
    return values, pos


def _encode_rows(out: bytearray, postings: Iterable[Posting],
                 prev_p: int | None) -> None:
    """Append ``delta(p), len(C), delta-encoded C`` per posting;
    ``prev_p`` is the head before them, ``None`` at the start of a list
    (whose first head is stored as it is)."""
    for p, children in postings:
        if prev_p is None:
            delta = p
        else:
            delta = p - prev_p
            if delta <= 0:
                raise ValueError("postings must be strictly sorted on "
                                 "head id")
        out += encode_varint(delta)
        prev_p = p
        out += encode_varint(len(children))
        prev_c = 0
        for child in children:
            cdelta = child - prev_c
            if cdelta < 0:
                raise ValueError("posting children must be sorted")
            out += encode_varint(cdelta)
            prev_c = child


def encode_postings(postings: Iterable[Posting]) -> bytes:
    """Encode a posting list sorted on the head ids ``p``.

    Layout: ``count, then per posting: delta(p), len(C), delta-encoded C``.
    """
    items = list(postings)
    out = bytearray(encode_varint(len(items)))
    _encode_rows(out, items, None)
    return bytes(out)


def append_postings(raw: bytes, last_head: int,
                    entries: Sequence[Posting]) -> bytes:
    """Extend an :func:`encode_postings` value whose last head is
    ``last_head``: the count varint is rewritten and the new rows are
    appended, so the cost is what is added, and the result is what
    encoding the whole list again would give."""
    count, pos = decode_varint(raw, 0)
    out = bytearray(encode_varint(count + len(entries)))
    out += raw[pos:]
    _encode_rows(out, entries, last_head if count else None)
    return bytes(out)


def decode_postings(buf: bytes, offset: int = 0) -> list[Posting]:
    """Decode a posting list previously produced by :func:`encode_postings`."""
    count, pos = decode_varint(buf, offset)
    postings: list[Posting] = []
    p = 0
    for _ in range(count):
        delta, pos = decode_varint(buf, pos)
        p += delta
        n_children, pos = decode_varint(buf, pos)
        children = []
        c = 0
        for _ in range(n_children):
            cdelta, pos = decode_varint(buf, pos)
            c += cdelta
            children.append(c)
        postings.append((p, tuple(children)))
    return postings


class BlockInfo(NamedTuple):
    """Directory entry of one block of a block-compressed value.

    ``min_head``/``max_head``/``count`` form the skip header (decide from
    the directory alone whether a head range can touch the block);
    ``offset``/``length`` locate the still-encoded payload inside the
    value, so a single block decodes without touching its neighbours.
    """

    min_head: int
    max_head: int
    count: int
    offset: int
    length: int


class BlockedHeader(NamedTuple):
    """Decoded header + directory of a block-compressed value."""

    total: int
    block_size: int
    blocks: tuple[BlockInfo, ...]


# -- packed (0x03) block payloads -------------------------------------------

def _width_for(maximum: int) -> int:
    """Smallest permitted fixed width holding ``maximum`` (unsigned)."""
    for width in PACKED_WIDTHS:
        if maximum < _WIDTH_LIMITS[width]:
            return width
    raise ValueError(f"value {maximum} exceeds 64-bit packed width")


def _pack_fixed(values: Sequence[int], width: int) -> bytes:
    """Little-endian fixed-width packing."""
    arr = array(_WIDTH_TYPECODES[width], values)
    if sys.byteorder == "big":  # pragma: no cover - LE hosts everywhere
        arr.byteswap()
    return arr.tobytes()


def _packed_deltas(chunk: Sequence[Posting], prev_head: int | None
                   ) -> tuple[list[int], list[int], list[int]]:
    """Head deltas, child counts and per-posting child deltas of
    ``chunk``; ``prev_head`` is the head before it, ``None`` at the
    start of a block (whose first delta is stored as 0)."""
    heads: list[int] = []
    counts: list[int] = []
    children: list[int] = []
    for p, cs in chunk:
        if prev_head is None:
            heads.append(0)
        else:
            delta = p - prev_head
            if delta <= 0:
                raise ValueError("packed postings must be strictly "
                                 "sorted on head id")
            heads.append(delta)
        prev_head = p
        counts.append(len(cs))
        prev_c = 0
        for index, child in enumerate(cs):
            delta = child if index == 0 else child - prev_c
            if delta < 0:
                raise ValueError("posting children must be sorted")
            children.append(delta)
            prev_c = child
    return heads, counts, children


def encode_packed_block(chunk: Sequence[Posting]) -> bytes:
    """Encode one block of postings as fixed-width delta arrays.

    Layout::

        [w_heads u8][w_counts u8][w_children u8]
        head deltas      (count x w_heads,      little-endian)
        child counts     (count x w_counts)
        child deltas     (n_children x w_children)

    Head deltas are taken against the previous head; the first delta is
    0 because the directory's ``min_head`` anchors the block.  Child
    deltas restart per posting with the first child stored absolutely,
    so the whole flattened array decodes with one cumulative sum plus a
    per-posting correction -- no per-element branching.  Width of each
    array is the smallest of {1, 2, 4, 8} bytes that fits its maximum.
    """
    heads, counts, children = _packed_deltas(chunk, None)
    w_heads = _width_for(max(heads, default=0))
    w_counts = _width_for(max(counts, default=0))
    w_children = _width_for(max(children, default=0))
    return bytes((w_heads, w_counts, w_children)) + \
        _pack_fixed(heads, w_heads) + _pack_fixed(counts, w_counts) + \
        _pack_fixed(children, w_children)


def _packed_layout(raw: bytes, offset: int, length: int, count: int
                   ) -> tuple[int, int, int, int, int, int]:
    """Widths and array starts of the packed block payload at
    ``raw[offset:offset + length]`` holding ``count`` postings:
    ``(w_heads, w_counts, w_children, counts_at, children_at,
    n_children)``; the head array starts at ``offset + 3``."""
    end = offset + length
    if length < 3 or end > len(raw):
        raise CorruptionError("truncated packed block payload")
    w_heads, w_counts, w_children = raw[offset], raw[offset + 1], \
        raw[offset + 2]
    if w_heads not in _WIDTH_LIMITS or w_counts not in _WIDTH_LIMITS \
            or w_children not in _WIDTH_LIMITS:
        raise CorruptionError(
            f"bad packed block widths ({w_heads},{w_counts},{w_children})")
    counts_at = offset + 3 + count * w_heads
    children_at = counts_at + count * w_counts
    if children_at > end:
        raise CorruptionError("packed block shorter than its directory "
                              "entry claims")
    child_bytes = end - children_at
    if child_bytes % w_children:
        raise CorruptionError("packed child array misaligned")
    return w_heads, w_counts, w_children, counts_at, children_at, \
        child_bytes // w_children


def _check_heads(first_delta: int, repeats: bool, last_head: int,
                 max_head: int) -> None:
    """Refuse head deltas that do not rebuild a block's heads: the first
    must be 0 (the directory's ``min_head`` anchors the block), every
    later one positive (heads strictly ascend, as the row codec
    requires), and the last head must be the directory's ``max_head``."""
    if first_delta:
        raise CorruptionError("packed block's first head is not the "
                              "directory's min_head")
    if repeats:
        raise CorruptionError("packed block repeats a head or goes back")
    if last_head != max_head:
        raise CorruptionError("packed block heads end past the "
                              "directory's max_head")


def _unpack_fixed(raw: bytes, start: int, end: int, width: int) -> array:
    """Inverse of :func:`_pack_fixed` over ``raw[start:end]``."""
    arr = array(_WIDTH_TYPECODES[width])
    arr.frombytes(raw[start:end])
    if sys.byteorder == "big":  # pragma: no cover
        arr.byteswap()
    return arr


def _unpack_checked(raw: bytes, offset: int, length: int, count: int,
                    min_head: int, max_head: int):
    """The splice's reading of a packed block: its layout
    (:func:`_packed_layout`) and its head-delta and count arrays, the
    counts checked against the children held and the head deltas
    against the directory's heads (:func:`_check_heads`), as
    :func:`decode_packed_arrays` checks them."""
    layout = _packed_layout(raw, offset, length, count)
    w_heads, w_counts, _w_children, counts_at, children_at, n_children = \
        layout
    head_arr = _unpack_fixed(raw, offset + 3, counts_at, w_heads)
    count_arr = _unpack_fixed(raw, counts_at, children_at, w_counts)
    if sum(count_arr) != n_children:
        raise CorruptionError("packed child counts disagree with "
                              "payload size")
    if count:
        _check_heads(head_arr[0], 0 in head_arr[1:],
                     min_head + sum(head_arr), max_head)
    return layout, head_arr, count_arr


def decode_packed_arrays(raw: bytes, info: BlockInfo):
    """Decode one packed block to ``(heads, counts, children)`` arrays.

    The three arrays come back as ``int64`` ndarrays produced by
    ``frombuffer(...).astype(int64).cumsum()`` -- the whole block in a
    handful of vector ops.  ``children`` is the flattened concatenation
    of every posting's child ids (slice it with ``counts``).  Raises
    :class:`CorruptionError` on truncated or internally inconsistent
    payloads instead of returning garbage.
    """
    count = info.count
    heads_at = info.offset + 3
    w_heads, w_counts, w_children, counts_at, children_at, n_children = \
        _packed_layout(raw, info.offset, info.length, count)
    head_deltas = _np.frombuffer(raw, _WIDTH_DTYPES[w_heads],
                                 count, heads_at).astype(_np.int64)
    heads = head_deltas.cumsum()
    heads += info.min_head
    if count:
        _check_heads(int(head_deltas[0]), bool((head_deltas[1:] <= 0).any()),
                     int(heads[-1]), info.max_head)
    counts = _np.frombuffer(raw, _WIDTH_DTYPES[w_counts],
                            count, counts_at).astype(_np.int64)
    if int(counts.sum()) != n_children:
        raise CorruptionError("packed child counts disagree with "
                              "payload size")
    deltas = _np.frombuffer(raw, _WIDTH_DTYPES[w_children],
                            n_children, children_at).astype(_np.int64)
    children = deltas.cumsum()
    if n_children:
        # Per-posting delta restart: subtract, from every posting's
        # run, the running sum accumulated before its first element.
        starts = counts.cumsum() - counts
        base = _np.where(starts > 0, children[starts - 1], 0)
        children = children - _np.repeat(base, counts)
    return heads, counts, children


def decode_packed_block(raw: bytes, info: BlockInfo) -> list[Posting]:
    """Materialize one packed block as ``(head, children)`` postings."""
    heads, counts, children = (column.tolist() for column in
                               decode_packed_arrays(raw, info))
    out: list[Posting] = []
    at = 0
    for head, n in zip(heads, counts):
        out.append((head, tuple(children[at:at + n])))
        at += n
    return out


def encode_blocked(postings: Sequence[Posting],
                   block_size: int = DEFAULT_BLOCK_SIZE) -> bytes:
    """Encode a sorted posting list as fixed-size skip-indexed blocks.

    Layout::

        [0x03][total][block_size][n_blocks]
        { [min_head delta][span][count][payload bytes] }*   (directory)
        { block payload }*                                  (concatenated)

    Payloads are fixed-width packed arrays
    (:func:`encode_packed_block`, decodable in bulk), so a
    reader can decode any block from the directory without scanning the
    ones before it.  ``min_head`` is delta-encoded against the previous
    block's ``max_head``; ``span`` is ``max_head - min_head``.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    items = list(postings)
    chunks = [items[start:start + block_size]
              for start in range(0, len(items), block_size)]
    payloads = [encode_packed_block(chunk) for chunk in chunks]
    out = bytearray([PACKED_FORMAT_BYTE])
    out += encode_varint(len(items))
    out += encode_varint(block_size)
    out += encode_varint(len(chunks))
    previous_max = 0
    for chunk, payload in zip(chunks, payloads):
        min_head = chunk[0][0]
        max_head = chunk[-1][0]
        if min_head < previous_max and previous_max:
            raise ValueError("blocked postings must be sorted on head id")
        out += encode_varint(min_head - previous_max)
        out += encode_varint(max_head - min_head)
        out += encode_varint(len(chunk))
        out += encode_varint(len(payload))
        previous_max = max_head
    for payload in payloads:
        out += payload
    return bytes(out)


def _require_packed(raw: bytes) -> None:
    """Refuse a value that is not in the one stored list layout."""
    if not raw or raw[0] != PACKED_FORMAT_BYTE:
        found = f"format byte 0x{raw[0]:02x}" if raw else "no bytes"
        raise CorruptionError(
            f"posting list value has {found}, not the packed block "
            "format 0x03; lists of the retired formats 0x00-0x02 are "
            "not read: rebuild the index")


def decode_blocked_header(raw: bytes) -> BlockedHeader:
    """Decode a blocked value's directory; payloads stay untouched."""
    _require_packed(raw)
    total, pos = decode_varint(raw, 1)
    block_size, pos = decode_varint(raw, pos)
    n_blocks, pos = decode_varint(raw, pos)
    spans: list[tuple[int, int, int, int]] = []
    previous_max = 0
    for _ in range(n_blocks):
        min_delta, pos = decode_varint(raw, pos)
        span, pos = decode_varint(raw, pos)
        count, pos = decode_varint(raw, pos)
        length, pos = decode_varint(raw, pos)
        min_head = previous_max + min_delta
        max_head = min_head + span
        spans.append((min_head, max_head, count, length))
        previous_max = max_head
    blocks = []
    offset = pos
    for min_head, max_head, count, length in spans:
        blocks.append(BlockInfo(min_head, max_head, count, offset, length))
        offset += length
    if offset > len(raw):
        raise CorruptionError("truncated blocked value payload")
    return BlockedHeader(total, block_size, tuple(blocks))


def decode_blocked(raw: bytes) -> list[Posting]:
    """Materialize every block of a blocked value (the eager path)."""
    header = decode_blocked_header(raw)
    postings: list[Posting] = []
    for info in header.blocks:
        postings.extend(decode_packed_block(raw, info))
    return postings


def _splice_packed(raw: bytes, offset: int, length: int, count: int,
                   min_head: int, max_head: int,
                   entries: Sequence[Posting]) -> bytes | None:
    """The packed tail block's payload with ``entries`` added, or
    ``None`` when one of its three widths must grow.

    The payload is checked as a decode checks it
    (:func:`_unpack_checked`), then the new fixed-width
    head, count and child deltas are inserted at the end of their
    arrays; nothing already stored is decoded into postings or encoded
    again.
    """
    (w_heads, w_counts, w_children, counts_at, children_at,
     _n_children), _head_arr, _count_arr = _unpack_checked(
        raw, offset, length, count, min_head, max_head)
    end = offset + length
    heads, counts, children = _packed_deltas(entries, max_head)
    if max(heads, default=0) >= _WIDTH_LIMITS[w_heads] \
            or max(counts, default=0) >= _WIDTH_LIMITS[w_counts] \
            or max(children, default=0) >= _WIDTH_LIMITS[w_children]:
        return None
    return b"".join((
        raw[offset:counts_at], _pack_fixed(heads, w_heads),
        raw[counts_at:children_at], _pack_fixed(counts, w_counts),
        raw[children_at:end], _pack_fixed(children, w_children)))


class AppendDelta(NamedTuple):
    """What :func:`append_blocked_delta` changed in a blocked value.

    The first ``kept`` blocks keep their entries and payload bytes;
    their payloads sit ``shift`` bytes further on (the directory grew).
    ``blocks`` is the new value's directory from block ``kept`` on: the
    tail block when entries went into it, and every fresh block.
    """

    kept: int
    shift: int
    blocks: tuple[BlockInfo, ...]


def append_blocked(raw: bytes, entries: Sequence[Posting]) -> bytes:
    """Extend a blocked value with postings sorted after its last head
    (:func:`append_blocked_delta` without its delta)."""
    if not entries:
        return raw
    return append_blocked_delta(raw, entries)[0]


def append_blocked_delta(raw: bytes, entries: Sequence[Posting]
                         ) -> tuple[bytes, AppendDelta]:
    """Extend a blocked value with postings sorted after its last head;
    returns the new value and what changed (:class:`AppendDelta`).

    Costs what it adds: the directory is walked without building
    :class:`BlockInfo`s, full blocks keep their entries and payload
    bytes, and the tail block takes what fits its room by
    :func:`_splice_packed`.  Only a tail whose widths must grow is
    decoded and encoded again; what does not fit the tail goes into
    fresh blocks.  Either way the result is byte for byte
    ``encode_blocked(old + new)``.
    """
    _require_packed(raw)
    total, pos = decode_varint(raw, 1)
    block_size, pos = decode_varint(raw, pos)
    n_blocks, directory_at = decode_varint(raw, pos)
    if not entries:
        return raw, AppendDelta(n_blocks, 0, ())
    if not n_blocks:
        fresh = encode_blocked(entries, block_size)
        return fresh, AppendDelta(0, 0, decode_blocked_header(fresh).blocks)
    # Directory walk: where the tail's entry starts, the head it is
    # delta-encoded against, and the bytes of payload before its own.
    pos = directory_at
    max_head = payload_before = length = 0
    for _ in range(n_blocks):
        tail_entry_at, previous_max = pos, max_head
        payload_before += length
        min_delta, pos = decode_varint(raw, pos)
        span, pos = decode_varint(raw, pos)
        count, pos = decode_varint(raw, pos)
        length, pos = decode_varint(raw, pos)
        min_head = previous_max + min_delta
        max_head = min_head + span
    payloads_at = pos
    tail_at = payloads_at + payload_before
    if tail_at + length > len(raw):
        raise CorruptionError("truncated blocked value payload")
    if entries[0][0] <= max_head:
        raise ValueError("append_blocked requires heads past the tail")
    room = max(0, block_size - count)
    fits, rest = entries[:room], entries[room:]
    payload = _splice_packed(raw, tail_at, length, count,
                             min_head, max_head, fits)
    if payload is None:
        info = BlockInfo(min_head, max_head, count, tail_at, length)
        payload = encode_packed_block(
            decode_packed_block(raw, info) + list(fits))
    chunks = [rest[start:start + block_size]
              for start in range(0, len(rest), block_size)]
    payloads = [payload] + [encode_packed_block(chunk) for chunk in chunks]
    out = bytearray([PACKED_FORMAT_BYTE])
    out += encode_varint(total + len(entries))
    out += encode_varint(block_size)
    out += encode_varint(n_blocks + len(chunks))
    out += raw[directory_at:tail_entry_at]
    spans = [(min_head, fits[-1][0] if fits else max_head,
              count + len(fits))]
    spans += [(chunk[0][0], chunk[-1][0], len(chunk)) for chunk in chunks]
    for (low, high, held), block in zip(spans, payloads):
        out += encode_varint(low - previous_max)
        out += encode_varint(high - low)
        out += encode_varint(held)
        out += encode_varint(len(block))
        previous_max = high
    shift = len(out) - payloads_at
    infos = []
    offset = tail_at + shift
    for (low, high, held), block in zip(spans, payloads):
        infos.append(BlockInfo(low, high, held, offset, len(block)))
        offset += len(block)
    out += raw[payloads_at:tail_at]
    for block in payloads:
        out += block
    # A tail with no room keeps its bytes: it is one of the kept blocks.
    if fits:
        return bytes(out), AppendDelta(n_blocks - 1, shift, tuple(infos))
    return bytes(out), AppendDelta(n_blocks, shift, tuple(infos[1:]))


def encode_str(text: str) -> bytes:
    """Length-prefixed UTF-8 string encoding."""
    raw = text.encode("utf-8")
    return encode_varint(len(raw)) + raw


def decode_str(buf: bytes, offset: int = 0) -> tuple[str, int]:
    """Decode a length-prefixed UTF-8 string; returns (text, next_offset)."""
    length, pos = decode_varint(buf, offset)
    end = pos + length
    if end > len(buf):
        raise CorruptionError("truncated string payload")
    return buf[pos:end].decode("utf-8"), end


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash, used by the disk hash table for bucketing.

    Chosen over Python's built-in ``hash`` because it is stable across
    processes (``PYTHONHASHSEED`` would otherwise scramble bucket layouts
    between the process that wrote a store and the one that reads it).
    """
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h

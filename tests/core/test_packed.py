"""Satellite coverage for the packed (0x03) posting format.

Four concerns of the data plane live here: width promotion must
round-trip at every fixed-width boundary (hypothesis drives deltas
across the 1/2/4/8-byte edges), corrupted or truncated packed payloads
must raise :class:`CorruptionError` instead of decoding garbage,
bytes of the retired list formats (0x00 plain, 0x01 range-tagged, 0x02
varint-blocked) and the configurations that went with them must be
refused with a typed error naming the format, and an intersection that
mixes plain and packed operands must match a reference.
"""

from __future__ import annotations

import random
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.checker import check_index
from repro.core.engine import NestedSetIndex
from repro.core.invfile import InvertedFile, InvertedFileError
from repro.core.model import NestedSet
from repro.core.postings import LazyPostingList, PostingList, intersect
from repro.storage.codec import (
    PACKED_FORMAT_BYTE,
    PACKED_WIDTHS,
    BlockInfo,
    CorruptionError,
    _width_for,
    decode_blocked,
    decode_blocked_header,
    decode_packed_arrays,
    encode_blocked,
)

from .test_blocked import _lists_over_nodes, _reference_intersection


# -- width promotion --------------------------------------------------------

#: Deltas straddling every fixed-width boundary: one byte tops out at
#: 255, two at 65535, four at 2^32 - 1; anything larger takes 8 bytes.
_EDGES = (1, 2, 255, 256, 257, 65_535, 65_536, 65_537,
          (1 << 32) - 1, 1 << 32, (1 << 32) + 1)

_head_delta = st.one_of(st.integers(1, 300), st.sampled_from(_EDGES))
_child_delta = st.one_of(st.integers(0, 300), st.sampled_from(_EDGES))


@st.composite
def _edge_posting_lists(draw):
    """Sorted posting lists whose deltas cross width-promotion edges."""
    head_deltas = draw(st.lists(_head_delta, max_size=24))
    entries = []
    for p in accumulate(head_deltas):
        child_deltas = draw(st.lists(_child_delta, max_size=4))
        entries.append((p, tuple(accumulate(child_deltas))))
    return entries


class TestWidthPromotion:
    def test_width_for_edges(self) -> None:
        assert _width_for(0) == 1
        assert _width_for(255) == 1
        assert _width_for(256) == 2
        assert _width_for(65_535) == 2
        assert _width_for(65_536) == 4
        assert _width_for((1 << 32) - 1) == 4
        assert _width_for(1 << 32) == 8
        assert _width_for((1 << 64) - 1) == 8
        with pytest.raises(ValueError):
            _width_for(1 << 64)

    @given(entries=_edge_posting_lists(),
           block_size=st.sampled_from([1, 3, 7, 128]))
    @settings(max_examples=120, deadline=None)
    def test_round_trip_across_width_edges(self, entries,
                                           block_size) -> None:
        raw = encode_blocked(entries, block_size)
        assert raw[0] == PACKED_FORMAT_BYTE
        assert decode_blocked(raw) == entries
        for info in decode_blocked_header(raw).blocks:
            for width in raw[info.offset:info.offset + 3]:
                assert width in PACKED_WIDTHS

    def test_each_promotion_edge_deterministic(self) -> None:
        # One list per edge: the head spacing and the child ids force
        # that edge's width, and the payload must still round-trip.
        for edge in (255, 256, 65_535, 65_536, (1 << 32) - 1, 1 << 32):
            entries = [(0, (0, edge)), (edge, ()),
                       (2 * edge + 1, (edge + 1,))]
            for block_size in (1, 2, 8):
                raw = encode_blocked(entries, block_size)
                assert decode_blocked(raw) == entries, edge


# -- corruption -------------------------------------------------------------

class TestPackedCorruption:
    def _sample(self):
        entries = [(p, (p + 1, p + 3)) for p in range(0, 40, 2)]
        raw = encode_blocked(entries, 8)
        assert raw[0] == PACKED_FORMAT_BYTE
        return raw, decode_blocked_header(raw)

    def test_truncated_value_rejected(self) -> None:
        raw, _header = self._sample()
        for cut in (1, 4, len(raw) // 2):
            with pytest.raises(CorruptionError):
                decode_blocked(raw[:len(raw) - cut])

    def test_truncated_block_payload_rejected(self) -> None:
        raw, header = self._sample()
        info = header.blocks[0]
        # A directory entry claiming fewer bytes than the width header
        # needs, and one pointing past the buffer, must both be caught.
        for length in (0, 2):
            short = BlockInfo(info.min_head, info.max_head, info.count,
                              info.offset, length)
            with pytest.raises(CorruptionError):
                decode_packed_arrays(raw, short)
        past_end = BlockInfo(info.min_head, info.max_head, info.count,
                             len(raw) - 4, 64)
        with pytest.raises(CorruptionError):
            decode_packed_arrays(raw, past_end)

    def test_bad_width_byte_rejected(self) -> None:
        raw, header = self._sample()
        for byte_at in range(3):
            tampered = bytearray(raw)
            tampered[header.blocks[0].offset + byte_at] = 7
            with pytest.raises(CorruptionError):
                decode_blocked(bytes(tampered))

    def test_counts_payload_mismatch_rejected(self) -> None:
        raw, header = self._sample()
        info = header.blocks[0]
        w_heads = raw[info.offset]
        counts_at = info.offset + 3 + info.count * w_heads
        tampered = bytearray(raw)
        tampered[counts_at] += 1        # first posting claims an extra child
        with pytest.raises(CorruptionError):
            decode_packed_arrays(bytes(tampered), info)

    def test_heads_past_directory_max_rejected(self) -> None:
        raw, header = self._sample()
        info = header.blocks[0]
        w_heads = raw[info.offset]
        last_delta = info.offset + 3 + (info.count - 1) * w_heads
        tampered = bytearray(raw)
        tampered[last_delta] += 1       # cumsum now overshoots max_head
        with pytest.raises(CorruptionError):
            decode_packed_arrays(bytes(tampered), info)

    def test_misaligned_child_array_rejected(self) -> None:
        entries = [(0, (1,)), (5, (2, 4, 6))]      # 4 one-byte child deltas
        raw = encode_blocked(entries, 8)
        info = decode_blocked_header(raw).blocks[0]
        tampered = bytearray(raw)
        tampered[info.offset + 2] = 8              # 4 bytes % 8 != 0
        with pytest.raises(CorruptionError):
            decode_packed_arrays(bytes(tampered), info)


# -- retired formats are refused, typed -------------------------------------

#: The list ``[(0, ()), (1, ())]`` as the three retired formats stored
#: it, byte by byte (no encoder for them is left in ``src/``).
_ROWS = b"\x02" b"\x00\x00" b"\x01\x00"    # count; (delta p, |C|) x 2
OLD_VALUES = {
    # [0x00][rows]
    0x00: b"\x00" + _ROWS,
    # [0x01][total][n units] { [min_head delta][span] }; rows under G: keys
    0x01: b"\x01" b"\x02" b"\x01" b"\x00\x01",
    # [0x02][total][block_size=128][n_blocks]
    #   { [min_head delta][span][count][payload bytes] } { rows }
    0x02: b"\x02" b"\x02" b"\x80\x01" b"\x01" b"\x00\x01\x02\x05" + _ROWS,
}
#: n_records, n_nodes, n_all_blocks, n_zero_blocks, then the two slots.
OLD_CONFIGS = {
    "segment_size=16": b"\x02\x02\x01\x00" b"\x10" b"\x00",
    "block_size=0": b"\x02\x02\x01\x00" b"\x00" b"\x00",
    "four-field": b"\x02\x02\x01\x00",
}

N = NestedSet
_OLD_RECORDS = [("r0", N(["old", "x"])), ("r1", N(["old", "y"]))]


@pytest.mark.parametrize("storage", ["memory", "diskhash"])
class TestRetiredFormatsAreRefused:
    def _build(self, storage, tmp_path):
        path = None if storage == "memory" else str(tmp_path / "old.ix")
        index = NestedSetIndex.build(_OLD_RECORDS, storage=storage, path=path)
        assert list(index.inverted_file.postings("old")) == \
            [(0, ()), (1, ())]
        index.inverted_file.cache.clear()    # the test writes under them
        index.inverted_file.block_cache.clear()
        return index, path

    @pytest.mark.parametrize("fmt", sorted(OLD_VALUES))
    def test_old_atom_value(self, storage, fmt, tmp_path) -> None:
        index, path = self._build(storage, tmp_path)
        index.inverted_file.store.put(b"A:s:old", OLD_VALUES[fmt])
        if path is not None:            # refused at first read after open
            index.close()
            index = NestedSetIndex.open(storage, path)
        ifile = index.inverted_file
        named = f"0x{fmt:02x}"
        for read in (lambda: ifile.postings("old"),
                     lambda: ifile.list_length("old"),
                     lambda: ifile.intersect_atoms(["x", "old"]),
                     lambda: index.query(N(["old"]))):
            with pytest.raises(InvertedFileError) as refused:
                read()
            assert named in str(refused.value)
            assert "rebuild the index" in str(refused.value)
        assert [problem for problem in check_index(ifile)
                if "'old'" in problem and named in problem]
        # An insert onto the atom is refused by the codec, and the
        # commit group leaves the index as it found it.
        with pytest.raises((InvertedFileError, CorruptionError)) as refused:
            index.insert("r2", N(["old", "z"]))
        assert named in str(refused.value)
        assert index.n_records == 2
        assert index.query(N(["x"])) == ["r0"]
        assert index.insert("r2", N(["x", "z"])) == 2
        assert index.query(N(["x"])) == ["r0", "r2"]
        index.close()

    @pytest.mark.parametrize("config", sorted(OLD_CONFIGS))
    def test_old_configuration(self, storage, config, tmp_path) -> None:
        index, path = self._build(storage, tmp_path)
        store = index.inverted_file.store
        store.put(b"M:config", OLD_CONFIGS[config])
        if path is not None:
            index.close()
        with pytest.raises(InvertedFileError) as refused:
            if path is None:
                NestedSetIndex.from_store(store)
            else:
                NestedSetIndex.open(storage, path)
        assert "rebuild the index" in str(refused.value)
        if config == "segment_size=16":
            assert "16" in str(refused.value)
        if path is None:
            with pytest.raises(InvertedFileError):
                InvertedFile(store)


# -- mixed plain / packed intersection --------------------------------------

class TestNumpyFallback:
    """Once the scalar twin of the vectorized kernel; with one kernel
    left, the mixed-operand cases are checked against a reference."""

    def test_fallback_intersect_matches_vectorized(self) -> None:
        # Plain and four-posting-block lazy operands alternating, every
        # list non-empty, heads dense (50) or sparse (400).
        rng = random.Random(43)
        for trial in range(40):
            lists = _lists_over_nodes(
                rng, rng.choice([50, 400]),
                [rng.randrange(1, 50) for _ in range(rng.randrange(2, 4))])
            operands = [LazyPostingList(encode_blocked(entries, 4))
                        if i % 2 else PostingList(entries)
                        for i, entries in enumerate(lists)]
            assert intersect(operands).entries == \
                _reference_intersection(lists), trial

"""Property tests for the block-compressed posting format.

Three layers are covered: the codec (``encode_blocked`` and friends must
round-trip any sorted posting list, and the row codec beside it the
ALL/ZERO blocks), the lazy reader (:class:`LazyPostingList` + ``BlockCache``),
and the galloping intersection kernel, which is checked against a
test-local reference over 500 randomized list combinations.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import BlockCache
from repro.core.invfile import LIST_BLOCK, QueryStats
from repro.core import postings
from repro.core.postings import (
    COLUMNAR_MIN,
    LazyPostingList,
    PostingList,
    id_array,
    intersect,
    intersect_within,
)
from repro.core.updates import _append_blocks
from repro.storage.codec import (
    PACKED_FORMAT_BYTE,
    CorruptionError,
    append_blocked,
    append_blocked_delta,
    append_postings,
    decode_blocked,
    decode_blocked_header,
    decode_packed_block,
    decode_postings,
    encode_blocked,
    encode_packed_block,
    encode_postings,
    encode_varint,
)
from repro.storage.kvstore import MemoryKVStore


def _random_postings(rng: random.Random, size: int,
                     head_space: int = 10_000) -> list:
    """A sorted posting list with unique heads and sorted children."""
    heads = sorted(rng.sample(range(head_space), size))
    out = []
    for p in heads:
        n_children = rng.randrange(0, 4)
        children = tuple(sorted(rng.sample(range(head_space), n_children)))
        out.append((p, children))
    return out


def _lists_over_nodes(rng: random.Random, head_space: int,
                      sizes: list[int]) -> list:
    """Sorted posting lists over one set of nodes: a head has the same
    children in every list that holds it, as a node has in an index.
    Every list also holds a random prefix of the first one's heads."""
    children_of: dict[int, tuple[int, ...]] = {}

    def posting(p: int):
        if p not in children_of:
            children_of[p] = tuple(sorted(rng.sample(
                range(head_space), rng.randrange(0, 4))))
        return p, children_of[p]

    heads = [rng.sample(range(head_space), size) for size in sizes]
    shared = sorted(heads[0])[:rng.randrange(0, sizes[0] + 1)]
    return [[posting(p) for p in sorted(set(some) | set(shared))]
            for some in heads]


def _reference_intersection(lists: list) -> tuple:
    """The entries of the first list whose head lies in every list's
    head set: a witness for ``intersect`` that shares none of its code."""
    head_sets = [{p for p, _ in entries} for entries in lists[1:]]
    return tuple(entry for entry in lists[0]
                 if all(entry[0] in heads for heads in head_sets))


class TestCodecRoundTrip:
    def test_round_trip_random(self) -> None:
        rng = random.Random(7)
        for _ in range(50):
            size = rng.randrange(0, 400)
            block_size = rng.choice([1, 2, 3, 7, 64, 128, 1000])
            entries = _random_postings(rng, size)
            raw = encode_blocked(entries, block_size)
            assert raw[0] == PACKED_FORMAT_BYTE
            assert decode_blocked(raw) == entries

    def test_header_directory(self) -> None:
        rng = random.Random(8)
        entries = _random_postings(rng, 100)
        raw = encode_blocked(entries, 16)
        header = decode_blocked_header(raw)
        assert header.total == 100
        assert header.block_size == 16
        assert len(header.blocks) == 7          # ceil(100 / 16)
        assert sum(info.count for info in header.blocks) == 100
        at = 0
        for info in header.blocks:
            chunk = entries[at:at + info.count]
            assert info.min_head == chunk[0][0]
            assert info.max_head == chunk[-1][0]
            assert decode_packed_block(raw, info) == chunk
            at += info.count

    def test_legacy_plain_format_still_decodes(self) -> None:
        # The row codec (plain ``encode_postings`` values) is what the
        # ALL/ZERO blocks and the bulk-load runs are stored in.
        rng = random.Random(9)
        entries = _random_postings(rng, 150)
        raw = encode_postings(entries)
        assert decode_postings(raw) == entries
        assert PostingList.decode(raw).entries == tuple(entries)

    def test_blocked_header_rejects_plain(self) -> None:
        raw = encode_postings([(1, ()), (2, (3,))])
        with pytest.raises(CorruptionError):
            decode_blocked_header(raw)

    def test_truncation_detected(self) -> None:
        rng = random.Random(10)
        raw = encode_blocked(_random_postings(rng, 64), 8)
        with pytest.raises(CorruptionError):
            decode_blocked_header(raw[:len(raw) - 5])

    def test_unsorted_rejected(self) -> None:
        with pytest.raises(ValueError):
            encode_blocked([(5, ()), (3, ())], 1)


def _reference_append_blocked(raw: bytes, entries: list) -> bytes:
    """The append as it was before it spliced: decode the tail block
    into postings, extend, encode again.  Kept as the reference."""
    header = decode_blocked_header(raw)
    if not header.blocks:
        return encode_blocked(entries, header.block_size)
    tail_info = header.blocks[-1]
    if entries[0][0] <= tail_info.max_head:
        raise ValueError("append_blocked requires heads past the tail")
    tail = decode_packed_block(raw, tail_info)
    tail.extend(entries)
    kept = header.blocks[:-1]
    chunks = [tail[start:start + header.block_size]
              for start in range(0, len(tail), header.block_size)]
    payloads = [encode_packed_block(chunk) for chunk in chunks]
    out = bytearray([PACKED_FORMAT_BYTE])
    out += encode_varint(header.total + len(entries))
    out += encode_varint(header.block_size)
    out += encode_varint(len(kept) + len(chunks))
    previous_max = 0
    for info in kept:
        out += encode_varint(info.min_head - previous_max)
        out += encode_varint(info.max_head - info.min_head)
        out += encode_varint(info.count)
        out += encode_varint(info.length)
        previous_max = info.max_head
    for chunk, payload in zip(chunks, payloads):
        min_head = chunk[0][0]
        max_head = chunk[-1][0]
        out += encode_varint(min_head - previous_max)
        out += encode_varint(max_head - min_head)
        out += encode_varint(len(chunk))
        out += encode_varint(len(payload))
        previous_max = max_head
    if kept:
        out += raw[kept[0].offset:tail_info.offset]
    for payload in payloads:
        out += payload
    return bytes(out)


#: Gaps on both sides of the 1 -> 2 -> 4 -> 8-byte delta widths.
_GAP_CLASSES = ((1, 3), (200, 255), (256, 300), (65_000, 65_535),
                (65_536, 70_000), (2 ** 32 - 2, 2 ** 32 + 2),
                (2 ** 33, 2 ** 33 + 5))


def _postings_after(rng: random.Random, last: int, size: int,
                    gap_class: int, child_class: int, fanout: int) -> list:
    """``size`` postings past head ``last``: head gaps and child deltas
    drawn up to the given width class (so a list of class 0 followed by
    one of class 3 forces a width to grow), childless postings mixed in,
    ``fanout`` > 255 forcing the count width."""
    out = []
    head = last
    for _ in range(size):
        head += rng.randint(*_GAP_CLASSES[rng.randint(0, gap_class)])
        child, children = 0, []
        for _ in range(rng.choice((0, 0, 1, 3, fanout))):
            child += rng.randint(*_GAP_CLASSES[rng.randint(0, child_class)])
            children.append(child)
        out.append((head, tuple(children)))
    return out


_WIDTH_CLASS = st.integers(0, len(_GAP_CLASSES) - 1)


@st.composite
def _append_cases(draw):
    """(block size, base, extension) covering: an empty base,
    an extension that fits the tail / fills it exactly / spills over
    several blocks, and every width kept or grown."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    block_size = draw(st.sampled_from((1, 2, 8, 128)))
    base_len = draw(st.integers(0, 2 * block_size + 3))
    room = -base_len % block_size
    ext_len = draw(st.one_of(
        st.integers(1, max(1, room)), st.just(max(1, room)),
        st.integers(room + 1, room + 3 * block_size)))
    gaps, children = draw(_WIDTH_CLASS), draw(_WIDTH_CLASS)
    fanout = draw(st.sampled_from((2, 300)))
    base = _postings_after(rng, draw(st.integers(-1, 1000)), base_len,
                           gaps, children, fanout)
    if draw(st.booleans()):     # an extension that may outgrow the widths
        gaps, children = draw(_WIDTH_CLASS), draw(_WIDTH_CLASS)
        fanout = draw(st.sampled_from((2, 300)))
    extension = _postings_after(rng, base[-1][0] if base else 0, ext_len,
                                gaps, children, fanout)
    return block_size, base, extension


class TestAppendBlocked:
    @given(_append_cases())
    @settings(max_examples=400, deadline=None)
    def test_append_matches_full_reencode(self, case) -> None:
        block_size, base, extension = case
        raw = encode_blocked(base, block_size)
        appended = append_blocked(raw, extension)
        assert appended == encode_blocked(base + extension, block_size)
        assert appended == _reference_append_blocked(raw, extension)
        # What the append reports changed rebuilds the new directory.
        header = decode_blocked_header(raw)
        again, (kept, shift, changed) = append_blocked_delta(raw, extension)
        assert again == appended
        new = decode_blocked_header(appended).blocks
        assert new[kept:] == changed
        assert new[:kept] == tuple(info._replace(offset=info.offset + shift)
                                   for info in header.blocks[:kept])

    @given(_append_cases())
    @settings(max_examples=60, deadline=None)
    def test_truncated_values_are_refused(self, case) -> None:
        block_size, base, extension = case
        raw = encode_blocked(base, block_size)
        if not base:
            return
        header = decode_blocked_header(raw)
        cuts = {0, 1, len(raw) - 1, header.blocks[-1].offset,
                header.blocks[-1].offset + 2, header.blocks[0].offset - 1}
        for cut in cuts:
            with pytest.raises(CorruptionError):
                append_blocked(raw[:cut], extension)

    #: Tampered bytes per param, by position past the width bytes: the
    #: tail block holds head deltas [0, 7, 2] from ``min_head`` 3 (heads
    #: 3, 10, 12), then child counts [2, 0, 1].
    TAMPERED = {
        "heads": {1: 8},                    # heads end past max_head
        "counts": {3: 3},                   # one child more than held
        "repeated-head": {1: 0, 2: 9},      # heads 3, 3, 12
        "off-anchor": {0: 2, 1: 5},         # heads 5, 10, 12
    }

    @pytest.mark.parametrize("array", sorted(TAMPERED))
    def test_inconsistent_tail_payload_is_refused(self, array) -> None:
        """The spliced block is checked as a decode checks it: child
        counts against the children held, head deltas against the
        directory's heads -- the first delta 0, every later one
        positive, the last head at ``max_head``."""
        base = [(3, (4, 9)), (10, ()), (12, (13,))]
        raw = bytearray(encode_blocked(base, 8))
        tail = decode_blocked_header(bytes(raw)).blocks[-1]
        assert raw[tail.offset:tail.offset + 3] == b"\x01\x01\x01"
        heads_at = tail.offset + 3
        assert list(raw[heads_at:heads_at + 6]) == [0, 7, 2, 2, 0, 1]
        for at, byte in self.TAMPERED[array].items():
            raw[heads_at + at] = byte
        with pytest.raises(CorruptionError):
            append_blocked(bytes(raw), [(20, ())])
        with pytest.raises(CorruptionError):
            decode_blocked(bytes(raw))      # the same refusal as a read

    def test_append_nothing_is_identity(self) -> None:
        raw = encode_blocked([(1, ()), (9, (2,))], 4)
        assert append_blocked(raw, []) is raw

    def test_append_rejects_overlapping_heads(self) -> None:
        raw = encode_blocked([(1, ()), (9, ())], 4)
        with pytest.raises(ValueError):
            append_blocked(raw, [(9, ())])
        with pytest.raises(ValueError):
            append_blocked(raw, [(12, ()), (11, (13,))])


class TestAppendRows:
    """The ALL/ZERO blocks (row format) are extended the same way."""

    @given(st.integers(0, 2 ** 32), st.integers(0, 40), st.integers(1, 40),
           _WIDTH_CLASS, _WIDTH_CLASS)
    @settings(max_examples=200, deadline=None)
    def test_append_is_the_full_reencode(self, seed, base_len, ext_len,
                                         gap_class, child_class) -> None:
        rng = random.Random(seed)
        base = _postings_after(rng, -1, base_len, gap_class, child_class, 2)
        last = base[-1][0] if base else 0
        extension = _postings_after(rng, last, ext_len, gap_class,
                                    child_class, 2)
        assert append_postings(PostingList(base).encode(), last,
                               extension) == \
            PostingList(base + extension).encode()

    def test_unsorted_extension_is_refused(self) -> None:
        raw = PostingList([(5, ())]).encode()
        with pytest.raises(ValueError):
            append_postings(raw, 5, [(4, ())])
        with pytest.raises(CorruptionError):
            append_postings(b"", 5, [(9, ())])

    def test_a_repeated_head_is_refused(self) -> None:
        """No node id is listed twice: equal heads are as unsorted as
        descending ones, in a fresh list and across an append."""
        with pytest.raises(ValueError):
            encode_postings([(0, ()), (0, (1,))])
        with pytest.raises(ValueError):
            encode_postings([(2, ()), (7, ()), (7, ())])
        raw = encode_postings([(0, ()), (5, ())])   # a first head of 0 is fine
        assert decode_postings(raw) == [(0, ()), (5, ())]
        with pytest.raises(ValueError):
            append_postings(raw, 5, [(5, ())])
        with pytest.raises(ValueError):
            append_postings(raw, 5, [(6, ()), (6, ())])
        assert append_postings(encode_postings([]), 0, [(0, ())]) == \
            encode_postings([(0, ())])

    @staticmethod
    def _write_blocks(store, prefix: bytes, entries: list) -> int:
        """Reference: the list written whole as LIST_BLOCK-posting
        blocks (the retired build routine); returns the block count."""
        n_blocks = 0
        for start in range(0, len(entries), LIST_BLOCK):
            store.put(prefix + encode_varint(n_blocks),
                      PostingList(entries[start:start + LIST_BLOCK]).encode())
            n_blocks += 1
        return n_blocks

    @pytest.mark.parametrize("known_last", [True, False])
    @pytest.mark.parametrize("n_old, n_new", [
        (0, 3), (10, 5), (LIST_BLOCK - 4, 4), (LIST_BLOCK - 4, 9),
        (LIST_BLOCK, 2), (LIST_BLOCK + 7, 2 * LIST_BLOCK)])
    def test_block_list_append_equals_a_fresh_write(
            self, n_old, n_new, known_last) -> None:
        entries = [(3 * i, (3 * i + 1,) if i % 4 else ())
                   for i in range(n_old + n_new)]
        old, new = entries[:n_old], entries[n_old:]
        store, fresh = MemoryKVStore(), MemoryKVStore()
        n_blocks = self._write_blocks(store, b"L:", old)
        last = old[-1][0] if old and known_last else None
        puts: list[tuple[bytes, bytes]] = []
        assert _append_blocks(store, puts, b"L:", n_blocks, last, new) == \
            self._write_blocks(fresh, b"L:", entries)
        store.put_many(puts)
        assert sorted(store.items()) == sorted(fresh.items())


class TestLazyPostingList:
    def test_reads_match_eager_decode(self) -> None:
        rng = random.Random(12)
        entries = _random_postings(rng, 200)
        lazy = LazyPostingList(encode_blocked(entries, 16))
        assert len(lazy) == 200                 # O(1), no decode
        assert list(lazy) == entries
        assert lazy.entries == tuple(entries)
        assert lazy.heads() == {p for p, _ in entries}
        assert lazy == PostingList(entries)
        assert PostingList(entries) == lazy

    def test_seek_decodes_at_most_one_block(self) -> None:
        rng = random.Random(13)
        entries = _random_postings(rng, 160, head_space=2_000)
        stats = QueryStats()
        lazy = LazyPostingList(encode_blocked(entries, 16), stats=stats)
        present = dict(entries)
        for p, children in entries[::7]:
            before = stats.blocks_read
            assert lazy.seek(p) == (p, children)
            assert stats.blocks_read - before <= 1
        for head in range(0, 2_000, 97):
            if head not in present:
                assert lazy.seek(head) is None

    def test_blocks_route_through_shared_cache(self) -> None:
        rng = random.Random(14)
        entries = _random_postings(rng, 64)
        raw = encode_blocked(entries, 8)
        cache = BlockCache(budget=64)
        stats = QueryStats()

        first = LazyPostingList(raw, cache=cache, cache_key="a", stats=stats)
        assert first.entries == tuple(entries)
        reads = stats.blocks_read
        assert reads == 8 and len(cache) == 8

        second = LazyPostingList(raw, cache=cache, cache_key="a", stats=stats)
        assert second.entries == tuple(entries)
        assert stats.blocks_read == reads       # all hits, no new decodes

    def test_cache_invalidate_is_per_list(self) -> None:
        cache = BlockCache(budget=16)
        for key in ("a", "b"):
            for block_no in range(3):
                cache.admit((key, block_no), ((1, ()),))
        assert len(cache) == 6
        assert cache.get(("a", 0)) is not None
        assert cache.get(("b", 0)) is not None

    def test_cache_evicts_lru_within_budget(self) -> None:
        cache = BlockCache(budget=2)
        cache.admit(("a", 0), ((1, ()),))
        cache.admit(("a", 1), ((2, ()),))
        cache.get(("a", 0))                     # refresh 0; 1 becomes LRU
        cache.admit(("a", 2), ((3, ()),))
        assert cache.get(("a", 1)) is None
        assert cache.get(("a", 0)) is not None
        assert cache.stats.evictions == 1


class TestGallopingIntersection:
    def test_equivalence_500_random_combinations(self) -> None:
        # The kernel must agree with the reference on every mix of plain
        # and blocked operands, regardless of skew or overlap.
        rng = random.Random(15)
        for trial in range(500):
            n_lists = rng.randrange(2, 5)
            head_space = rng.choice([40, 200, 1_000])
            max_size = min(60, head_space)
            lists = _lists_over_nodes(
                rng, head_space,
                [rng.randrange(0, max_size) for _ in range(n_lists)])
            expected = _reference_intersection(lists)

            block_size = rng.choice([1, 4, 16])
            plain = [PostingList(entries) for entries in lists]
            blocked = [LazyPostingList(encode_blocked(entries, block_size))
                       for entries in lists]
            mixed = [blocked[i] if i % 2 else plain[i]
                     for i in range(n_lists)]
            for operands in (plain, blocked, mixed):
                assert intersect(operands).entries == expected, trial

    def test_empty_operand_short_circuits_without_decoding(self) -> None:
        rng = random.Random(16)
        stats = QueryStats()
        big = LazyPostingList(
            encode_blocked(_random_postings(rng, 256), 16), stats=stats)
        result = intersect([big, PostingList()])
        assert result == PostingList()
        assert stats.blocks_read == 0           # satellite (b): no decode

    def test_skip_counters_move_on_skewed_probe(self) -> None:
        stats = QueryStats()
        hot = [(p, ()) for p in range(1_000)]
        rare = PostingList([(0, ()), (999, ())])
        lazy = LazyPostingList(encode_blocked(hot, 16), stats=stats)
        got = intersect([lazy, rare])
        assert got.entries == ((0, ()), (999, ()))
        assert stats.blocks_read == 2           # first and last block only
        assert stats.blocks_skipped > 0
        assert stats.bytes_decoded > 0


def _shifted(lists: list, base: int) -> list:
    """``lists`` with every node id moved up by ``base``."""
    return [[(p + base, tuple(c + base for c in cs)) for p, cs in entries]
            for entries in lists]


class TestMembershipKernel:
    """Every operand of an intersection is one membership test of the
    surviving probes: a gallop through its skip directory while the
    probes are fewer than its blocks, its head column is unbuilt and
    its gallops have touched fewer blocks than it has; one
    ``searchsorted`` into its head column otherwise.  The sweep
    records which regime each test hit (a spy on the kernel) and
    asserts that it met all of them: probe counts on both sides of the
    ``4 * probes`` line the retired bulk path drew, probes equal to the
    operand, one-block operands, the gallop, fewer probes than blocks
    against a built column, a column bought after gallops, ids past
    2**31, row-shaped and columnar driving lists, and
    ``intersect_within`` driven by a frontier."""

    SIZES = (0, 1, 3, 20, COLUMNAR_MIN - 1, COLUMNAR_MIN, 150, 600)

    def test_sweep_against_the_reference(self, monkeypatch) -> None:
        seen: set[str] = set()
        kernel = postings._array_membership

        def spy(other, probes):
            n_blocks = getattr(other, "n_blocks", None)
            if n_blocks is not None and n_blocks < 2:
                seen.add("one-block")
            if n_blocks is not None and len(probes) < n_blocks:
                if other._heads_arr is not None:
                    seen.add("fewer probes than blocks, column built")
                elif other._galloped >= n_blocks:
                    seen.add("column bought after gallops")
                else:
                    seen.add("gallop")
            seen.add("probes*4 >= operand" if len(probes) * 4 >= len(other)
                     else "probes*4 < operand")
            if sorted(probes.tolist()) == sorted(other.heads()):
                seen.add("probes are the operand")
            if len(probes) and int(probes[-1]) >= 2 ** 31:
                seen.add("past 2**31")
            return kernel(other, probes)

        monkeypatch.setattr(postings, "_array_membership", spy)
        rng = random.Random(35)
        for trial in range(200):
            sizes = [rng.choice(self.SIZES)
                     for _ in range(rng.randrange(2, 4))]
            head_space = max(max(sizes), 3) * rng.choice([1, 2, 8])
            lists = _shifted(_lists_over_nodes(rng, head_space, sizes),
                             rng.choice([0, 2 ** 31 - head_space // 2,
                                         2 ** 40]))
            if rng.random() < 0.2:
                lists.append(list(lists[0]))    # probes equal an operand
            expected = _reference_intersection(lists)
            driver = min(len(entries) for entries in lists)
            if driver:
                seen.add("columnar driver" if driver >= COLUMNAR_MIN
                         else "row driver")
            block_size = rng.choice([1, 4, 16, 128])
            plain = [PostingList(entries) for entries in lists]
            columnar = [PostingList.from_columns(*PostingList(e).columns())
                        for e in lists]
            blocked = [LazyPostingList(encode_blocked(e, block_size))
                       for e in lists]
            mixed = [(blocked, plain, columnar)[i % 3][i]
                     for i in range(len(lists))]
            built = [LazyPostingList(encode_blocked(e, block_size))
                     for e in lists]
            for plist in built:
                plist.heads_array()
            # Galloped once through every block: the next probe buys.
            bought = [LazyPostingList(encode_blocked(e, block_size))
                      for e in lists]
            for plist in bought:
                for info in plist.header.blocks:
                    postings._gallop_mask(plist, id_array({info.min_head}))
            for operands in (plain, columnar, blocked, mixed, built,
                             bought):
                assert intersect(operands).entries == expected, trial

            # The frontier drives: ids drawn from the first list's heads
            # and beyond them, against every list shortest first.
            heads = [p for p, _ in lists[0]]
            frontier = set(rng.sample(heads, rng.randrange(0, len(heads) + 1)))
            frontier |= {rng.randrange(2 ** 41) for _ in range(3)}
            want = tuple(entry for entry in _reference_intersection(lists)
                         if entry[0] in frontier)
            for operands in (plain, blocked, mixed):
                ranked = sorted(operands, key=len)
                for ids in (frontier, id_array(frontier)):
                    got = intersect_within(ranked, ids)
                    assert got.entries == want, trial
                    seen.add("frontier driver")
        assert seen == {
            "one-block", "gallop", "probes*4 >= operand",
            "probes*4 < operand", "probes are the operand", "past 2**31",
            "columnar driver", "row driver", "frontier driver",
            "fewer probes than blocks, column built",
            "column bought after gallops"}

    def test_a_built_head_column_answers_without_a_decode(
            self, monkeypatch) -> None:
        """Fewer probes than blocks gallop only while the operand's head
        column is unbuilt; a built one answers them with no block."""
        lazy = LazyPostingList(encode_blocked(
            [(p, ()) for p in range(0, 2_000, 2)], 16))
        probes = id_array({4, 5, 1_998})
        assert len(probes) < lazy.n_blocks
        decoded = []
        block_data = LazyPostingList.block_data

        def spy(plist, index):
            decoded.append(index)
            return block_data(plist, index)

        monkeypatch.setattr(LazyPostingList, "block_data", spy)
        mask = postings._array_membership(lazy, probes)
        assert mask.tolist() == [True, False, True] and decoded
        lazy.heads_array()
        decoded.clear()
        assert postings._array_membership(lazy, probes).tolist() \
            == mask.tolist()
        assert decoded == []

    def test_gallops_buy_the_head_column_at_the_block_count(
            self, monkeypatch) -> None:
        """Rent or buy: a cold list is galloped, one probed block per
        one-probe intersection, until its gallops have touched as many
        blocks as it has; the next probe builds its head column (from
        the blocks the gallops left decoded), and no probe after that
        decodes a block."""
        stats = QueryStats()
        entries = [(p, (p + 1,)) for p in range(0, 2_000, 2)]
        lazy = LazyPostingList(encode_blocked(entries, 16), stats=stats)
        decoded = []
        block_data = LazyPostingList.block_data

        def spy(plist, index):
            decoded.append(index)
            return block_data(plist, index)

        monkeypatch.setattr(LazyPostingList, "block_data", spy)
        rng = random.Random(41)
        for number, info in enumerate(lazy.header.blocks):
            head = rng.randrange(info.min_head, info.max_head + 1)
            got = intersect([lazy, PostingList([(head, ())])])
            assert got.entries == tuple((p, ()) for p, _ in entries
                                        if p == head)
            assert decoded == [number]          # the one block it falls in
            assert lazy._heads_arr is None and stats.columns_built == 0
            decoded.clear()
        assert lazy._galloped == lazy.n_blocks
        assert stats.blocks_read == lazy.n_blocks
        intersect([lazy, PostingList([(6, ())])])
        assert lazy._heads_arr is not None and stats.columns_built == 1
        assert stats.blocks_read == lazy.n_blocks     # nothing decoded twice
        decoded.clear()
        for _ in range(50):
            probes = sorted(rng.sample(range(2_100), rng.randrange(1, 4)))
            got = intersect([lazy, PostingList([(p, ()) for p in probes])])
            assert got.entries == tuple((p, ()) for p in probes
                                        if p % 2 == 0 and p < 2_000)
        assert decoded == [] and stats.columns_built == 1

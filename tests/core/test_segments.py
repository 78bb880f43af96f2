"""Long posting lists in small units: block ranges and block skipping.

These tests were written for the range-tagged ``0x01`` lists; what they
guard -- a long list is stored in units that carry their head range, is
the same list whatever the unit size, is skipped by range during
intersection and grows at its tail -- is the packed block directory now,
so they run on small blocks.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.workloads import generate_dataset
from repro.core.engine import NestedSetIndex
from repro.core.invfile import InvertedFile
from repro.core.model import NestedSet
from repro.core.postings import intersect
from repro.core.updates import IndexWriter
from repro.data.queries import make_benchmark_queries
from repro.storage.codec import (
    CorruptionError,
    decode_blocked,
    decode_blocked_header,
    encode_blocked,
    encode_postings,
)

N = NestedSet


def postings_of(n: int, stride: int = 3) -> list:
    return [(i * stride, (i * stride + 1,)) for i in range(n)]


class TestCodec:
    def test_segment_ranges(self) -> None:
        raw = encode_blocked(postings_of(20), 10)  # heads 0, 3, ..., 57
        first, second = decode_blocked_header(raw).blocks
        assert (first.min_head, first.max_head) == (0, 27)
        assert (second.min_head, second.max_head) == (30, 57)
        assert decode_blocked_header(raw).total == 20

    def test_bad_inputs(self) -> None:
        with pytest.raises(ValueError):
            encode_blocked(postings_of(5), 0)
        with pytest.raises(CorruptionError):
            decode_blocked_header(b"")
        with pytest.raises(CorruptionError):
            decode_blocked_header(bytes([99]))
        with pytest.raises(CorruptionError):
            decode_blocked_header(encode_postings(postings_of(2)))

    @given(st.lists(st.integers(0, 10 ** 6), min_size=1, unique=True),
           st.integers(1, 50))
    @settings(max_examples=100)
    def test_roundtrip_property(self, heads: list[int],
                                block_size: int) -> None:
        entries = [(h, ()) for h in sorted(heads)]
        raw = encode_blocked(entries, block_size)
        header = decode_blocked_header(raw)
        assert header.total == len(entries)
        assert len(header.blocks) == -(-len(entries) // block_size)
        assert decode_blocked(raw) == entries


class TestSegmentedIndex:
    @pytest.fixture(scope="class")
    def records(self):
        return list(generate_dataset("zipf-wide", 800, seed=2, theta=0.9))

    @pytest.fixture(scope="class")
    def plain_index(self, records) -> InvertedFile:
        """Every list in one block."""
        return InvertedFile.build(records, block_size=1 << 20)

    @pytest.fixture(scope="class")
    def seg_index(self, records) -> InvertedFile:
        return InvertedFile.build(records, block_size=8)

    def test_some_lists_are_segmented(self, plain_index, seg_index) -> None:
        hottest = seg_index.frequencies()[0][0]
        key = b"A:" + f"s:{hottest}".encode()
        assert len(decode_blocked_header(
            seg_index.store.get(key)).blocks) > 8
        assert len(decode_blocked_header(
            plain_index.store.get(key)).blocks) == 1

    def test_postings_identical(self, records, plain_index,
                                seg_index) -> None:
        for atom, _df in seg_index.frequencies()[:50]:
            assert seg_index.postings(atom) == plain_index.postings(atom)

    def test_list_length_without_decode(self, records, plain_index,
                                        seg_index) -> None:
        """On a pinned view of the segmented index: a cold length costs
        a fetch and no decode, a warm one neither."""
        frequencies = seg_index.frequencies()[:20]
        atoms = [atom for atom, _df in frequencies]
        with NestedSetIndex.build(records, block_size=8) as index, \
                index.snapshot() as snap:
            view = snap.views[0].inverted_file
            for atom, df in frequencies:
                assert view.list_length(atom) == df
                assert plain_index.list_length(atom) == df
            assert view.list_length("__absent__") == 0
            assert view.stats.blocks_read == 0
            assert view.stats.list_fetches == len(atoms) + 1
            # Warm: the directory entries (and the absent marker) answer.
            for atom in atoms + ["__absent__"]:
                view.list_length(atom)
            assert view.stats.list_fetches == len(atoms) + 1
            assert view.stats.directory_hits == len(atoms) + 1
            assert view.stats.blocks_read == 0

    def test_intersect_atoms_equals_plain_intersection(
            self, seg_index) -> None:
        frequencies = seg_index.frequencies()
        rng = random.Random(9)
        atoms = [atom for atom, _df in frequencies[:200]]
        for _ in range(60):
            chosen = rng.sample(atoms, rng.randint(2, 4))
            expect = intersect([seg_index.postings(a) for a in chosen])
            assert seg_index.intersect_atoms(chosen) == expect

    def test_segment_skipping_happens(self, seg_index) -> None:
        frequencies = seg_index.frequencies()
        hottest, hot_df = frequencies[0]
        rare = [atom for atom, df in frequencies if 2 <= df <= 4][:40]
        seg_index.reset_stats()
        seg_index.cache.clear()
        seg_index.block_cache.clear()
        for atom in rare:
            seg_index.intersect_atoms([hottest, atom])
        assert seg_index.stats.blocks_skipped > 0
        assert seg_index.stats.blocks_read < len(rare) * (hot_df // 8)

    def test_query_results_identical(self, records, plain_index,
                                     seg_index) -> None:
        from repro.core.topdown import topdown_match_nodes
        from repro.core.bottomup import bottomup_match_nodes
        workload = make_benchmark_queries(records, 30, seed=3)
        for bench in workload:
            expect = plain_index.heads_to_keys(
                topdown_match_nodes(bench.query, plain_index))
            assert seg_index.heads_to_keys(
                topdown_match_nodes(bench.query, seg_index)) == expect
            assert seg_index.heads_to_keys(
                bottomup_match_nodes(bench.query, seg_index)) == expect

    def test_disk_roundtrip_with_segments(self, tmp_path, records) -> None:
        path = str(tmp_path / "seg.idx")
        built = InvertedFile.build(records[:200], storage="diskhash",
                                   path=path, block_size=32)
        hottest = built.frequencies()[0][0]
        expect = built.postings(hottest)
        built.close()
        reopened = InvertedFile.open("diskhash", path)
        assert reopened.block_size == 32
        assert reopened.postings(hottest) == expect
        reopened.close()


class TestSegmentedUpdates:
    def test_insert_appends_to_segmented_tail(self) -> None:
        records = [(f"r{i}", N(["hot"])) for i in range(30)]
        index = InvertedFile.build(records, block_size=8)
        writer = IndexWriter(index)
        writer.insert("fresh", N(["hot", "rare"]))
        full = index.postings("hot")
        assert len(full) == 31
        heads = [p for p, _c in full]
        assert heads == sorted(heads)
        header = decode_blocked_header(index.store.get(b"A:s:hot"))
        assert header.total == 31
        assert [info.count for info in header.blocks] == [8, 8, 8, 7]

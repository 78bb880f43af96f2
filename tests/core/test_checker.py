"""Tests for the index integrity checker."""

from __future__ import annotations

import pytest

from repro.bench.workloads import generate_dataset
from repro.core.checker import assert_healthy, check_index
from repro.core.invfile import InvertedFile
from repro.core.model import NestedSet
from repro.core.updates import IndexWriter
from repro.storage.codec import encode_varint

N = NestedSet


class TestHealthyIndexes:
    def test_paper_example(self, paper_records) -> None:
        assert check_index(InvertedFile.build(paper_records)) == []

    @pytest.mark.parametrize("dataset", ["zipf-wide", "twitter", "dblp"])
    def test_generated_collections(self, dataset: str) -> None:
        records = list(generate_dataset(dataset, 60, seed=4))
        assert_healthy(InvertedFile.build(records))

    def test_segmented_index(self) -> None:
        records = list(generate_dataset("zipf-wide", 200, seed=4,
                                        theta=0.9))
        assert_healthy(InvertedFile.build(records, block_size=32))

    def test_after_updates(self, small_corpus) -> None:
        index = InvertedFile.build(small_corpus)
        writer = IndexWriter(index)
        writer.insert("u1", N(["a1"], [N(["a2", "zz"])]))
        writer.insert("u2", N(["a3"]))
        writer.delete(small_corpus[0][0])
        writer.flush()
        assert_healthy(index)

    def test_disk_index(self, tmp_path, small_corpus) -> None:
        path = str(tmp_path / "chk.idx")
        InvertedFile.build(small_corpus, storage="diskhash",
                           path=path).close()
        reopened = InvertedFile.open("diskhash", path)
        assert_healthy(reopened)
        reopened.close()

    def test_max_atoms_bound(self, small_corpus) -> None:
        index = InvertedFile.build(small_corpus)
        assert check_index(index, max_atoms=3) == []


class TestCorruptionDetection:
    def test_truncated_posting_list(self, paper_records) -> None:
        index = InvertedFile.build(paper_records)
        # Drop one posting from UK's list.
        from repro.storage.codec import decode_blocked, encode_blocked
        raw = index.store.get(b"A:s:UK")
        entries = decode_blocked(raw)
        index.store.put(b"A:s:UK", encode_blocked(entries[:-1]))
        index.cache.clear()
        problems = check_index(index)
        assert any("UK" in problem and "misses" in problem
                   for problem in problems)

    def test_corrupted_metadata(self, paper_records) -> None:
        index = InvertedFile.build(paper_records)
        block = bytearray(index.store.get(b"N:" + encode_varint(0)))
        block[0] ^= 0xFF  # flip the first node's record ordinal
        index.store.put(b"N:" + encode_varint(0), bytes(block))
        problems = check_index(index)
        assert any("metadata" in problem for problem in problems)

    def test_wrong_node_count(self, paper_records) -> None:
        index = InvertedFile.build(paper_records)
        index.n_nodes += 5
        problems = check_index(index)
        assert any("nodes" in problem for problem in problems)

    def test_bogus_deleted_ordinal(self, paper_records) -> None:
        index = InvertedFile.build(paper_records)
        index.deleted.add(999)
        problems = check_index(index)
        assert any("unknown ordinal" in problem for problem in problems)

    def test_broken_keymap(self, paper_records) -> None:
        index = InvertedFile.build(paper_records)
        index.store.put(b"K:tim", encode_varint(0))  # points at sue
        problems = check_index(index)
        assert any("key map" in problem for problem in problems)

    def test_assert_healthy_raises(self, paper_records) -> None:
        index = InvertedFile.build(paper_records)
        index.n_nodes += 1
        with pytest.raises(AssertionError) as err:
            assert_healthy(index)
        assert "integrity" in str(err.value)

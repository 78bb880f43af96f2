"""Tests for collection statistics."""

from __future__ import annotations

import pytest

from repro.core.invfile import InvertedFile
from repro.core.stats import CollectionStats


@pytest.fixture
def stats(paper_records) -> CollectionStats:
    return CollectionStats.from_inverted_file(
        InvertedFile.build(paper_records))


class TestPerAtom:
    def test_document_frequency(self, stats: CollectionStats) -> None:
        assert stats.document_frequency("UK") == 4
        assert stats.document_frequency("London") == 1
        assert stats.document_frequency("Narnia") == 0

    def test_empty_collection(self) -> None:
        empty = CollectionStats([], 0, 0)
        assert empty.document_frequency("x") == 0
        assert empty.atom_stats().distinct_atoms == 0


class TestSummaries:
    def test_atom_stats(self, stats: CollectionStats) -> None:
        summary = stats.atom_stats()
        assert summary.distinct_atoms == 10
        assert summary.max_df == 4          # UK
        assert summary.total_postings > 0
        assert 0 < summary.skew_ratio <= 1

    def test_hottest(self, stats: CollectionStats) -> None:
        top = stats.hottest(3)
        # A and UK tie at df 4; the tie breaks on the atom token.
        assert top[0] == ("A", 4)
        assert top[1] == ("UK", 4)
        assert len(top) == 3
        dfs = [df for _atom, df in top]
        assert dfs == sorted(dfs, reverse=True)

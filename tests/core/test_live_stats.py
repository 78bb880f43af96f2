"""Tombstone-adjusted statistics: deletes must not skew the counts.

The document-frequency table is only rewritten on flush/compact, and
tombstoned records keep their postings until compaction -- so without
adjustment, a delete-heavy index would keep ranking atoms by frequencies
that no longer reflect the live collection.  The inverted file maintains
per-atom dead counts (persisted at ``M:dead``) and exposes live
frequencies that the intersection ordering and the collection
statistics consume.
"""

from __future__ import annotations

import pytest

from repro.core.engine import NestedSetIndex


def _skewed_records() -> list[tuple[str, str]]:
    """'common' in ten records, 'rare' in three."""
    records = [(f"c{i}", "{common, filler%d}".replace("%d", str(i)))
               for i in range(10)]
    records += [(f"s{i}", "{rare, filler%d}".replace("%d", str(i)))
                for i in range(3)]
    return records


class TestDeadCountsAreReplaced:
    def test_a_reference_taken_before_a_delete_is_unchanged(self) -> None:
        """A delete replaces the writer's dead-count table instead of
        mutating it, so a statistics reader iterating the table it took
        (``live_document_frequencies``) never sees it change size."""
        index = NestedSetIndex.build(_skewed_records())
        ifile = index.inverted_file
        assert index.delete("c0")
        held = ifile.dead_counts
        before = dict(held)
        assert index.delete("s0")       # adds an atom: "rare"
        assert held == before
        assert ifile.dead_counts["rare"] == 1
        assert ifile.live_document_frequencies()["rare"] == 2


class TestLiveCounts:
    def test_live_list_length_tracks_deletes(self) -> None:
        index = NestedSetIndex.build(_skewed_records())
        ifile = index.inverted_file
        assert ifile.live_list_length("common") == 10
        for i in range(9):
            assert index.delete(f"c{i}")
        assert ifile.list_length("common") == 10   # postings untouched
        assert ifile.live_list_length("common") == 1
        assert ifile.live_list_length("rare") == 3

    def test_live_frequencies_drop_dead_atoms(self) -> None:
        index = NestedSetIndex.build(_skewed_records())
        for i in range(10):
            index.delete(f"c{i}")
        live = dict(index.inverted_file.live_frequencies())
        assert "common" not in live
        assert live["rare"] == 3

    def test_collection_stats_use_live_counts(self) -> None:
        index = NestedSetIndex.build(_skewed_records())
        for i in range(9):
            index.delete(f"c{i}")
        stats = index.collection_stats()
        assert stats.document_frequency("common") == 1
        assert stats.document_frequency("rare") == 3
        assert stats.n_records == 4

    def test_collection_stats_rank_the_live_hottest(self) -> None:
        """A delete-heavy index must rank atoms by *live* frequency,
        not by stale document frequencies."""
        index = NestedSetIndex.build(_skewed_records())
        assert index.collection_stats().hottest(2) == \
            [("common", 10), ("rare", 3)]
        for i in range(9):
            index.delete(f"c{i}")
        assert index.collection_stats().hottest(2) == \
            [("rare", 3), ("common", 1)]

    def test_intersection_ranks_by_live_length(self) -> None:
        index = NestedSetIndex.build(
            [(f"b{i}", "{both, common}") for i in range(10)] +
            [("solo", "{both}")])
        for i in range(10):
            index.delete(f"b{i}")
        # 'common' now has live length 0: intersecting it first yields
        # the empty candidate set immediately; correctness is unchanged.
        assert index.query("{both}") == ["solo"]
        assert index.query("{both, common}") == []

    @pytest.mark.parametrize("storage", ["diskhash"])
    def test_dead_counts_persist(self, storage, tmp_path) -> None:
        path = str(tmp_path / "idx")
        index = NestedSetIndex.build(_skewed_records(), storage=storage,
                                     path=path)
        for i in range(9):
            index.delete(f"c{i}")
        index.close()
        reopened = NestedSetIndex.open(storage, path)
        assert reopened.inverted_file.live_list_length("common") == 1
        stats = reopened.collection_stats()
        assert stats.document_frequency("common") == 1
        reopened.close()

    def test_compact_resets_dead_counts(self) -> None:
        index = NestedSetIndex.build(_skewed_records())
        for i in range(9):
            index.delete(f"c{i}")
        index.compact()
        ifile = index.inverted_file
        assert ifile.dead_counts == {}
        assert ifile.live_list_length("common") == 1
        assert ifile.list_length("common") == 1  # postings rebuilt

    def test_queries_unchanged_by_adjustment(self) -> None:
        # Live ordering is a planning concern only; answers are pinned.
        records = _skewed_records()
        index = NestedSetIndex.build(records)
        for i in range(5):
            index.delete(f"c{i}")
        survivors = [f"c{i}" for i in range(5, 10)]
        assert index.query("{common}") == survivors
        for algorithm in ("bottomup", "topdown", "naive"):
            assert index.query("{common}", algorithm=algorithm) == survivors

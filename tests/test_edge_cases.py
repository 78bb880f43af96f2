"""Cross-cutting edge cases that don't belong to a single module's suite."""

from __future__ import annotations


from repro.core.engine import NestedSetIndex
from repro.core.invfile import InvertedFile
from repro.core.checker import assert_healthy
from repro.core.matchspec import QuerySpec
from repro.core.model import NestedSet
from repro.core.postings import (
    PathList,
    PostingList,
    heads_with_descendant_in,
    nav_join_descendant,
)

N = NestedSet


class TestUnicodeAtoms:
    """Atoms flow through codecs, stores, and text syntax unmangled."""

    ATOMS = ["naïve", "スキーマ", "emoji☃atom", "tab\tatom", 'quo"te']

    def test_index_roundtrip(self) -> None:
        tree = N(self.ATOMS, [N(["ünter"])])
        index = NestedSetIndex.build([("u", tree)])
        for atom in self.ATOMS:
            assert index.query(N([atom])) == ["u"]
        stored = dict(index.records())["u"]
        assert stored == tree

    def test_disk_roundtrip(self, tmp_path) -> None:
        tree = N(self.ATOMS)
        path = str(tmp_path / "u.idx")
        NestedSetIndex.build([("u", tree)], storage="diskhash",
                             path=path).close()
        reopened = NestedSetIndex.open("diskhash", path)
        assert reopened.query(N([self.ATOMS[1]])) == ["u"]
        reopened.close()

    def test_text_syntax_roundtrip(self) -> None:
        tree = N(self.ATOMS)
        assert N.parse(tree.to_text()) == tree


class TestIdenticalRecords:
    def test_duplicate_values_under_distinct_keys(self) -> None:
        tree = N(["a"], [N(["b"])])
        index = NestedSetIndex.build([("one", tree), ("two", tree)])
        assert index.query(tree) == ["one", "two"]
        assert index.query(tree, join="equality") == ["one", "two"]
        assert_healthy(index.inverted_file)

    def test_single_atom_universe(self) -> None:
        records = [(f"r{i}", N(["x"])) for i in range(5)]
        index = NestedSetIndex.build(records)
        assert len(index.query(N(["x"]))) == 5
        assert index.collection_stats().atom_stats().distinct_atoms == 1


class TestSegmentBoundary:
    """Exactly ``block_size`` postings is one block; one over is two."""

    @staticmethod
    def _hot_blocks(n_records: int) -> list[int]:
        from repro.storage.codec import decode_blocked_header
        records = [(f"r{i}", N(["hot"])) for i in range(n_records)]
        index = InvertedFile.build(records, block_size=8)
        header = decode_blocked_header(index.store.get(b"A:s:hot"))
        return [info.count for info in header.blocks]

    def test_exactly_segment_size_stays_plain(self) -> None:
        assert self._hot_blocks(8) == [8]   # len == size: no split

    def test_one_over_becomes_segmented(self) -> None:
        assert self._hot_blocks(9) == [8, 1]


class TestPostingsStructures:
    def test_pathlist_basics(self) -> None:
        paths = PathList([(1, (2, 3)), (4, ())])
        assert paths.heads() == {1, 4}
        assert len(paths) == 2
        assert bool(paths)
        assert not PathList()
        assert "PathList" in repr(paths)

    def test_nav_join_descendant_empty(self) -> None:
        assert nav_join_descendant([], PostingList([(1, ())])) == []
        assert nav_join_descendant([(1, 1, 5)], PostingList()) == []

    def test_heads_with_descendant_in_no_requirements(self) -> None:
        cand = PostingList([(1, ())])
        assert heads_with_descendant_in(cand, [], lambda p: p) is cand

    def test_postinglist_equality_and_repr(self) -> None:
        left = PostingList([(1, (2,))])
        assert left == PostingList([(1, (2,))])
        assert left != PostingList([(1, ())])
        assert left.__eq__(42) is NotImplemented
        assert "PostingList" in repr(left)


class TestEngineCorners:
    def test_records_iteration_skips_deleted(self, small_corpus) -> None:
        index = NestedSetIndex.build(small_corpus)
        index.delete(small_corpus[0][0])
        keys = [key for key, _tree in index.records()]
        assert small_corpus[0][0] not in keys
        assert len(keys) == len(small_corpus) - 1

    def test_build_external_with_cache(self, small_corpus) -> None:
        index = NestedSetIndex.build_external(small_corpus,
                                              memory_budget=32,
                                              cache="frequency")
        from repro.core.cache import FrequencyCache
        assert isinstance(index.inverted_file.cache.inner, FrequencyCache)
        assert index.query(small_corpus[3][1])

    def test_match_nodes_default_spec(self, paper_records,
                                      paper_query) -> None:
        index = NestedSetIndex.build(paper_records)
        heads = index.match_nodes(paper_query)
        assert index.inverted_file.heads_to_keys(heads) == ["tim"]

    def test_query_spec_object_roundtrip(self, paper_records) -> None:
        index = NestedSetIndex.build(paper_records)
        spec = QuerySpec(semantics="homeo", mode="anywhere")
        heads = index.match_nodes("{A, motorbike}", spec=spec)
        assert index.inverted_file.heads_to_keys(
            heads, mode="anywhere") == ["sue", "tim"]


class TestWorkloadCacheKeys:
    def test_theta_distinguishes_cache_entries(self) -> None:
        from repro.bench.workloads import WorkloadCache
        cache = WorkloadCache()
        mild = cache.get("zipf-wide", 30, n_queries=5, theta=0.5)
        harsh = cache.get("zipf-wide", 30, n_queries=5, theta=0.9)
        assert mild is not harsh
        assert mild.records != harsh.records
        cache.clear()


class TestIntAtomsEverywhere:
    def test_int_atoms_index_and_io(self, tmp_path) -> None:
        from repro.data.io import load_collection_file, save_collection_file
        records = [("n1", N([1, 2, 2010], [N([-5])])),
                   ("n2", N([2010], [N([1])]))]
        index = NestedSetIndex.build(records)
        assert index.query(N([2010])) == ["n1", "n2"]
        assert index.query(N([], [N([-5])])) == ["n1"]
        path = str(tmp_path / "ints.nsets")
        save_collection_file(records, path)
        assert load_collection_file(path) == records

    def test_int_and_str_never_conflate(self) -> None:
        index = NestedSetIndex.build([("int", N([7])), ("str", N(["7"]))])
        assert index.query(N([7])) == ["int"]
        assert index.query(N(["7"])) == ["str"]

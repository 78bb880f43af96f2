"""Targeted tests for paths the module suites exercise only indirectly."""

from __future__ import annotations


from repro.core.engine import NestedSetIndex
from repro.core.model import NestedSet
from repro.core.observe import explain

N = NestedSet


class TestTraceRendering:
    def test_deep_query_renders_nested(self, small_corpus) -> None:
        from repro.core.invfile import InvertedFile
        index = InvertedFile.build(small_corpus)
        query = N(["a1"], [N(["a2"], [N(["a3"], [N(["a4"])])])])
        text = explain(query, index).render()
        # one line per query node, indentation growing with depth
        node_lines = [line for line in text.splitlines()
                      if "node " in line]
        assert len(node_lines) == 4
        indents = [len(line) - len(line.lstrip()) for line in node_lines]
        assert indents == sorted(indents)

    def test_label_truncation(self, small_corpus) -> None:
        from repro.core.invfile import InvertedFile
        index = InvertedFile.build(small_corpus)
        wide = N([f"a{i}" for i in range(12)])
        trace = explain(wide, index)
        assert len(trace.root.label) <= 40


class TestCliQueryOptions:
    def test_join_and_mode_flags(self, tmp_path, capsys) -> None:
        from repro.cli import main
        collection = tmp_path / "c.nsets"
        collection.write_text("r1\t{a, b, {c}}\nr2\t{a, {c, d}}\n")
        index_path = str(tmp_path / "c.idx")
        main(["index", str(collection), "-o", index_path])
        capsys.readouterr()
        assert main(["query", index_path, "{c, d}",
                     "--mode", "anywhere"]) == 0
        assert capsys.readouterr().out.strip() == "r2"
        assert main(["query", index_path, "{a, b, c, {c}}",
                     "--join", "superset"]) == 0
        assert capsys.readouterr().out.strip() == "r1"
        # overlap(1): r1 shares {a} at the root and {c}∩{c}; r2 shares
        # {a} and {c}∩{c,d} -- both qualify.
        assert main(["query", index_path, "{a, x, {c}}",
                     "--join", "overlap", "--epsilon", "1",
                     "--algorithm", "topdown"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["r1", "r2"]


class TestDatasetOptions:
    def test_domain_size_forwarded(self) -> None:
        from repro.bench.workloads import generate_dataset
        tiny = list(generate_dataset("uniform-wide", 40, domain_size=5))
        atoms: set = set()
        for _key, tree in tiny:
            atoms |= tree.all_atoms()
        assert atoms <= {f"v{i}" for i in range(5)}

    def test_workload_cache_domain_size_key(self) -> None:
        from repro.bench.workloads import WorkloadCache
        cache = WorkloadCache()
        small = cache.get("uniform-wide", 30, n_queries=5, domain_size=10)
        default = cache.get("uniform-wide", 30, n_queries=5)
        assert small is not default
        cache.clear()


class TestEngineExternalBuildErrors:
    def test_duplicate_keys_not_deduplicated(self, small_corpus) -> None:
        # Duplicate keys are a data bug: a build refuses them as an
        # insert does, and the integrity checker reports a collision
        # that reached a store some other way.
        import pytest
        from repro.core.checker import check_index
        from repro.core.invfile import record_blob
        from repro.core.updates import UpdateError
        records = small_corpus + [(small_corpus[0][0], N(["dup"]))]
        with pytest.raises(UpdateError):
            NestedSetIndex.build(records)
        ifile = NestedSetIndex.build(small_corpus).inverted_file
        _key, root_id, tree = ifile.record(1)
        ifile.store.put(b"R:\x01", record_blob(
            small_corpus[0][0], root_id, tree.to_text()))
        problems = check_index(ifile)
        assert any("duplicate live key" in problem for problem in problems)

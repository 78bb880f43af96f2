"""Tests for the external-memory (run-merge) index builder."""

from __future__ import annotations

import pytest

from repro.bench.workloads import generate_dataset
from repro.core.updates import build_external
from repro.core.checker import assert_healthy
from repro.core.engine import NestedSetIndex
from repro.core.invfile import InvertedFile
from repro.core.topdown import topdown_match_nodes
from repro.data.queries import make_benchmark_queries


@pytest.fixture(scope="module")
def records():
    return list(generate_dataset("zipf-wide", 400, seed=6, theta=0.8))


@pytest.fixture(scope="module")
def reference(records) -> InvertedFile:
    return InvertedFile.build(records)


class TestEquivalence:
    @pytest.mark.parametrize("budget", [50, 1000, 10 ** 9],
                             ids=["many-runs", "few-runs", "single-run"])
    def test_same_index_any_budget(self, records, reference,
                                   budget: int) -> None:
        index = build_external(records, memory_budget=budget)
        assert index.n_records == reference.n_records
        assert index.n_nodes == reference.n_nodes
        assert index.frequencies() == reference.frequencies()
        for atom, _df in reference.frequencies()[:100]:
            assert index.postings(atom) == reference.postings(atom)
        assert_healthy(index)

    def test_query_results_identical(self, records, reference) -> None:
        index = build_external(records, memory_budget=64)
        workload = make_benchmark_queries(records, 25, seed=6)
        for bench in workload:
            expect = reference.heads_to_keys(
                topdown_match_nodes(bench.query, reference))
            assert index.heads_to_keys(
                topdown_match_nodes(bench.query, index)) == expect

    def test_run_values_cleaned_up(self, records) -> None:
        index = build_external(records, memory_budget=50)
        leftovers = [key for key in index.store.keys()
                     if key.startswith(b"T:")]
        assert leftovers == []

    def test_segmented_external_build(self, records, reference) -> None:
        index = build_external(records, memory_budget=64, block_size=32)
        assert index.block_size == 32
        for atom, _df in reference.frequencies()[:30]:
            assert index.postings(atom) == reference.postings(atom)
        assert_healthy(index)

    def test_disk_engine(self, tmp_path, records, reference) -> None:
        path = str(tmp_path / "bulk.idx")
        built = build_external(records, storage="diskhash", path=path,
                               memory_budget=100)
        built.close()
        reopened = InvertedFile.open("diskhash", path)
        assert reopened.n_records == reference.n_records
        hottest = reference.frequencies()[0][0]
        assert reopened.postings(hottest) == reference.postings(hottest)
        reopened.close()

    def test_budget_validation(self, records) -> None:
        with pytest.raises(ValueError):
            build_external(records, memory_budget=0)

    def test_engine_integration(self, records) -> None:
        index = NestedSetIndex.build_external(records, memory_budget=128)
        plain = NestedSetIndex.build(records)
        query = records[7][1]
        assert index.query(query) == plain.query(query)

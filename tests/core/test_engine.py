"""Tests for the NestedSetIndex facade."""

from __future__ import annotations

import pytest

from repro.core.engine import ALGORITHMS, NestedSetIndex, as_nested_set
from repro.core.model import NestedSet

N = NestedSet


@pytest.fixture
def index(paper_records) -> NestedSetIndex:
    return NestedSetIndex.build(paper_records)


class TestCoercion:
    def test_as_nested_set_variants(self) -> None:
        tree = N(["a"], [N(["b"])])
        assert as_nested_set(tree) is tree
        assert as_nested_set("{a, {b}}") == tree
        assert as_nested_set({"a", frozenset({"b"})}) == tree


class TestBuildAndQuery:
    def test_build_accepts_raw_objects(self) -> None:
        index = NestedSetIndex.build([("r", {"a", frozenset({"b"})})])
        assert index.query("{a}") == ["r"]

    def test_all_algorithms(self, index, paper_query) -> None:
        for algorithm in ALGORITHMS:
            assert index.query(paper_query, algorithm=algorithm) == ["tim"]

    def test_unknown_algorithm(self, index) -> None:
        with pytest.raises(ValueError):
            index.query("{a}", algorithm="quantum")

    def test_query_options(self, index, tim) -> None:
        assert index.query(tim, join="equality") == ["tim"]
        assert index.query("{UK, {A, motorbike}}",
                           mode="anywhere") == ["sue", "tim"]
        assert index.query("{USA, {A, motorbike}}",
                           semantics="homeo") == ["tim"]

    def test_query_batch(self, index) -> None:
        results = index.query_batch(["{USA}", "{London}"])
        assert results == [["tim"], ["sue"]]

    def test_containment_join(self, index) -> None:
        pairs = index.containment_join([("q1", "{USA}"), ("q2", "{UK}")])
        assert pairs == [("q1", "tim"), ("q2", "sue")]

    def test_self_check_agreement(self, index, paper_query) -> None:
        results = index.self_check(paper_query)
        assert set(results) == set(ALGORITHMS)
        assert all(value == ["tim"] for value in results.values())

    def test_self_check_skips_inapplicable(self, index) -> None:
        results = index.self_check("{USA}", join="superset")
        assert "topdown-paper" not in results

    def test_bloom_guard(self, index, paper_query) -> None:
        with pytest.raises(ValueError):
            index.query(paper_query, algorithm="topdown", use_bloom=True)

    def test_bloom_with_naive(self, paper_records, paper_query) -> None:
        index = NestedSetIndex.build(paper_records, bloom="flat")
        assert index.query(paper_query, algorithm="naive",
                           use_bloom=True) == ["tim"]
        assert index.shards[0].bloom_index is not None


class TestCacheManagement:
    def test_cache_policies_on_build(self, paper_records) -> None:
        for policy in (None, "frequency", "lru"):
            index = NestedSetIndex.build(paper_records, cache=policy)
            pins = index.inverted_file.cache.pins
            assert bool(pins) == (policy == "frequency")
            assert index.stats()["cache"]["policy"] == (policy or "none")

    def test_set_cache_swaps_policy(self, index) -> None:
        index.set_cache("frequency", budget=10)
        assert len(index.inverted_file.cache.pins) == 10
        assert index.stats()["cache"]["policy"] == "frequency"
        index.set_cache(None)
        assert not index.inverted_file.cache.pins
        assert index.stats()["cache"]["policy"] == "none"

    def test_cached_results_identical(self, paper_records,
                                      paper_query) -> None:
        index = NestedSetIndex.build(paper_records, cache="frequency")
        first = index.query(paper_query)
        second = index.query(paper_query)
        assert first == second == ["tim"]
        assert index.stats()["cache"]["hits"] > 0


class TestIntrospection:
    def test_counts(self, index, paper_records) -> None:
        assert index.n_records == 2
        assert index.n_nodes == sum(tree.internal_count
                                    for _k, tree in paper_records)

    def test_records_iteration(self, index, paper_records) -> None:
        assert dict(index.records()) == dict(paper_records)

    def test_stats_shape(self, index, paper_query) -> None:
        index.query(paper_query)
        stats = index.stats()
        assert stats["index"]["postings_requests"] > 0
        assert "policy" in stats["cache"]
        assert "gets" in stats["store"]
        index.reset_stats()
        assert index.stats()["index"]["postings_requests"] == 0


class TestPersistence:
    @pytest.mark.parametrize("kind", ["diskhash"])
    def test_build_open_cycle(self, kind, tmp_path, paper_records,
                              paper_query) -> None:
        path = str(tmp_path / f"engine.{kind}")
        with NestedSetIndex.build(paper_records, storage=kind,
                                  path=path) as index:
            assert index.query(paper_query) == ["tim"]
        with NestedSetIndex.open(kind, path, cache="frequency",
                                 bloom="flat") as reopened:
            assert reopened.query(paper_query) == ["tim"]
            assert reopened.query(paper_query, algorithm="naive",
                                  use_bloom=True) == ["tim"]

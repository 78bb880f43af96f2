"""Tests for the benchmark query workload protocol (Section 5.1)."""

from __future__ import annotations

import random

import pytest

from repro.core.model import NestedSet
from repro.core.semantics import hom_contains
from repro.data.queries import (
    add_atom_at_random_node,
    fresh_atom,
    make_benchmark_queries,
    verify_workload,
)

N = NestedSet


class TestProtocol:
    def test_half_positive_half_negative(self, small_corpus) -> None:
        workload = make_benchmark_queries(small_corpus, 40)
        positives = [b for b in workload if b.positive]
        assert len(workload) == 40
        assert len(positives) == 20

    def test_positive_queries_are_records(self, small_corpus) -> None:
        by_key = dict(small_corpus)
        for bench in make_benchmark_queries(small_corpus, 30):
            if bench.positive:
                assert bench.query == by_key[bench.source_key]

    def test_negative_queries_not_contained_anywhere(self,
                                                     small_corpus) -> None:
        for bench in make_benchmark_queries(small_corpus, 30):
            if not bench.positive:
                for _key, tree in small_corpus:
                    assert not hom_contains(tree, bench.query)

    def test_negative_fraction(self, small_corpus) -> None:
        workload = make_benchmark_queries(small_corpus, 20,
                                          negative_fraction=0.25)
        assert sum(1 for b in workload if not b.positive) == 5

    def test_deterministic(self, small_corpus) -> None:
        first = make_benchmark_queries(small_corpus, 20, seed=7)
        second = make_benchmark_queries(small_corpus, 20, seed=7)
        assert first == second
        third = make_benchmark_queries(small_corpus, 20, seed=8)
        assert first != third

    def test_oversampling_with_replacement(self, small_corpus) -> None:
        workload = make_benchmark_queries(small_corpus[:5], 20)
        assert len(workload) == 20

    def test_random_node_distortion(self, small_corpus) -> None:
        workload = make_benchmark_queries(small_corpus, 30,
                                          distort="random")
        verify_workload(workload, small_corpus)

    def test_validation(self, small_corpus) -> None:
        with pytest.raises(ValueError):
            make_benchmark_queries([], 10)
        with pytest.raises(ValueError):
            make_benchmark_queries(small_corpus, 10, negative_fraction=1.5)
        with pytest.raises(ValueError):
            make_benchmark_queries(small_corpus, 10, distort="everywhere")

    def test_verify_workload_catches_tampering(self, small_corpus) -> None:
        workload = make_benchmark_queries(small_corpus, 10)
        verify_workload(workload, small_corpus)  # passes untouched
        bad = [b for b in workload if not b.positive][0]
        tampered = [type(bad)(key=bad.key,
                              query=dict(small_corpus)[bad.source_key],
                              positive=False, source_key=bad.source_key)]
        with pytest.raises(AssertionError):
            verify_workload(tampered, small_corpus)


class TestHelpers:
    def test_fresh_atom_reserved_namespace(self) -> None:
        assert fresh_atom(3) == "__absent_3__"

    def test_add_atom_at_random_node(self) -> None:
        rng = random.Random(1)
        tree = N(["a"], [N(["b"], [N(["c"])])])
        sites = set()
        for _ in range(50):
            grown = add_atom_at_random_node(tree, "__x__", rng)
            assert grown.leaf_count == tree.leaf_count + 1
            for node in grown.iter_sets():
                if "__x__" in node.atoms:
                    sites.add(frozenset(node.atoms - {"__x__"}))
        # over 50 draws, the atom must land on more than one node
        assert len(sites) > 1

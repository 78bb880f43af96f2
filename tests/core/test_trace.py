"""Tests for the EXPLAIN-style evaluation traces."""

from __future__ import annotations

import random

import pytest

from repro.core.invfile import InvertedFile
from repro.core.matchspec import QuerySpec
from repro.core.model import NestedSet
from repro.core.topdown import topdown_match_nodes
from repro.core.observe import explain
from tests.conftest import random_tree

N = NestedSet


@pytest.fixture
def index(paper_records) -> InvertedFile:
    return InvertedFile.build(paper_records)


class TestExplain:
    def test_matches_equal_algorithm(self, index, paper_query) -> None:
        result = explain(paper_query, index)
        assert result.matches == ["tim"]

    def test_trace_structure(self, index, paper_query) -> None:
        result = explain(paper_query, index)
        root = result.root
        assert root.atoms == ["USA"]
        assert len(root.children) == 1                 # the {UK, ...} child
        assert len(root.children[0].children) == 1     # {A, motorbike}
        assert root.restricted is None                 # root: no frontier
        assert root.children[0].restricted is not None

    def test_counts_are_plausible(self, index, paper_query) -> None:
        result = explain(paper_query, index)
        root = result.root
        assert root.candidates >= root.survivors
        assert result.lists_fetched >= 4   # USA, UK, A, motorbike
        assert result.total_ms > 0

    def test_render(self, index, paper_query) -> None:
        text = explain(paper_query, index).render()
        assert "matches=1" in text
        assert "candidates=" in text
        assert text.count("node ") == 3

    def test_empty_result_trace(self, index) -> None:
        result = explain(N(["Narnia"]), index)
        assert result.matches == []
        assert result.root.candidates == 0
        assert result.root.survivors == 0

    def test_list_lengths_recorded(self, index) -> None:
        result = explain(N(["UK", "London"]), index)
        assert result.root.list_lengths == {"UK": 4, "London": 1}


class TestExplainAgreement:
    """Traces must compute exactly what the strict top-down computes."""

    @pytest.mark.parametrize("spec", [
        QuerySpec(),
        QuerySpec(semantics="iso"),
        QuerySpec(semantics="homeo"),
        QuerySpec(join="equality"),
        QuerySpec(join="superset"),
        QuerySpec(join="overlap", epsilon=2),
        QuerySpec(mode="anywhere"),
    ], ids=lambda s: f"{s.semantics}-{s.join}-{s.mode}")
    def test_randomized_agreement(self, small_corpus, spec) -> None:
        index = InvertedFile.build(small_corpus)
        rng = random.Random(str(spec))
        atoms = [f"a{i}" for i in range(12)]
        for _ in range(30):
            query = random_tree(rng, atoms)
            expected = index.heads_to_keys(
                topdown_match_nodes(query, index, spec), mode=spec.mode)
            assert explain(query, index, spec).matches == expected

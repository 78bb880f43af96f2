"""Cross-validation of the top-down and bottom-up algorithms.

The central correctness test of the reproduction: on randomized
collections and queries, both index algorithms must agree with the naive
tree-checking oracle under every semantics × join × mode combination, and
the paper-literal top-down variant must over-approximate (never miss)
under its documented path-consistency relaxation.
"""

from __future__ import annotations

import random

import pytest

from repro.core.bottomup import bottomup_match_nodes, bottomup_query
from repro.core.invfile import InvertedFile
from repro.core.matchspec import QuerySpec, QuerySpecError
from repro.core.model import NestedSet
from repro.core.naive import reference_query
from repro.core.topdown import (
    topdown_match_nodes,
    topdown_paper_match_nodes,
    topdown_query,
)
from tests.conftest import random_tree

N = NestedSet


@pytest.fixture(scope="module")
def corpus() -> list[tuple[str, NestedSet]]:
    rng = random.Random(314159)
    atoms = [f"a{i}" for i in range(10)]
    return [(f"r{i:02d}", random_tree(rng, atoms)) for i in range(50)]


@pytest.fixture(scope="module")
def index(corpus) -> InvertedFile:
    return InvertedFile.build(corpus)


def specs() -> list[QuerySpec]:
    out = []
    for semantics in ("hom", "iso", "homeo"):
        for mode in ("root", "anywhere"):
            out.append(QuerySpec(semantics=semantics, mode=mode))
    for join in ("equality", "superset", "overlap"):
        for mode in ("root", "anywhere"):
            out.append(QuerySpec(join=join, mode=mode))
    out.append(QuerySpec(join="overlap", epsilon=2))
    return out


class TestPaperExample:
    """The running example of Sections 1-3 (Figures 3-5)."""

    @pytest.fixture
    def paper_index(self, paper_records) -> InvertedFile:
        return InvertedFile.build(paper_records)

    def test_topdown(self, paper_index, paper_query) -> None:
        assert topdown_query(paper_query, paper_index) == ["tim"]

    def test_bottomup(self, paper_index, paper_query) -> None:
        assert bottomup_query(paper_query, paper_index) == ["tim"]

    def test_paper_literal_topdown(self, paper_index, paper_query) -> None:
        heads = topdown_paper_match_nodes(paper_query, paper_index)
        assert paper_index.heads_to_keys(heads) == ["tim"]

    def test_sue_query(self, paper_index) -> None:
        query = N(["London"], [N(["UK"], [N(["A", "B", "C"])])])
        assert topdown_query(query, paper_index) == ["sue"]
        assert bottomup_query(query, paper_index) == ["sue"]

    def test_both_records(self, paper_index) -> None:
        query = N([], [N(["UK"], [N(["A", "motorbike"])])])
        assert topdown_query(query, paper_index) == ["sue", "tim"]
        assert bottomup_query(query, paper_index) == ["sue", "tim"]

    def test_negative_query(self, paper_index, paper_query) -> None:
        distorted = paper_query.with_atom("__fresh__")
        assert topdown_query(distorted, paper_index) == []
        assert bottomup_query(distorted, paper_index) == []


class TestCrossValidation:
    @pytest.mark.parametrize("spec", specs(),
                             ids=lambda s: f"{s.semantics}-{s.join}-"
                                           f"{s.mode}-eps{s.epsilon}")
    def test_algorithms_match_oracle(self, corpus, index,
                                     spec: QuerySpec) -> None:
        rng = random.Random(f"xval-{spec}")
        atoms = [f"a{i}" for i in range(10)] + ["zz"]
        for trial in range(60):
            query = random_tree(rng, atoms)
            expect = reference_query(corpus, query, spec)
            got_td = index.heads_to_keys(
                topdown_match_nodes(query, index, spec), mode=spec.mode)
            got_bu = index.heads_to_keys(
                bottomup_match_nodes(query, index, spec), mode=spec.mode)
            assert got_td == expect, f"topdown diverged on {query.to_text()}"
            assert got_bu == expect, f"bottomup diverged on {query.to_text()}"

    def test_queries_sampled_from_corpus(self, corpus, index) -> None:
        # Positive-workload shape: every record contains itself.
        for key, tree in corpus[:20]:
            for match_fn in (topdown_match_nodes, bottomup_match_nodes):
                keys = index.heads_to_keys(match_fn(tree, index))
                assert key in keys


class TestPaperLiteralTopDown:
    def test_sound_overapproximation(self, corpus, index) -> None:
        # The literal variant may add path-mixed false positives (see
        # test_known_counterexample) but must never miss a true match.
        rng = random.Random("paper-literal")
        atoms = [f"a{i}" for i in range(10)]
        for trial in range(150):
            query = random_tree(rng, atoms)
            expect = set(reference_query(corpus, query, QuerySpec()))
            got = set(index.heads_to_keys(
                topdown_paper_match_nodes(query, index)))
            assert got >= expect, "literal variant must never miss a match"

    def test_exact_on_path_queries(self, corpus, index) -> None:
        # Queries with at most one internal child per node: the relaxation
        # cannot fire, so the literal variant is exact.
        rng = random.Random("paths")
        atoms = [f"a{i}" for i in range(10)]
        for trial in range(80):
            query = random_tree(rng, atoms, max_children=1)
            expect = reference_query(corpus, query, QuerySpec())
            got = index.heads_to_keys(
                topdown_paper_match_nodes(query, index))
            assert got == expect

    def test_known_counterexample(self) -> None:
        # DESIGN.md's path-mixing example, verbatim.
        data = N([], [N(["l"], [N(["x"])]), N(["l"], [N(["y"])])])
        query = N([], [N(["l"], [N(["x"]), N(["y"])])])
        index = InvertedFile.build([("r", data)])
        assert bottomup_query(query, index) == []
        assert topdown_query(query, index) == []
        heads = topdown_paper_match_nodes(query, index)
        assert index.heads_to_keys(heads) == ["r"]  # the false positive

    def test_unsupported_combinations(self, index) -> None:
        with pytest.raises(QuerySpecError):
            topdown_paper_match_nodes(N(["a"]), index,
                                      QuerySpec(semantics="iso"))
        with pytest.raises(QuerySpecError):
            topdown_paper_match_nodes(N(["a"]), index,
                                      QuerySpec(join="superset"))

    def test_homeo_literal_matches_oracle_on_paths(self, corpus,
                                                   index) -> None:
        rng = random.Random("homeo-literal")
        atoms = [f"a{i}" for i in range(10)]
        spec = QuerySpec(semantics="homeo")
        for trial in range(60):
            query = random_tree(rng, atoms, max_children=1)
            expect = reference_query(corpus, query, spec)
            got = index.heads_to_keys(
                topdown_paper_match_nodes(query, index, spec))
            assert got == expect


class TestDeepAndDegenerate:
    def test_very_deep_query_no_recursion_error(self) -> None:
        # Bottom-up evaluation is iterative; a 250-level chain query works.
        # (Build-time serialization is recursive, bounding practical depth
        # at roughly a third of Python's recursion limit -- far beyond the
        # depth-10 cap of the deep synthetic data sets.)
        chain_data = N(["leaf0"])
        for level in range(1, 250):
            chain_data = N([f"leaf{level}"], [chain_data])
        index = InvertedFile.build([("deep", chain_data)])
        assert bottomup_query(chain_data, index) == ["deep"]

    def test_any_parseable_depth_answers_under_every_algorithm(self) -> None:
        # The strict top-down descent keeps its own stack and orders
        # siblings off one iterative canonical walk, so a query twice
        # as deep as anything indexed -- parsed from text, like a
        # user's -- answers (here: matches nothing) instead of raising
        # RecursionError.
        from repro.core.engine import NestedSetIndex
        chain = N(["a"])
        for _ in range(299):
            chain = N(["a"], [chain])
        with NestedSetIndex.build([("deep", chain), ("flat", N(["a"]))]) \
                as index:
            too_deep = "{a, " * 599 + "{a}" + "}" * 599
            assert sum(1 for _ in NestedSet.parse(too_deep).iter_sets()) \
                == 600
            for query, expected in ((too_deep, []), (chain, ["deep"])):
                answers = {algorithm: index.query(query, algorithm=algorithm)
                           for algorithm in (None, "bottomup", "topdown",
                                             "topdown-paper", "naive")}
                assert all(answer == expected
                           for answer in answers.values()), answers
            assert index.explain(too_deep).matches == []
            assert index.query_batch([too_deep, chain],
                                     algorithm="bottomup") == [[], ["deep"]]

    def test_empty_query_matches_everything(self, corpus, index) -> None:
        assert len(bottomup_query(N(), index)) == len(corpus)
        assert len(topdown_query(N(), index)) == len(corpus)

    def test_empty_inner_set_query(self, corpus, index) -> None:
        query = N([], [N()])
        expect = reference_query(corpus, query, QuerySpec())
        assert bottomup_query(query, index) == expect
        assert topdown_query(query, index) == expect

    def test_singleton_database(self) -> None:
        index = InvertedFile.build([("only", N(["x"]))])
        assert bottomup_query(N(["x"]), index) == ["only"]
        assert bottomup_query(N(["y"]), index) == []

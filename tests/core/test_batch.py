"""Tests for the one post-order memo walk (shared-subquery memoization)."""

from __future__ import annotations

import random

import pytest

from repro.core.batch import memoized_match_ids
from repro.core.bottomup import bottomup_match_ids
from repro.core.engine import NestedSetIndex
from repro.core.exec.context import ExecCounters, ExecutionContext
from repro.core.invfile import InvertedFile
from repro.core.matchspec import QuerySpec
from repro.core.model import NestedSet
from repro.core.postings import id_set
from repro.core.prefixjoin import SharedCandidates
from tests.conftest import random_tree

N = NestedSet


@pytest.fixture
def index(small_corpus) -> InvertedFile:
    return InvertedFile.build(small_corpus)


def walk(query: NestedSet, index: InvertedFile, memo: dict,
         counters: ExecCounters) -> set[int]:
    """The memo walk on the default candidate source, as a set."""
    return set(id_set(memoized_match_ids(query, index, QuerySpec(), memo,
                                         counters)))


class TestExactness:
    @pytest.mark.parametrize("spec", [
        QuerySpec(),
        QuerySpec(semantics="iso"),
        QuerySpec(semantics="homeo"),
        QuerySpec(join="equality"),
        QuerySpec(join="superset"),
        QuerySpec(join="overlap", epsilon=2),
    ], ids=lambda s: f"{s.semantics}-{s.join}")
    def test_equals_plain_bottomup(self, small_corpus, index, spec) -> None:
        """Both candidate sources -- the inverted lists and the prefix
        join's shared provider -- each with a memo that spans the
        workload, answer like a plain bottom-up run."""
        ctx = ExecutionContext(ifile=index)
        shared = SharedCandidates(ctx, spec)
        plain_memo: dict = {}
        shared_memo: dict = {}
        rng = random.Random(str(spec) + "batch")
        atoms = [f"a{i}" for i in range(12)]
        for _ in range(40):
            query = random_tree(rng, atoms)
            expected = set(id_set(bottomup_match_ids(query, index, spec)))
            assert set(id_set(memoized_match_ids(
                query, index, spec, plain_memo))) == expected
            assert set(id_set(memoized_match_ids(
                query, index, spec, shared_memo, ctx.counters,
                shared.candidates))) == expected
        assert ctx.counters.prefix_streams > 0   # the provider served

    def test_query_batch_bottomup(self, small_corpus) -> None:
        queries = [tree for _key, tree in small_corpus[:8]]
        with NestedSetIndex.build(small_corpus) as facade:
            for share in (True, False):
                results = facade.query_batch(queries, algorithm="bottomup",
                                             share_subqueries=share)
                for (key, _tree), result in zip(small_corpus[:8], results):
                    assert key in result


class TestSharing:
    def test_shared_subtrees_evaluated_once(self, index) -> None:
        shared = N(["a1", "a2"])
        queries = [N(["a3"], [shared]), N(["a4"], [shared]),
                   N(["a5"], [shared, N(["a6"])])]
        memo: dict = {}
        counters = ExecCounters()
        for query in queries:
            walk(query, index, memo, counters)
        # shared appears in 3 queries but only one evaluation.
        assert counters.subqueries_reused >= 2
        assert len(memo) == counters.subqueries_evaluated

    def test_identical_queries_fully_reused(self, index,
                                            small_corpus) -> None:
        query = small_corpus[0][1]
        memo: dict = {}
        counters = ExecCounters()
        first = walk(query, index, memo, counters)
        evaluated = counters.subqueries_evaluated
        second = walk(query, index, memo, counters)
        assert first == second
        assert counters.subqueries_evaluated == evaluated  # all memoized

    def test_structural_equality_drives_sharing(self, index) -> None:
        # Distinct objects, equal values: the memo must hit.
        memo: dict = {}
        counters = ExecCounters()
        walk(N(["a7"], [N(["a1", "a2"])]), index, memo, counters)
        count = counters.subqueries_evaluated
        walk(N(["a8"], [N(["a2", "a1"])]), index, memo, counters)
        assert counters.subqueries_evaluated == count + 1  # only the root

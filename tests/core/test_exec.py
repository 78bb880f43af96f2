"""Tests for the execution pipeline: compiler, plan, context, explain."""

from __future__ import annotations

import random

import pytest

from repro.core.engine import NestedSetIndex
from repro.core.exec import (
    ALGORITHMS,
    ExecCounters,
    ExecutionContext,
    ExecutionPlan,
    PlanError,
    compile_query,
    run_explained,
)
from repro.core.matchspec import QuerySpec, QuerySpecError
from repro.core.model import NestedSet

N = NestedSet


def _context(index: NestedSetIndex, **options) -> ExecutionContext:
    """An execution context over the (one) partition of ``index``, as
    of the version committed now."""
    view, = index.snapshot().views
    return view.execution_context(**options)


class TestCompile:
    def test_default_plan_shape(self) -> None:
        plan = compile_query("{a, {b}}")
        assert isinstance(plan, ExecutionPlan)
        assert plan.algorithm == "topdown"
        assert plan.match.picked
        assert "the compiler's pick" in plan.describe()
        assert plan.candidates.source == "inverted-file"
        assert not plan.match.memoizable
        assert plan.prefilter.cache_key is not None
        assert not plan.prefilter.bloom
        assert plan.materialize.mode == "root"
        # The resolution table of an unset algorithm: the frontier can
        # drive an intersection, not a multiset union.
        picks = {join: compile_query("{a, {b}}", QuerySpec(join=join))
                 for join in ("subset", "equality", "superset", "overlap")}
        assert {join: plan.algorithm for join, plan in picks.items()} == {
            "subset": "topdown", "equality": "topdown",
            "superset": "bottomup", "overlap": "bottomup"}
        assert all(plan.match.picked for plan in picks.values())
        assert picks["superset"].match.memoizable
        # A sibling-order planner is a top-down option on every join.
        for join in ("subset", "superset"):
            planned = compile_query("{a, {b}}", QuerySpec(join=join),
                                    planner="selective-first")
            assert planned.algorithm == "topdown" and planned.match.picked
        # A named algorithm is the caller's, not a pick, and shares the
        # picked plan's result-cache key.
        named = compile_query("{a, {b}}", algorithm="topdown")
        assert not named.match.picked
        assert "pick" not in named.describe()
        assert named.prefilter.cache_key == plan.prefilter.cache_key

    def test_topdown_plan_carries_planner(self) -> None:
        plan = compile_query("{a}", algorithm="topdown",
                             planner="selective-first")
        assert plan.match.strategy == "topdown"
        assert plan.match.planner == "selective-first"
        assert not plan.match.memoizable

    def test_naive_plan_scans_records(self) -> None:
        plan = compile_query("{a}", algorithm="naive", use_bloom=True)
        assert plan.candidates.source == "record-scan"
        assert plan.prefilter.bloom

    def test_non_cacheable_plan_has_no_key(self) -> None:
        plan = compile_query("{a}", cacheable=False)
        assert plan.prefilter.cache_key is None

    def test_spec_reaches_stages(self) -> None:
        spec = QuerySpec(join="overlap", epsilon=2, mode="anywhere")
        plan = compile_query("{a}", spec)
        assert plan.candidates.join == "overlap"
        assert plan.materialize.mode == "anywhere"
        assert plan.spec.epsilon == 2

    def test_plans_are_frozen(self) -> None:
        plan = compile_query("{a}")
        with pytest.raises(AttributeError):
            plan.query = N(["b"])  # type: ignore[misc]

    def test_describe_lists_stages(self) -> None:
        plan = compile_query("{a}", algorithm="topdown",
                             planner="selective-first")
        text = plan.describe()
        for fragment in ("prefilter:", "candidates:", "match:",
                         "materialize:", "selective-first"):
            assert fragment in text


class TestCompileValidation:
    def test_unknown_algorithm(self) -> None:
        with pytest.raises(PlanError, match="unknown algorithm"):
            compile_query("{a}", algorithm="magic")

    def test_plan_error_is_value_error(self) -> None:
        assert issubclass(PlanError, ValueError)

    def test_bloom_requires_naive(self) -> None:
        for algorithm in ("bottomup", "topdown", "topdown-paper"):
            with pytest.raises(PlanError, match="naive"):
                compile_query("{a}", algorithm=algorithm, use_bloom=True)

    def test_planner_requires_topdown(self) -> None:
        for algorithm in ("bottomup", "naive"):
            with pytest.raises(PlanError, match="top-down"):
                compile_query("{a}", algorithm=algorithm,
                              planner="selective-first")

    def test_unknown_planner_strategy(self) -> None:
        with pytest.raises(PlanError, match="unknown strategy"):
            compile_query("{a}", algorithm="topdown", planner="chaotic")

    def test_paper_variant_spec_limits(self) -> None:
        with pytest.raises(QuerySpecError):
            compile_query("{a}", QuerySpec(semantics="iso"),
                          algorithm="topdown-paper")
        with pytest.raises(QuerySpecError):
            compile_query("{a}", QuerySpec(join="superset"),
                          algorithm="topdown-paper")


class TestPlanRun:
    def test_run_matches_engine_query(self, paper_records,
                                      paper_query) -> None:
        index = NestedSetIndex.build(paper_records)
        plan = compile_query(paper_query)
        assert plan.run(_context(index)) == \
            index.query(paper_query)

    def test_match_nodes_rejected_for_naive(self, paper_records) -> None:
        index = NestedSetIndex.build(paper_records)
        plan = compile_query("{a}", algorithm="naive")
        with pytest.raises(PlanError, match="node-level"):
            plan.match_nodes(_context(index))

    def test_counters_accumulate(self, paper_records, paper_query) -> None:
        index = NestedSetIndex.build(paper_records)
        index.enable_result_cache()
        ctx = _context(index)
        plan = compile_query(paper_query)
        plan.run(ctx)
        plan.run(ctx)
        assert ctx.counters.queries == 2
        assert ctx.counters.results_reused == 1
        assert ctx.counters.snapshot()["queries"] == 2

    def test_naive_counters(self, small_corpus) -> None:
        index = NestedSetIndex.build(small_corpus, bloom="flat")
        ctx = _context(index)
        plan = compile_query(small_corpus[0][1], algorithm="naive",
                             use_bloom=True)
        plan.run(ctx)
        tested = ctx.counters.records_tested
        skipped = ctx.counters.records_skipped
        assert tested + skipped == len(small_corpus)

    def test_shared_memo_reuses_subqueries(self, small_corpus) -> None:
        index = NestedSetIndex.build(small_corpus)
        ctx = _context(index, memo={})
        query = small_corpus[0][1]
        plan = compile_query(query, algorithm="bottomup", cacheable=False)
        first = plan.run(ctx)
        evaluated = ctx.counters.subqueries_evaluated
        second = plan.run(ctx)
        assert first == second
        # The repeat is served entirely from the memo.
        assert ctx.counters.subqueries_evaluated == evaluated
        assert ctx.counters.subqueries_reused > 0

    def test_standalone_context_computes_stats(self, paper_records) -> None:
        index = NestedSetIndex.build(paper_records)
        ctx = ExecutionContext(ifile=index.inverted_file)
        stats = ctx.collection_stats()
        assert stats is ctx.collection_stats()  # memoized
        assert ctx.counters == ExecCounters()


def _walk(node):
    """A trace node and everything below it."""
    yield node
    for child in node.children:
        yield from _walk(child)


class TestExplainEveryAlgorithm:
    """Acceptance criterion: explain works and agrees for all algorithms."""

    SPECS = [
        {},
        {"semantics": "homeo"},
        {"join": "overlap", "epsilon": 2},
        {"mode": "anywhere"},
    ]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_matches_equal_uninstrumented_query(self, small_corpus,
                                                algorithm) -> None:
        index = NestedSetIndex.build(small_corpus)
        queries = [tree for _key, tree in small_corpus[:8]]
        for options in self.SPECS:
            for query in queries:
                result = index.explain(query, algorithm=algorithm,
                                       **options)
                assert result.matches == index.query(
                    query, algorithm=algorithm, **options), \
                    (algorithm, options, query)
                assert result.algorithm == algorithm

    @pytest.mark.parametrize("join", ["subset", "equality", "superset",
                                      "overlap"])
    def test_unset_algorithm_observes_the_one_path(self, small_corpus,
                                                   join) -> None:
        """With no algorithm named, EXPLAIN traces what ``query`` runs:
        same matches, the pick named as the compiler's, and -- where a
        frontier drove a child's intersection -- the candidates shown
        as a bound beside the exact restricted count."""
        index = NestedSetIndex.build(small_corpus)
        picked = "topdown" if join in ("subset", "equality") else "bottomup"
        bounded = exact = 0
        for _key, query in small_corpus[:12]:
            result = index.explain(query, join=join)
            assert result.matches == index.query(query, join=join)
            assert (result.algorithm, result.picked) == (picked, True)
            assert f"[{picked}, the compiler's pick]" in \
                result.render().splitlines()[0]
            assert not result.root.bounded
            below = [node for child in result.root.children
                     for node in _walk(child)]
            for node in below:
                if node.bounded:
                    bounded += 1
                    assert node.restricted <= node.candidates
                    assert f"candidates≤{node.candidates} " \
                        f"(frontier {node.restricted})" in node.render()
                else:
                    exact += 1
        # Top-down under an intersection join bounds every non-root
        # node; bottom-up restricts nothing and counts everything.
        assert (bounded > 0, exact > 0) == (picked == "topdown",
                                            picked == "bottomup")
        named = index.explain(small_corpus[0][1], join=join,
                              algorithm=picked)
        assert not named.picked and "pick" not in named.render()

    def test_trace_tree_has_node_detail(self, paper_records,
                                        paper_query) -> None:
        index = NestedSetIndex.build(paper_records)
        for algorithm in ("bottomup", "topdown", "topdown-paper"):
            result = index.explain(paper_query, algorithm=algorithm)
            assert result.root.candidates is not None
            assert result.root.survivors is not None
            assert result.lists_fetched > 0
            assert algorithm in result.render()

    def test_explain_with_planner_and_bloom(self, small_corpus) -> None:
        index = NestedSetIndex.build(small_corpus, bloom="flat")
        query = small_corpus[0][1]
        planned = index.explain(query, algorithm="topdown",
                                planner="selective-first")
        assert planned.matches == index.query(query, algorithm="topdown")
        scanned = index.explain(query, algorithm="naive", use_bloom=True)
        assert scanned.matches == index.query(query, algorithm="naive")

    def test_explain_bypasses_result_cache(self, small_corpus) -> None:
        index = NestedSetIndex.build(small_corpus)
        cache = index.enable_result_cache()
        query = small_corpus[0][1]
        index.query(query)
        result = index.explain(query)
        assert result.matches == index.query(query)
        assert cache.stats.hits == 1  # only the second query() hit

    def test_run_explained_on_raw_plan(self, paper_records,
                                       paper_query) -> None:
        index = NestedSetIndex.build(paper_records)
        plan = compile_query(paper_query, cacheable=False)
        result = run_explained(plan, _context(index))
        assert result.matches == index.query(paper_query)


class TestQueryBatch:
    def test_share_flag_does_not_change_results(self, small_corpus) -> None:
        index = NestedSetIndex.build(small_corpus)
        queries = [tree for _key, tree in small_corpus[:20]]
        shared = index.query_batch(queries, share_subqueries=True)
        unshared = index.query_batch(queries, share_subqueries=False)
        per_query = [index.query(q) for q in queries]
        assert shared == unshared == per_query

    def test_share_ignored_for_non_memoizable(self, small_corpus) -> None:
        index = NestedSetIndex.build(small_corpus)
        queries = [tree for _key, tree in small_corpus[:5]]
        topdown = index.query_batch(queries, algorithm="topdown",
                                    share_subqueries=True)
        assert topdown == [index.query(q, algorithm="topdown")
                           for q in queries]

    def test_containment_join_facade(self, small_corpus) -> None:
        index = NestedSetIndex.build(small_corpus)
        queries = [(f"q{i}", tree)
                   for i, (_key, tree) in enumerate(small_corpus[:10])]
        pairs = index.containment_join(queries)
        expected = [(qkey, skey) for qkey, tree in queries
                    for skey in index.query(tree)]
        assert pairs == expected

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("join,epsilon", [("subset", 1),
                                              ("equality", 1),
                                              ("superset", 1),
                                              ("overlap", 2)])
    @pytest.mark.parametrize("algorithm", ["topdown", "bottomup", None])
    def test_repeats_answered_in_input_order(self, small_corpus, shards,
                                             join, epsilon,
                                             algorithm) -> None:
        index = NestedSetIndex.build(small_corpus, shards=shards)
        queries = [tree for _key, tree in small_corpus[:15]] * 3
        queries.append(small_corpus[0][1].to_text())   # text folds too
        random.Random(shards).shuffle(queries)
        options = dict(join=join, epsilon=epsilon, algorithm=algorithm)
        assert index.query_batch(queries, **options) \
            == [index.query(query, **options) for query in queries]

    @pytest.mark.parametrize("shards", [1, 4])
    def test_repeats_get_their_own_lists(self, small_corpus,
                                         shards) -> None:
        index = NestedSetIndex.build(small_corpus, shards=shards)
        query = small_corpus[4][1]
        first, second = index.query_batch([query, query])
        expect = index.query(query)
        assert first == second == expect
        first.append("mutated")
        assert second == expect

    @pytest.mark.parametrize("shards", [1, 4])
    def test_counters_equal_the_unfolded_walk(self, small_corpus,
                                              shards) -> None:
        index = NestedSetIndex.build(small_corpus, shards=shards)
        queries = [tree for _key, tree in small_corpus[:15]] * 3
        random.Random(7).shuffle(queries)
        index.reset_stats()
        index.query_batch(queries, algorithm="bottomup")
        folded = index.counters.snapshot()
        plans = [compile_query(query, algorithm="bottomup")
                 for query in queries]
        with index.snapshot() as snap:
            contexts = [view.execution_context(memo={})
                        for view in snap.views]
            for ctx in contexts:
                for plan in plans:
                    plan.run(ctx)
        assert folded == ExecCounters.merged(
            [ctx.counters for ctx in contexts]).snapshot()
        assert folded["queries"] == len(queries) * shards

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("algorithm", ["topdown", "bottomup", None])
    def test_unshared_batch_evaluates_every_copy(self, small_corpus,
                                                 shards,
                                                 algorithm) -> None:
        index = NestedSetIndex.build(small_corpus, shards=shards)
        query = small_corpus[2][1]
        requests = {}
        for share in (True, False):
            for copies in (1, 3):
                index.reset_stats()
                index.query_batch([query] * copies, algorithm=algorithm,
                                  share_subqueries=share)
                requests[share, copies] = \
                    index.stats()["index"]["postings_requests"]
                assert index.counters.queries == copies * shards
        assert requests[False, 3] == 3 * requests[False, 1] > 0
        assert requests[True, 3] == requests[True, 1] > 0

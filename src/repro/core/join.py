"""The full containment join ``Q ⋈ S`` of Equation 1, as an executor.

The paper frames the headline operation as a join between two large
collections and then "treats Q as a set of queries over which we
iterate" (Section 2).  This module packages that iteration with the
execution strategies the library provides, so a whole join runs through
one call with one strategy knob:

* ``per-query`` -- the paper's loop: each query evaluated independently
  by the chosen algorithm (unset: the compiler's pick per join, as for
  a single query);
* ``batched``   -- bottom-up with cross-query subquery memoization
  (pays off when Q's members share structure, e.g. Q sampled from S);
* ``naive``     -- the nested-loop baseline, optionally Bloom-prefiltered;
* ``prefix``    -- the PRETTI-style join operator
  (:mod:`repro.core.prefixjoin`): one prefix tree over Q's atom sets,
  each distinct trie node's posting-list intersection evaluated once
  and shared by every query containing that prefix;
* ``adaptive``  -- dispatch between ``per-query`` and ``prefix`` from
  live collection statistics (workload size and df-weighted sharing
  ratio); the decision and its evidence land in ``extra["dispatch"]``.

The compiled strategies run their plans on one execution context per
partition of the index; the prefix strategy runs the workload through
one candidate provider per partition.  Either way the join observes a
single pinned version of the index
(:meth:`NestedSetIndex.run_plans <repro.core.engine.NestedSetIndex.run_plans>`
/ ``run_shared``), and the merged context counters feed the
:class:`JoinResult` statistics.  Results are ``(q_key, s_key)`` pairs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from .batch import QueryFold
from .engine import NestedSetIndex
from .exec.compiler import compile_query
from .matchspec import QuerySpec
from .model import NestedSet, as_nested_set
from .prefixjoin import choose_strategy, prefix_join_lists

STRATEGIES = ("per-query", "batched", "naive", "prefix", "adaptive")


@dataclass
class JoinResult:
    """Pairs plus execution statistics."""

    pairs: list[tuple[str, str]]
    strategy: str
    n_queries: int
    elapsed_seconds: float
    extra: dict[str, object] = field(default_factory=dict)
    #: Every query key of the join, in query order (so :meth:`grouped`
    #: can report queries with zero matches).
    query_keys: list[str] = field(default_factory=list)

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    def grouped(self) -> dict[str, list[str]]:
        """Pairs regrouped as query key -> matching record keys.

        Every key of the join appears, including queries with zero
        matches (empty list); results built by hand without
        ``query_keys`` degrade to grouping the pairs alone.
        """
        out: dict[str, list[str]] = {qkey: [] for qkey in self.query_keys}
        for qkey, skey in self.pairs:
            out.setdefault(qkey, []).append(skey)
        return out

    def describe(self) -> str:
        """One line per statistic: the join-level EXPLAIN summary."""
        lines = [f"strategy: {self.strategy}",
                 f"queries:  {self.n_queries}",
                 f"pairs:    {self.n_pairs}",
                 f"elapsed:  {self.elapsed_seconds * 1000:.1f} ms"]
        for key, value in self.extra.items():
            if isinstance(value, dict):
                detail = ", ".join(f"{k}={v}" for k, v in value.items())
                lines.append(f"{key}: {detail}")
            else:
                lines.append(f"{key}: {value}")
        return "\n".join(lines)


def containment_join(index: NestedSetIndex,
                     queries: Iterable[tuple[str, object]], *,
                     strategy: str = "per-query",
                     algorithm: str | None = None,
                     spec: QuerySpec = QuerySpec(),
                     use_bloom: bool = False) -> JoinResult:
    """Evaluate ``Q ⋈ S`` over an indexed collection ``S``.

    ``queries`` supplies Q as ``(key, nested set)`` pairs; pairs are
    returned in query order, record keys sorted within each query.
    ``use_bloom`` applies to the naive algorithm only (as everywhere
    else in the library); requesting it for a strategy that cannot
    honor it raises :class:`ValueError` rather than silently running
    without the prefilter.

    The sharing strategies (``batched``, ``prefix``, and ``adaptive``
    when it picks the prefix tree) fold repeated queries first
    (:class:`~repro.core.batch.QueryFold`): each distinct query is
    compiled, evaluated and mapped to keys once per partition, the
    counters read as if every copy had hit the whole-query memo, and
    each copy's pairs are read off its distinct query's answer.
    ``adaptive`` folds once, for its dispatcher and the prefix tree
    alike.  ``per-query`` and ``naive`` evaluate every query, repeats
    included.
    """
    start = time.perf_counter()
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; "
                         f"expected one of {STRATEGIES}")
    materialized = [(qkey, as_nested_set(value))
                    for qkey, value in queries]
    query_keys = [qkey for qkey, _query in materialized]
    trees = [query for _qkey, query in materialized]
    # Folded once: ``adaptive`` dispatches on the fold and hands it to
    # the prefix tree when it picks that.
    fold = QueryFold(trees) \
        if strategy in ("batched", "prefix", "adaptive") else None
    dispatch: dict[str, object] | None = None
    effective = strategy
    if strategy == "adaptive":
        effective, dispatch = choose_strategy(fold,
                                              index.collection_stats())
    # Each strategy runs against one pinned version, so every pair
    # reflects the same committed state while writers land
    # concurrently.  compile_query rejects use_bloom for non-naive
    # algorithms (PlanError is a ValueError): the option is never
    # silently dropped.
    extra: dict[str, object] = {}
    if effective == "prefix":
        if use_bloom:
            raise ValueError(
                "Bloom prefiltering applies to the naive algorithm only; "
                "the prefix strategy cannot honor use_bloom=True")
        results, counters = index.run_shared(
            fold, lambda ctx: prefix_join_lists(fold.distinct, ctx, spec))
        extra.update(prefix_nodes=counters.prefix_nodes,
                     prefix_streams=counters.prefix_streams,
                     prefix_reused=counters.prefix_reused)
    elif effective == "batched":
        plans = [compile_query(query, spec, algorithm="bottomup",
                               use_bloom=use_bloom)
                 for query in fold.distinct]
        results, counters = index.run_shared(
            fold, lambda ctx: [plan.run(ctx) for plan in plans])
    else:
        plan_algorithm = "naive" if effective == "naive" else algorithm
        plans = [compile_query(query, spec, algorithm=plan_algorithm,
                               use_bloom=use_bloom)
                 for query in trees]
        results, counters = index.run_plans(plans)
    if effective in ("prefix", "batched"):
        extra["subqueries_evaluated"] = counters.subqueries_evaluated
        extra["subqueries_reused"] = counters.subqueries_reused
    elif effective == "naive":
        extra["records_tested"] = counters.records_tested
        extra["records_skipped"] = counters.records_skipped
    if dispatch is not None:
        extra["dispatch"] = dispatch
    if effective in ("prefix", "batched"):
        # One answer per distinct query: each input reads its slot's.
        pairs = [(qkey, skey)
                 for qkey, slot in zip(query_keys, fold.slots)
                 for skey in results[slot]]
    else:
        pairs = [(qkey, skey)
                 for qkey, result in zip(query_keys, results)
                 for skey in result]
    return JoinResult(pairs=pairs, strategy=strategy,
                      n_queries=len(trees),
                      elapsed_seconds=time.perf_counter() - start,
                      extra=extra, query_keys=query_keys)


def self_join(index: NestedSetIndex, *,
              strategy: str = "batched",
              algorithm: str | None = None,
              spec: QuerySpec = QuerySpec(),
              use_bloom: bool = False) -> JoinResult:
    """``S ⋈ S``: every record queried against the collection.

    Under subset semantics every record matches at least itself, so the
    result size is at least |S|; the batched and prefix strategies shine
    here because Q literally *is* S (total structural sharing).  All of
    :func:`containment_join`'s knobs thread through.
    """
    queries = [(key, tree) for key, tree in _iter_records(index)]
    return containment_join(index, queries, strategy=strategy,
                            algorithm=algorithm, spec=spec,
                            use_bloom=use_bloom)


def _iter_records(index: NestedSetIndex
                  ) -> Iterable[tuple[str, NestedSet]]:
    yield from index.records()

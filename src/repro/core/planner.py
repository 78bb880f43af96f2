"""Selectivity-driven evaluation ordering for the top-down algorithm.

The top-down algorithm's advantage is pruning: after each child subquery
returns, parents without an edge into its match set are dropped, so
*later* siblings see smaller frontiers.  That makes sibling order matter
-- evaluating the most selective subquery first shrinks the surviving
candidates fastest.  The paper leaves evaluation-order optimization open
(future work items 1 and 5); this module supplies the standard
rarest-first heuristic over the collection statistics the index already
maintains.

Strategies:

* ``selective-first`` -- ascending estimated match count (the heuristic),
* ``bulky-first``     -- descending (the adversarial ablation),
* ``text``            -- canonical text order (the deterministic default
  used when no planner is installed).

The execution pipeline consumes planners at the match stage: when a
compiled plan carries ``MatchStage.planner``, the plan instantiates the
strategy from the context's collection statistics and hands its
``as_child_order()`` hook to the strict top-down matcher (see
:mod:`repro.core.exec.plan`).  Ordering never changes results -- only
how fast the frontier shrinks -- a property pinned by the planner-order
invariance tests.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .matchspec import QuerySpec
from .model import NestedSet
from .stats import CollectionStats

STRATEGIES = ("selective-first", "bulky-first", "text")

#: Signature of the ordering hook accepted by the top-down algorithm.
ChildOrder = Callable[[Sequence[NestedSet], QuerySpec], "list[NestedSet]"]


class Planner:
    """Orders sibling subqueries by estimated selectivity."""

    def __init__(self, stats: CollectionStats,
                 strategy: str = "selective-first") -> None:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; "
                             f"expected one of {STRATEGIES}")
        self.stats = stats
        self.strategy = strategy

    def estimate_subtree_matches(self, node: NestedSet,
                                 spec: QuerySpec = QuerySpec()) -> float:
        """Upper bound on where a subquery can embed: its tightest node.

        Every node of the subtree must embed somewhere, so the subtree
        match count is bounded by the scarcest node's candidate count.
        """
        return min(self.stats.estimate_candidates(sub, spec)
                   for sub in node.iter_sets())

    def estimate_subtree_blocks(self, node: NestedSet,
                                spec: QuerySpec = QuerySpec()) -> float:
        """Expected block decodes to evaluate the whole subtree.

        Additive over nodes (each node runs one intersection); zero when
        the statistics carry no block size, where the tie-break
        degenerates to text order.
        """
        return sum(self.stats.estimate_blocks(sub, spec)
                   for sub in node.iter_sets())

    def order_children(self, children: Sequence[NestedSet],
                       spec: QuerySpec = QuerySpec()) -> list[NestedSet]:
        """The hook handed to :func:`repro.core.topdown.topdown_match_nodes`.

        Primary key: estimated match count (selectivity -- how fast the
        frontier shrinks).  Secondary key: estimated block decodes, so
        among equally selective siblings the one that touches less of
        the blocked posting storage runs first (it may empty the
        frontier before the expensive sibling is needed at all).
        """
        if self.strategy == "text":
            return sorted(children, key=lambda c: c.to_text())
        ranked = sorted(
            children,
            key=lambda c: (self.estimate_subtree_matches(c, spec),
                           self.estimate_subtree_blocks(c, spec),
                           c.to_text()))
        if self.strategy == "bulky-first":
            ranked.reverse()
        return ranked

    def as_child_order(self) -> ChildOrder:
        """Bind :meth:`order_children` as a plain callable."""
        return self.order_children


def make_planner(strategy: str | None, stats: CollectionStats
                 ) -> Planner | None:
    """Factory: ``None`` means "no planner" (canonical text order)."""
    if strategy is None:
        return None
    return Planner(stats, strategy)

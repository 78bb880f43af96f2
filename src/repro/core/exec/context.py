"""Execution state threaded through every stage of a compiled plan.

:class:`ExecutionContext` bundles what a plan needs at run time -- the
inverted file, the optional Bloom prefilters, an optional cross-query
subquery memo, a trace observer, and per-context counters.  One context
per index serves single queries; batches and joins share one context so
the memo and counters accumulate across the workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..observe import PlanObserver

if TYPE_CHECKING:  # typing only: keep the runtime import graph acyclic
    from ..bloom import BloomIndex
    from ..invfile import InvertedFile
    from ..model import NestedSet


@dataclass
class ExecCounters:
    """Per-context execution counters (reset by creating a new context)."""

    queries: int = 0
    subqueries_evaluated: int = 0
    subqueries_reused: int = 0
    records_tested: int = 0
    records_skipped: int = 0
    #: Prefix-tree join instrumentation (repro.core.prefixjoin): trie
    #: nodes built, posting lists actually streamed/intersected, and
    #: candidate requests served from an already-evaluated node.
    prefix_nodes: int = 0
    prefix_streams: int = 0
    prefix_reused: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "queries": self.queries,
            "subqueries_evaluated": self.subqueries_evaluated,
            "subqueries_reused": self.subqueries_reused,
            "records_tested": self.records_tested,
            "records_skipped": self.records_skipped,
            "prefix_nodes": self.prefix_nodes,
            "prefix_streams": self.prefix_streams,
            "prefix_reused": self.prefix_reused,
        }

    def merge(self, other: "ExecCounters") -> None:
        """Accumulate another context's counters into this one.

        The sharded executor runs one context per shard and merges them
        afterwards, so workload-level statistics look the same whether an
        index is monolithic or sharded.
        """
        self.queries += other.queries
        self.subqueries_evaluated += other.subqueries_evaluated
        self.subqueries_reused += other.subqueries_reused
        self.records_tested += other.records_tested
        self.records_skipped += other.records_skipped
        self.prefix_nodes += other.prefix_nodes
        self.prefix_streams += other.prefix_streams
        self.prefix_reused += other.prefix_reused

    @classmethod
    def merged(cls, counters: "list[ExecCounters] | tuple[ExecCounters, ...]"
               ) -> "ExecCounters":
        """Sum of several per-shard counter sets (order-independent)."""
        total = cls()
        for part in counters:
            total.merge(part)
        return total


@dataclass
class ExecutionContext:
    """Everything a compiled plan touches while running."""

    ifile: "InvertedFile"
    bloom_index: "BloomIndex | None" = None
    #: Cross-query subquery memo: a shared dict lets memoizable plans
    #: run the memo walk (:func:`repro.core.batch.memoized_match_ids`);
    #: ``None`` disables it.
    memo: "dict[NestedSet, frozenset[int]] | None" = None
    observer: PlanObserver | None = None
    counters: ExecCounters = field(default_factory=ExecCounters)

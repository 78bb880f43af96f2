"""Observation of a running plan: the hooks, and EXPLAIN built on them.

Every algorithm threads an optional observer through its per-node
evaluation: ``enter_node`` when a query node's evaluation begins,
``record_candidates`` once its candidate list is known, ``exit_node``
with the surviving match count.  The default :data:`NULL_OBSERVER` makes
the hooks free when nobody is listening.  This module sits *below* the
algorithm modules (they import it), so it imports nothing of the
execution layer at module level.

:class:`TraceSink` is the one listener: it assembles a
:class:`NodeTrace` tree while *the algorithm itself* runs
(:func:`run_explained`), recording per query node the inverted lists
touched, the candidate count before and after restriction, and elapsed
time -- the information needed to see *why* a query is slow (hot atoms,
unselective inner sets) and how the pruning cascade behaves.  Because
the trace observes the real execution rather than re-implementing it,
it exists for all four algorithms and cannot diverge from the
uninstrumented result.  Rendered, a trace looks like::

    node {USA, ...}  atoms=[USA]  candidates=812 -> survivors=17  1.24ms
      node {UK, ...}  atoms=[UK]  candidates≤64 (frontier 41) -> ...

(``≤``: the parents' frontier drove the child's intersection, so its
unrestricted candidates were never built; the rarest atom's live list
length bounds them and the frontier count is exact.)

This is diagnostics machinery on top of the paper's algorithms, in the
spirit of EXPLAIN in relational engines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .matchspec import QuerySpec

if TYPE_CHECKING:
    from .exec.context import ExecutionContext
    from .exec.plan import ExecutionPlan
    from .invfile import InvertedFile
    from .model import NestedSet

__all__ = ["ExplainResult", "MergedExplainResult", "NULL_OBSERVER",
           "NodeTrace", "PlanObserver", "TraceSink", "explain",
           "merge_explains", "run_explained"]


class PlanObserver:
    """No-op base: subclass and override what you want to see."""

    __slots__ = ()

    def enter_node(self, qnode) -> None:
        """A query node's evaluation begins (pre-order)."""

    def record_candidates(self, candidates: int | None,
                          restricted: int | None = None) -> None:
        """The current node's candidate count (and, for algorithms that
        restrict candidates to a parent frontier, the restricted count).
        ``candidates`` is None where the frontier drove the intersection:
        the unrestricted list was never built, so it has no count."""

    def exit_node(self, survivors: int) -> None:
        """The current node's evaluation ends with ``survivors`` matches."""


#: Shared do-nothing observer (algorithms default to this).
NULL_OBSERVER = PlanObserver()


@dataclass
class NodeTrace:
    """Evaluation record of one query node."""

    label: str                 # abbreviated node text
    atoms: list[str]
    list_lengths: dict[str, int]
    candidates: int            # after leaf filtering / candidate generation
    restricted: int | None     # after frontier restriction (None at root)
    survivors: int             # after the structural child conditions
    elapsed_ms: float
    children: list["NodeTrace"] = field(default_factory=list)
    #: The frontier drove the intersection, so the unrestricted list was
    #: never built: ``candidates`` is an upper bound on its length (the
    #: rarest atom's live list length) and ``restricted`` the exact count.
    bounded: bool = False

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        parts = [f"{pad}node {self.label}  atoms={self.atoms}"]
        if self.restricted is not None:
            parts.append(f"candidates{'≤' if self.bounded else '='}"
                         f"{self.candidates} (frontier {self.restricted})")
        else:
            parts.append(f"candidates={self.candidates}")
        parts.append(f"-> survivors={self.survivors}")
        parts.append(f"{self.elapsed_ms:.3f}ms")
        lines = ["  ".join(parts)]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


def _render_header(result, shards: int = 1) -> str:
    algorithm = result.algorithm
    if result.picked:
        algorithm += ", the compiler's pick"
    if shards > 1:
        algorithm += f" x {shards} shards"
    header = (f"matches={len(result.matches)}  "
              f"total={result.total_ms:.3f}ms"
              f"  lists={result.lists_fetched}  [{algorithm}]"
              f"\nlist_fetches={result.list_fetches}  "
              f"directory_hits={result.directory_hits}")
    if result.blocks_read or result.blocks_skipped:
        header += (f"\nblocks_read={result.blocks_read}  "
                   f"blocks_skipped={result.blocks_skipped}  "
                   f"bytes_decoded={result.bytes_decoded}")
    return header


@dataclass
class ExplainResult:
    """Top-level trace plus the query outcome.

    ``list_fetches`` / ``directory_hits`` say how the lists were
    reached: store gets of a cold key's value versus warm lists (or
    absent markers) the block cache keeps under their keys, with no
    store access (the trace's own per-atom length lookups included).  ``blocks_read`` /
    ``blocks_skipped`` / ``bytes_decoded`` account for
    the block-compressed posting format: blocks whose payload was
    actually decoded during this query versus blocks the galloping
    intersection jumped over via skip headers.
    """

    root: NodeTrace
    matches: list[str]
    total_ms: float
    lists_fetched: int
    algorithm: str = "topdown"
    #: The query named no algorithm; the compiler picked this one.
    picked: bool = False
    list_fetches: int = 0
    directory_hits: int = 0
    blocks_read: int = 0
    blocks_skipped: int = 0
    bytes_decoded: int = 0

    def render(self) -> str:
        return f"{_render_header(self)}\n{self.root.render()}"


@dataclass
class MergedExplainResult:
    """Per-partition traces plus the merged outcome of one EXPLAIN.

    ``matches`` is the cross-partition union (partitions are disjoint,
    so concatenation plus one sort is exact); ``total_ms`` is the wall
    clock of the whole fan-out, while each per-partition
    :class:`ExplainResult` keeps its own timing.
    """

    shards: list[ExplainResult]
    matches: list[str]
    total_ms: float
    algorithm: str
    picked: bool = False

    def _sum(self, name: str) -> int:
        return sum(getattr(result, name) for result in self.shards)

    @property
    def lists_fetched(self) -> int:
        return self._sum("lists_fetched")

    @property
    def list_fetches(self) -> int:
        return self._sum("list_fetches")

    @property
    def directory_hits(self) -> int:
        return self._sum("directory_hits")

    @property
    def blocks_read(self) -> int:
        return self._sum("blocks_read")

    @property
    def blocks_skipped(self) -> int:
        return self._sum("blocks_skipped")

    @property
    def bytes_decoded(self) -> int:
        return self._sum("bytes_decoded")

    def render(self) -> str:
        sections = [_render_header(self, len(self.shards))]
        for shard_no, result in enumerate(self.shards):
            sections.append(f"-- shard {shard_no} --")
            sections.append(result.render())
        return "\n".join(sections)


def merge_explains(results: "list[ExplainResult]", total_ms: float
                   ) -> "ExplainResult | MergedExplainResult":
    """Combine one EXPLAIN per partition; a single one is the answer."""
    if not results:
        raise ValueError("merge_explains() needs at least one result")
    if len(results) == 1:
        return results[0]
    matches = sorted(key for result in results for key in result.matches)
    return MergedExplainResult(shards=list(results), matches=matches,
                               total_ms=total_ms,
                               algorithm=results[0].algorithm,
                               picked=results[0].picked)


def _label(node: "NestedSet", limit: int = 40) -> str:
    text = node.to_text()
    return text if len(text) <= limit else text[:limit - 3] + "..."


class TraceSink(PlanObserver):
    """Builds the NodeTrace tree from the algorithm's observer calls."""

    __slots__ = ("_ifile", "_stack", "root", "lists_fetched")

    def __init__(self, ifile: "InvertedFile") -> None:
        self._ifile = ifile
        self._stack: list[tuple[NodeTrace, float]] = []
        self.root: NodeTrace | None = None
        self.lists_fetched = 0

    def enter_node(self, qnode: "NestedSet") -> None:
        lengths = {}
        # What bounds the node's candidates when nobody counts them: the
        # rarest atom's live list length (every node, without atoms).
        bound = self._ifile.n_nodes
        dead = self._ifile.dead_counts
        for atom in qnode.atoms:
            length = lengths[str(atom)] = self._ifile.list_length(atom)
            bound = min(bound, max(0, length - dead.get(atom, 0)))
            self.lists_fetched += 1
        trace = NodeTrace(label=_label(qnode),
                          atoms=sorted(str(atom) for atom in qnode.atoms),
                          list_lengths=lengths, candidates=bound,
                          restricted=None, survivors=0, elapsed_ms=0.0)
        if self._stack:
            self._stack[-1][0].children.append(trace)
        else:
            self.root = trace
        self._stack.append((trace, time.perf_counter()))

    def record_candidates(self, candidates: int | None,
                          restricted: int | None = None) -> None:
        trace = self._stack[-1][0]
        if candidates is None:
            trace.bounded = True    # keeps the bound enter_node computed
        else:
            trace.candidates = candidates
        trace.restricted = restricted

    def exit_node(self, survivors: int) -> None:
        trace, started = self._stack.pop()
        trace.survivors = survivors
        trace.elapsed_ms = (time.perf_counter() - started) * 1000


#: The index counters an EXPLAIN reports as this query's share.
_DELTAS = ("list_fetches", "directory_hits", "blocks_read",
           "blocks_skipped", "bytes_decoded")


def run_explained(plan: "ExecutionPlan",
                  ctx: "ExecutionContext") -> ExplainResult:
    """Run ``plan`` with a trace sink attached; return trace + matches."""
    sink = TraceSink(ctx.ifile)
    ctx.observer = sink
    stats = ctx.ifile.stats
    before = {name: getattr(stats, name) for name in _DELTAS}
    start = time.perf_counter()
    matches = plan.run(ctx)
    total_ms = (time.perf_counter() - start) * 1000
    assert sink.root is not None, "no node was traced"
    spent = {name: getattr(stats, name) - before[name]
             for name in _DELTAS}
    return ExplainResult(root=sink.root, matches=matches, total_ms=total_ms,
                         lists_fetched=sink.lists_fetched,
                         algorithm=plan.algorithm,
                         picked=plan.match.picked, **spent)


def explain(query: object, ifile: "InvertedFile",
            spec: QuerySpec = QuerySpec(), *,
            algorithm: str | None = None,
            bloom_index: object | None = None,
            use_bloom: bool = False) -> ExplainResult:
    """Evaluate over a bare inverted file with full instrumentation.

    Works for every algorithm; unset, the compiler picks as for any
    query.  ``NestedSetIndex.explain`` does the same with the index's
    own Bloom filters and statistics.
    """
    # The compiler imports the algorithm modules, which import this one.
    from .exec.compiler import compile_query
    from .exec.context import ExecutionContext
    plan = compile_query(query, spec, algorithm=algorithm,
                         use_bloom=use_bloom)
    return run_explained(plan, ExecutionContext(ifile=ifile,
                                                bloom_index=bloom_index))

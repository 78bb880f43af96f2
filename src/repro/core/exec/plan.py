"""The execution plan: explicit stages shared by every algorithm.

A compiled query is a small dataclass pipeline::

    prefilter stage  -> candidate stage -> match strategy -> materialize

* **prefilter** -- whole-query shortcuts that run before any index work:
  (naive only) the Bloom record prefilter;
* **candidates** -- how per-node candidate lists are produced (inverted
  file vs. full record scan), per join type;
* **match** -- which structural matching strategy consumes the
  candidates (bottom-up, strict/paper-literal top-down, naive check),
  and whether a shared-subquery memo may serve it;
* **materialize** -- node ids to sorted record keys, per match mode.

:meth:`ExecutionPlan.run` executes the stages against an
:class:`~repro.core.exec.context.ExecutionContext`; every algorithm, the
engine facade, batches, joins, and EXPLAIN all go through this one path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..batch import memoized_match_ids
from ..bottomup import bottomup_match_ids
from ..matchspec import QuerySpec
from ..model import NestedSet
from ..naive import NaiveScanner
from ..postings import MatchIds, id_set
from ..topdown import topdown_match_nodes, topdown_paper_match_nodes

if TYPE_CHECKING:
    from .context import ExecutionContext


class PlanError(ValueError):
    """Raised for invalid query option combinations at compile time."""


@dataclass(frozen=True)
class PrefilterStage:
    """Whole-query shortcuts applied before the index is touched."""

    #: Consult the Bloom record prefilters before scanning (naive only).
    bloom: bool = False


@dataclass(frozen=True)
class CandidateStage:
    """How per-node candidate lists are generated."""

    source: str                # "inverted-file" | "record-scan"
    join: str


@dataclass(frozen=True)
class MatchStage:
    """Which structural match strategy consumes the candidates."""

    strategy: str              # bottomup | topdown | topdown-paper | naive
    #: The strategy may be served from a context-shared subquery memo.
    memoizable: bool = False
    #: The query named no algorithm: the compiler picked the strategy.
    picked: bool = False


@dataclass(frozen=True)
class MaterializeStage:
    """Node-level matches to sorted record keys."""

    mode: str                  # "root" | "anywhere"


@dataclass(frozen=True)
class ExecutionPlan:
    """A compiled query: the four stages plus the inputs they close over."""

    query: NestedSet
    spec: QuerySpec
    prefilter: PrefilterStage
    candidates: CandidateStage
    match: MatchStage
    materialize: MaterializeStage

    @property
    def algorithm(self) -> str:
        return self.match.strategy

    # -- execution ---------------------------------------------------------

    def run(self, ctx: "ExecutionContext") -> list[str]:
        """Execute all stages; returns sorted matching record keys."""
        ctx.counters.queries += 1
        if self.match.strategy == "naive":
            return self._run_scan(ctx)
        return ctx.ifile.heads_to_keys(self._match_ids(ctx),
                                       mode=self.materialize.mode)

    def match_nodes(self, ctx: "ExecutionContext") -> set[int]:
        """Candidate + match stages only: node ids where the query embeds."""
        return set(id_set(self._match_ids(ctx)))

    def _match_ids(self, ctx: "ExecutionContext") -> MatchIds:
        """:meth:`match_nodes` with the match set in the form the
        strategy produced it in (result mapping takes either)."""
        if self.match.strategy == "naive":
            raise PlanError("the naive algorithm checks whole records and "
                            "has no node-level match set")
        if self.match.memoizable and ctx.memo is not None:
            return memoized_match_ids(
                self.query, ctx.ifile, self.spec, ctx.memo,
                counters=ctx.counters)
        if self.match.strategy == "topdown":
            return topdown_match_nodes(self.query, ctx.ifile, self.spec,
                                       observer=ctx.observer)
        if self.match.strategy == "topdown-paper":
            return topdown_paper_match_nodes(self.query, ctx.ifile,
                                             self.spec,
                                             observer=ctx.observer)
        return bottomup_match_ids(self.query, ctx.ifile, self.spec,
                                  observer=ctx.observer)

    def _run_scan(self, ctx: "ExecutionContext") -> list[str]:
        bloom = ctx.bloom_index if self.prefilter.bloom else None
        scanner = NaiveScanner(ctx.ifile, bloom_index=bloom)
        result = scanner.query(self.query, self.spec,
                               observer=ctx.observer)
        ctx.counters.records_tested += scanner.records_tested
        ctx.counters.records_skipped += scanner.records_skipped
        return result

    # -- introspection -----------------------------------------------------

    def describe(self) -> str:
        """Human-readable stage listing (the plan half of EXPLAIN)."""
        spec = self.spec
        prefilter = "bloom" if self.prefilter.bloom else "none"
        match = self.match.strategy
        if self.match.picked:
            match += " (the compiler's pick)"
        if self.match.memoizable:
            match += " [memo-ready]"
        return "\n".join([
            f"plan {spec.semantics}/{spec.join}/{spec.mode} "
            f"query={self.query!r}",
            f"  prefilter:   {prefilter}",
            f"  candidates:  {self.candidates.join} via "
            f"{self.candidates.source}",
            f"  match:       {match}",
            f"  materialize: keys at mode={self.materialize.mode}",
        ])

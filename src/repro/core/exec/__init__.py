"""Query-compilation layer: explicit plans shared by all algorithms.

``compile_query(tree, spec, options) -> ExecutionPlan`` validates every
option combination in one place and builds a dataclass pipeline
(prefilter -> candidates -> match -> materialize);
``ExecutionPlan.run(ExecutionContext)`` executes it.  The context
threads the inverted file, caches, per-query counters, and an optional
trace observer through every stage, so batching, joins, and EXPLAIN are
all the same machinery with different contexts attached.
"""

from .compiler import ALGORITHMS, compile_query
from .context import ExecCounters, ExecutionContext
from ..observe import ExplainResult, NodeTrace, TraceSink, run_explained
from .plan import (
    CandidateStage,
    ExecutionPlan,
    MatchStage,
    MaterializeStage,
    PlanError,
    PrefilterStage,
)

__all__ = [
    "ALGORITHMS",
    "CandidateStage",
    "ExecCounters",
    "ExecutionContext",
    "ExecutionPlan",
    "ExplainResult",
    "MatchStage",
    "MaterializeStage",
    "NodeTrace",
    "PlanError",
    "PrefilterStage",
    "TraceSink",
    "compile_query",
    "run_explained",
]

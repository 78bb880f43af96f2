"""Query compilation: options in, validated execution plan out.

:func:`compile_query` is the single place where query options are
validated and turned into an explicit :class:`ExecutionPlan`.  Every
entry point -- ``NestedSetIndex.query``, ``query_batch``,
``containment_join``, the CLI, and ``explain`` -- compiles here, so the
option interaction rules (Bloom is naive-only, the paper-literal
variant's spec limits) live in one place with uniform error messages.
"""

from __future__ import annotations

from ..candidates import INTERSECTION_JOINS
from ..matchspec import QuerySpec, validate_paper_variant
from ..model import as_nested_set
from .plan import (
    CandidateStage,
    ExecutionPlan,
    MatchStage,
    MaterializeStage,
    PlanError,
    PrefilterStage,
)

#: Algorithm names accepted by the compiler (and the engine facade).
ALGORITHMS = ("bottomup", "topdown", "topdown-paper", "naive")


def pick_algorithm(spec: QuerySpec) -> str:
    """The algorithm for a query that names none.

    Strict top-down for the joins whose candidates are an intersection
    (``subset``, ``equality``): the surviving parents' frontier drives
    every child's intersection, which measured ahead of bottom-up on
    every collection tried (EXPERIMENTS.md, "Top-down by default").
    Bottom-up for ``superset`` and ``overlap``, whose multiset-union
    candidates no frontier can drive: top-down builds the same unions
    and then restricts them, 7-100 % slower.
    """
    if spec.join in INTERSECTION_JOINS:
        return "topdown"
    return "bottomup"


def compile_query(query: object, spec: QuerySpec = QuerySpec(), *,
                  algorithm: str | None = None,
                  use_bloom: bool = False) -> ExecutionPlan:
    """Validate options and build the execution plan for one query.

    ``algorithm`` left unset is resolved by :func:`pick_algorithm`; the
    plan names the pick (``plan.algorithm``) and remembers that it was
    the compiler's (``plan.match.picked``).
    """
    tree = as_nested_set(query)
    picked = algorithm is None
    if picked:
        algorithm = pick_algorithm(spec)
    if algorithm not in ALGORITHMS:
        raise PlanError(f"unknown algorithm {algorithm!r}; "
                        f"expected one of {ALGORITHMS}")
    if use_bloom and algorithm != "naive":
        raise PlanError("Bloom prefiltering applies to the naive "
                        "algorithm only")
    if algorithm == "topdown-paper":
        validate_paper_variant(spec)
    return ExecutionPlan(
        query=tree,
        spec=spec,
        prefilter=PrefilterStage(bloom=use_bloom),
        candidates=CandidateStage(
            source="record-scan" if algorithm == "naive"
            else "inverted-file",
            join=spec.join),
        match=MatchStage(strategy=algorithm,
                         memoizable=(algorithm == "bottomup"),
                         picked=picked),
        materialize=MaterializeStage(mode=spec.mode),
    )

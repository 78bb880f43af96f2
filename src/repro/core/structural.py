"""Structural match conditions shared by the two algorithms.

Given the candidate postings for a query node and the already-computed
match sets of its internal children, decide which candidates actually cover
the node.  This is the ``H(·)`` operator of the bottom-up algorithm
(Algorithm 4 line 12) generalized over the paper's extension matrix:

===========  =====================================================
semantics    edge condition between a candidate and a child match
===========  =====================================================
``hom``      some *child* of the candidate lies in every child set
``homeo``    some *descendant* (preorder interval test, Section 4.2)
``iso``      an *injective* assignment children -> candidate children
===========  =====================================================

===========  =====================================================
join         additional condition (Section 4.1)
===========  =====================================================
``subset``   none
``overlap``  none (the leaf relaxation lives in candidate generation)
``equality`` candidate child count equals query child count
``superset`` every candidate child is covered by *some* query child
===========  =====================================================
"""

from __future__ import annotations

from typing import Callable, Sequence

from .candidates import node_candidates
from .invfile import InvertedFile
from .matchspec import QuerySpec
from .model import NestedSet
from .observe import NULL_OBSERVER, PlanObserver
from .postings import (
    MatchIds,
    PostingList,
    _has_in_interval,
    child_ids,
    heads_with_child_in,
    heads_with_descendant_in,
    id_set,
    match_ids,
    with_child_count,
    with_children_within,
    with_head_in,
)


def evaluate_node(qnode, child_sets: Sequence[MatchIds],
                  ifile: InvertedFile, spec: QuerySpec,
                  observer: PlanObserver = NULL_OBSERVER, *,
                  candidates: Callable[[NestedSet], PostingList]
                  | None = None) -> MatchIds:
    """One query node of the shared pipeline: candidates, then filter.

    This is the ``H(·)`` evaluation step used verbatim by the bottom-up
    algorithm and the memo walk (:func:`repro.core.batch
    .memoized_match_ids`): generate the node's candidates -- from the
    inverted lists, or from ``candidates`` when the caller shares them
    across a workload -- and keep those covering every child match set.
    An unsatisfiable child short-circuits without touching the index
    (harmless -- and therefore skipped -- under the superset join, where
    data children only need to be covered by *some* query child).
    """
    if spec.join != "superset" and any(len(hits) == 0 for hits in child_sets):
        observer.record_candidates(0)
        return set()
    cand = node_candidates(qnode, ifile, spec) if candidates is None \
        else candidates(qnode)
    observer.record_candidates(len(cand))
    return match_ids(filter_candidates(cand, child_sets, ifile, spec))


def filter_candidates(cand: PostingList, child_sets: Sequence[MatchIds],
                      ifile: InvertedFile, spec: QuerySpec) -> PostingList:
    """Keep the candidates that structurally cover the query node.

    ``child_sets`` holds, for each internal child of the query node, the
    match set of data node ids at which that child's subtree embeds.
    The child-axis conditions (every join under ``hom``) run on columns
    for long candidate lists; ``homeo`` needs each candidate's subtree
    interval and ``iso`` a bipartite matching per candidate, so those
    two read rows.
    """
    if spec.join == "superset":
        return with_children_within(cand, child_sets)
    if spec.join == "equality":
        # Children of distinct query subtrees have disjoint equality-match
        # sets, so "every child set hit + equal counts" forces a bijection.
        return heads_with_child_in(with_child_count(cand, len(child_sets)),
                                   child_sets)
    # subset / overlap
    if not child_sets:
        return cand
    if spec.semantics == "hom":
        return heads_with_child_in(cand, child_sets)
    if spec.semantics == "homeo":
        sorted_sets = [sorted(id_set(hits)) for hits in child_sets]
        return heads_with_descendant_in(cand, sorted_sets, ifile.max_desc)
    if spec.semantics == "iso":
        child_sets = [id_set(hits) for hits in child_sets]
        return PostingList([(p, children) for p, children in cand
                            if injective_cover(child_sets, children)])
    raise ValueError(f"unknown semantics {spec.semantics!r}")


def injective_cover(child_sets: Sequence[set[int]],
                    children: Sequence[int]) -> bool:
    """Bipartite matching: can every query child claim a *distinct*
    candidate child lying in its match set?  (Isomorphic semantics.)"""
    match_right: dict[int, int] = {}

    def assign(index: int, visited: set[int]) -> bool:
        hits = child_sets[index]
        for c in children:
            if c in visited or c not in hits:
                continue
            visited.add(c)
            holder = match_right.get(c)
            if holder is None or assign(holder, visited):
                match_right[c] = index
                return True
        return False

    for index in range(len(child_sets)):
        if not assign(index, set()):
            return False
    return True


def prefilter_survivors(survivors: PostingList, ok_set: MatchIds,
                        ifile: InvertedFile, spec: QuerySpec) -> PostingList:
    """Drop survivors with no edge into ``ok_set`` (one query child).

    Used by the strict top-down algorithm after each child recursion.  For
    ``iso`` this is a necessary-but-not-sufficient prefilter; the final
    injective check runs via :func:`filter_candidates`.
    """
    if spec.semantics == "homeo":
        sorted_ok = sorted(id_set(ok_set))
        return PostingList([
            (p, children) for p, children in survivors
            if _has_in_interval(sorted_ok, p, ifile.max_desc(p))])
    return heads_with_child_in(survivors, [ok_set])


def frontier_of(survivors: PostingList, ifile: InvertedFile,
                spec: QuerySpec) -> "Frontier":
    """The set of data nodes reachable one query level below ``survivors``."""
    if spec.semantics == "homeo":
        intervals = _merge_intervals(
            [(p, ifile.max_desc(p)) for p, _ in survivors])
        return Frontier(intervals=intervals)
    return Frontier(ids=child_ids(survivors))


class Frontier:
    """Either a match set (child axis) or merged intervals (descendant axis)."""

    __slots__ = ("ids", "intervals")

    def __init__(self, ids: MatchIds | None = None,
                 intervals: list[tuple[int, int]] | None = None) -> None:
        self.ids = ids
        self.intervals = intervals

    def restrict(self, plist: PostingList) -> PostingList:
        """Keep only postings whose head lies in the frontier."""
        if self.ids is not None:
            return with_head_in(plist, self.ids)
        assert self.intervals is not None
        out = []
        index = 0
        intervals = self.intervals
        for p, children in plist:
            while index < len(intervals) and intervals[index][1] < p:
                index += 1
            if index < len(intervals) and intervals[index][0] < p:
                out.append((p, children))
        return PostingList(out)


def _merge_intervals(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Merge half-open preorder intervals ``(start, end]`` (laminar family)."""
    merged: list[tuple[int, int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged

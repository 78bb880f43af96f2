"""The bottom-up containment algorithm (Section 3.2, Algorithms 3-4).

Processing descends the query depth-first, pushing a marker onto an
explicit stack per internal node; on the way back up, each node pops the
match sets of its children (the ``Lists`` of Algorithm 4), evaluates its
own candidates, and pushes the set of candidate heads that cover every
child -- the ``H(·)`` operator.  The final pop yields the data nodes at
which the whole query embeds.

Unlike the top-down algorithm, candidates are computed for *every* query
node regardless of parent context (there is no downward pruning), which is
exactly the trade-off the paper's experiments probe.  Worst-case running
time is ``O(|q| · |S|)`` (Section 3.2, Analysis).

The implementation is iterative, mirroring the paper's explicit stack and
making the algorithm safe for arbitrarily deep queries.  The per-node
candidate/filter step is the shared pipeline stage
:func:`repro.core.structural.evaluate_node`; an optional observer (see
:mod:`repro.core.observe`) watches each node for EXPLAIN traces.
"""

from __future__ import annotations

from .invfile import InvertedFile
from .matchspec import QuerySpec
from .model import NestedSet
from .observe import NULL_OBSERVER, PlanObserver
from .postings import MatchIds, id_set
from .structural import evaluate_node

#: Stack marker ('$' in the paper's Figure 5).
_MARK = object()


def bottomup_match_nodes(query: NestedSet, ifile: InvertedFile,
                         spec: QuerySpec = QuerySpec(), *,
                         observer: PlanObserver | None = None) -> set[int]:
    """Return the set of data node ids at which ``query`` embeds."""
    return set(id_set(bottomup_match_ids(query, ifile, spec,
                                         observer=observer)))


def bottomup_match_ids(query: NestedSet, ifile: InvertedFile,
                       spec: QuerySpec = QuerySpec(), *,
                       observer: PlanObserver | None = None) -> MatchIds:
    """:func:`bottomup_match_nodes` with the match set left in the form
    the last level produced it in (a set, or a sorted id array).

    That is also how the sets travel on the stack: a level's ``H(·)``
    takes its children's match sets as they come, so a long list's heads
    pass from level to level as one array and never become a ``set``.
    """
    obs = observer if observer is not None else NULL_OBSERVER
    stack: list[object] = []
    work: list[tuple[NestedSet, bool]] = [(query, False)]
    while work:
        node, expanded = work.pop()
        if not expanded:
            # Descend: push the marker, schedule this node's own
            # evaluation after its children (Algorithm 4 lines 1-4).
            obs.enter_node(node)
            stack.append(_MARK)
            work.append((node, True))
            # LIFO work stack: push reversed so children (and hence any
            # attached trace) are visited in iteration order.
            for child in reversed(tuple(node.children)):
                work.append((child, False))
            continue
        # Collect the children's results down to the marker
        # (Algorithm 4 lines 5-9), then evaluate this node's candidates
        # against them (lines 11-15, the shared pipeline stage).
        child_sets: list[MatchIds] = []
        while stack[-1] is not _MARK:
            child_sets.append(stack.pop())
        stack.pop()
        matched = evaluate_node(node, child_sets, ifile, spec, obs)
        obs.exit_node(len(matched))
        stack.append(matched)
    result = stack.pop()
    assert not stack, "bottom-up stack must be empty at the end"
    return result


def bottomup_query(query: NestedSet, ifile: InvertedFile,
                   spec: QuerySpec = QuerySpec()) -> list[str]:
    """Evaluate ``query ⋉ S`` and return the matching record keys."""
    heads = bottomup_match_ids(query, ifile, spec)
    return ifile.heads_to_keys(heads, mode=spec.mode)

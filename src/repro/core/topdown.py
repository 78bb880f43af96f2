"""The top-down containment algorithm (Section 3.1, Algorithms 1-2).

Two variants are provided.

**Strict variant** (:func:`topdown_match_nodes`, the default everywhere).
Starts at the query root, generates candidates for each node, and -- the
top-down advantage -- restricts every child's candidate list to the
*frontier* reachable from the surviving parents before recurring.  After
each child returns, parents without an edge into the child's match set are
dropped, so later siblings see an ever-smaller frontier.  The survivors of
a node are exactly the data nodes at which its subtree embeds, which makes
the variant a sound and complete decision procedure for homomorphic
containment.

**Paper-literal variant** (:func:`topdown_paper_match_nodes`).  A faithful
transcription of Algorithms 1-2: navigation state is the set of paths
``(head, frontier)`` produced by the ``▷``-join, and the per-level result
is the intersection of surviving *root* candidates across sibling
subqueries.  Because the paths remember only the original head -- not which
intermediate node matched -- two sibling subqueries may be satisfied
through *different* children of the same head, so on branching queries the
literal algorithm computes a slightly weaker relation ("path-consistent
containment") and can return supersets of the homomorphic result.  On the
paper's benchmark workloads (queries sampled from the collection, negatives
distorted with an alien leaf) the two relations coincide; DESIGN.md
discusses the discrepancy.  The literal variant supports ``hom``/``homeo``
semantics with the ``subset``/``equality``/``overlap`` joins.

Both variants run in ``O(|q| · |S|)`` worst case (Section 3.1, Analysis).
Both accept an optional observer (:mod:`repro.core.observe`) that watches
every node's candidate generation and survivors -- this is how EXPLAIN
traces ride along the real evaluation instead of re-implementing it.
"""

from __future__ import annotations

from bisect import bisect_right

from .candidates import node_candidates
from .invfile import InvertedFile
from .matchspec import QuerySpec, validate_paper_variant
from .model import NestedSet
from .observe import NULL_OBSERVER, PlanObserver
from .postings import (
    MatchIds,
    PathList,
    PostingList,
    id_set,
    match_ids,
    nav_join,
    with_child_count,
)
from .structural import filter_candidates, frontier_of, prefilter_survivors


# -- strict variant ----------------------------------------------------------


def topdown_match_nodes(query: NestedSet, ifile: InvertedFile,
                        spec: QuerySpec = QuerySpec(), *,
                        child_order=None,
                        observer: PlanObserver | None = None) -> set[int]:
    """Return the set of data node ids at which ``query`` embeds.

    ``child_order`` is an optional hook ``(children, spec) -> ordered
    list`` (see :mod:`repro.core.planner`): sibling subqueries are
    evaluated in the returned order, which controls how fast the
    surviving-parent frontier shrinks.
    """
    obs = observer if observer is not None else NULL_OBSERVER
    cand = node_candidates(query, ifile, spec)
    return set(id_set(_match(query, cand, ifile, spec, child_order, obs)))


def topdown_query(query: NestedSet, ifile: InvertedFile,
                  spec: QuerySpec = QuerySpec()) -> list[str]:
    """Evaluate ``query ⋉ S`` and return the matching record keys."""
    heads = topdown_match_nodes(query, ifile, spec)
    return ifile.heads_to_keys(heads, mode=spec.mode)


def _match(qnode: NestedSet, cand: PostingList, ifile: InvertedFile,
           spec: QuerySpec, child_order, obs: PlanObserver,
           n_unrestricted: int | None = None) -> MatchIds:
    """Survivors of ``cand`` whose subtrees cover ``qnode``'s children.

    ``n_unrestricted`` is the candidate count before the parent-frontier
    restriction (``None`` at the root, where there is no frontier).
    Long survivor lists stay columnar from level to level: frontier,
    restriction and the per-child prefilter follow the size rule of
    :func:`repro.core.postings.use_columns`.
    """
    obs.enter_node(qnode)
    if n_unrestricted is None:
        obs.record_candidates(len(cand))
    else:
        obs.record_candidates(n_unrestricted, restricted=len(cand))
    heads = _match_children(qnode, cand, ifile, spec, child_order, obs)
    obs.exit_node(len(heads))
    return heads


def _match_children(qnode: NestedSet, cand: PostingList,
                    ifile: InvertedFile, spec: QuerySpec, child_order,
                    obs: PlanObserver) -> MatchIds:
    if not cand:
        return set()
    if child_order is not None:
        children = child_order(list(qnode.children), spec)
    else:
        children = sorted(qnode.children, key=lambda c: c.to_text())
    if not children:
        return match_ids(filter_candidates(cand, [], ifile, spec))
    if spec.join == "superset":
        # The superset condition quantifies over *data* children, so the
        # per-child sequential pruning below would be unsound; recur on
        # every query child first, then apply the coverage filter.
        frontier = frontier_of(cand, ifile, spec)
        child_sets = []
        for child in children:
            full = node_candidates(child, ifile, spec)
            child_cand = frontier.restrict(full)
            child_sets.append(_match(child, child_cand, ifile, spec,
                                     child_order, obs,
                                     n_unrestricted=len(full)))
        return match_ids(filter_candidates(cand, child_sets, ifile, spec))
    if spec.join == "equality":
        cand = with_child_count(cand, len(children))
    survivors = cand
    child_sets: list[MatchIds] = []
    for child in children:
        if not survivors:
            return set()
        frontier = frontier_of(survivors, ifile, spec)
        full = node_candidates(child, ifile, spec)
        child_cand = frontier.restrict(full)
        ok = _match(child, child_cand, ifile, spec, child_order, obs,
                    n_unrestricted=len(full))
        child_sets.append(ok)
        survivors = prefilter_survivors(survivors, ok, ifile, spec)
    if spec.semantics == "iso" and survivors:
        # The sequential prefilter is only necessary for iso; finish with
        # the injective matching over all children at once.
        survivors = filter_candidates(survivors, child_sets, ifile, spec)
    return match_ids(survivors)


# -- paper-literal variant ------------------------------------------------------


def topdown_paper_match_nodes(query: NestedSet, ifile: InvertedFile,
                              spec: QuerySpec = QuerySpec(), *,
                              observer: PlanObserver | None = None
                              ) -> set[int]:
    """Algorithms 1-2 verbatim; see the module docstring for semantics."""
    validate_paper_variant(spec)
    obs = observer if observer is not None else NULL_OBSERVER
    obs.enter_node(query)
    cand = node_candidates(query, ifile, spec)
    obs.record_candidates(len(cand))
    siblings = sorted(query.children, key=lambda c: c.to_text())
    if spec.semantics == "homeo":
        paths = [(p, p, ifile.max_desc(p)) for p, _ in cand]
        result = _interior_desc(siblings, paths, ifile, spec, obs)
    else:
        result = _interior(siblings, PathList.from_postings(cand),
                           ifile, spec, obs)
    obs.exit_node(len(result))
    return result


def topdown_paper_query(query: NestedSet, ifile: InvertedFile,
                        spec: QuerySpec = QuerySpec()) -> list[str]:
    """Paper-literal evaluation returning record keys."""
    heads = topdown_paper_match_nodes(query, ifile, spec)
    return ifile.heads_to_keys(heads, mode=spec.mode)


def _interior(siblings: list[NestedSet], paths: PathList,
              ifile: InvertedFile, spec: QuerySpec,
              obs: PlanObserver) -> set[int]:
    """Top-down-interior (Algorithm 2), child axis."""
    if not siblings:                       # lines 1-2
        return paths.heads()
    if not paths:                          # lines 3-4
        return set()
    roots = paths.heads()                  # line 6
    for node in siblings:                  # lines 7-12
        obs.enter_node(node)
        cand = node_candidates(node, ifile, spec)          # line 8
        extended = nav_join(paths, cand)                   # line 9
        obs.record_candidates(len(cand), restricted=len(extended))
        deeper = _interior(sorted(node.children, key=lambda c: c.to_text()),
                           extended, ifile, spec, obs)      # line 10
        obs.exit_node(len(deeper))
        roots &= deeper                                    # line 11
    return roots                           # line 13


def _interior_desc(siblings: list[NestedSet],
                   paths: list[tuple[int, int, int]],
                   ifile: InvertedFile, spec: QuerySpec,
                   obs: PlanObserver) -> set[int]:
    """Algorithm 2 with the ancestor-descendant join of Section 4.2.

    Path entries are ``(head, matched node, matched node's max_desc)``; the
    ``▷``-join condition becomes the constant-time interval test.
    """
    if not siblings:
        return {head for head, _node, _end in paths}
    if not paths:
        return set()
    roots = {head for head, _node, _end in paths}
    for node in siblings:
        obs.enter_node(node)
        cand = node_candidates(node, ifile, spec)
        cand_entries = cand.entries
        cand_ids = [p for p, _ in cand_entries]
        extended: list[tuple[int, int, int]] = []
        seen: set[tuple[int, int]] = set()
        for head, _matched, end in paths:
            lo = bisect_right(cand_ids, _matched)
            hi = bisect_right(cand_ids, end, lo)
            for index in range(lo, hi):
                key = (head, cand_ids[index])
                if key not in seen:
                    seen.add(key)
                    extended.append((head, cand_ids[index],
                                     ifile.max_desc(cand_ids[index])))
        obs.record_candidates(len(cand), restricted=len(extended))
        deeper = _interior_desc(
            sorted(node.children, key=lambda c: c.to_text()),
            extended, ifile, spec, obs)
        obs.exit_node(len(deeper))
        roots &= deeper
    return roots

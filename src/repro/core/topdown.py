"""The top-down containment algorithm (Section 3.1, Algorithms 1-2).

Two variants are provided.

**Strict variant** (:func:`topdown_match_nodes`; what the compiler picks
for the intersection joins when no algorithm is named).  Starts at the
query root, generates candidates for each node, and -- the top-down
advantage -- restricts every child's candidates to the *frontier*
reachable from the surviving parents before descending: under the
``subset`` and ``equality`` joins the frontier ids are an operand of the
child's list intersection (``node_candidates(..., within=)``), so a few
surviving parents cost a few blocks of each list, not the lists.  After
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
from typing import Generator

from .candidates import INTERSECTION_JOINS, node_candidates
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
                        observer: PlanObserver | None = None) -> set[int]:
    """Return the set of data node ids at which ``query`` embeds.

    Sibling subqueries run in canonical text order, read off one
    :meth:`NestedSet.canonical_members` walk of the whole query.

    The descent keeps an explicit stack of :class:`_Level` frames, like
    the bottom-up algorithm's, so the query's depth is not bounded by
    the interpreter's.  Long survivor lists stay columnar from level to
    level: frontier, restriction and the per-child prefilter follow the
    size rule of :func:`repro.core.postings.use_columns`.
    """
    obs = observer if observer is not None else NULL_OBSERVER
    obs.enter_node(query)
    cand = node_candidates(query, ifile, spec)
    obs.record_candidates(len(cand))
    # No root candidate, no descent: the walk that orders the siblings
    # of every level is then not worth making.
    members = query.canonical_members() if cand else []
    stack = [_Level(members, cand, ifile, spec)]
    matched: MatchIds | None = None     # handed up by the level just closed
    while stack:
        level = stack[-1]
        if matched is not None:
            level.take(matched)
            matched = None
        member = level.next_member()
        if member is None:
            matched = level.close()
            obs.exit_node(len(matched))
            stack.pop()
            continue
        obs.enter_node(member[1])
        stack.append(_Level(member[2], level.child_candidates(member[1], obs),
                            ifile, spec))
    return set(id_set(matched))


def topdown_query(query: NestedSet, ifile: InvertedFile,
                  spec: QuerySpec = QuerySpec()) -> list[str]:
    """Evaluate ``query ⋉ S`` and return the matching record keys."""
    heads = topdown_match_nodes(query, ifile, spec)
    return ifile.heads_to_keys(heads, mode=spec.mode)


class _Level:
    """One open query node: its candidates being cut down child by child.

    ``survivors`` are the candidates still covering every child
    evaluated so far; each further child sees only the frontier below
    them.  The superset join quantifies over *data* children, so there
    the per-child pruning would be unsound: every child is evaluated
    against the frontier of all candidates and the coverage filter runs
    once, on closing.
    """

    __slots__ = ("ifile", "spec", "members", "at", "survivors",
                 "child_sets", "fixed_frontier")

    def __init__(self, members: list, cand: PostingList,
                 ifile: InvertedFile, spec: QuerySpec) -> None:
        if members and spec.join == "equality":
            cand = with_child_count(cand, len(members))
        self.ifile = ifile
        self.spec = spec
        self.members = members
        self.at = 0
        self.survivors = cand
        self.child_sets: list[MatchIds] = []
        #: The superset join's one frontier, below all candidates.
        self.fixed_frontier = frontier_of(cand, ifile, spec) \
            if members and cand and spec.join == "superset" else None

    def next_member(self) -> tuple | None:
        """The next child to descend into; None when none is left or no
        candidate survived the children so far."""
        if self.at == len(self.members) or not self.survivors:
            return None
        self.at += 1
        return self.members[self.at - 1]

    def child_candidates(self, child: NestedSet,
                         obs: PlanObserver) -> PostingList:
        """``child``'s candidates inside the frontier of the survivors.

        A child-axis frontier under an intersection join *drives* the
        intersection (``within=``), so the unrestricted candidate list
        is never built and the observer gets no count for it; interval
        frontiers (``homeo``) and the multiset-union joins build it and
        cut it down.
        """
        ifile, spec = self.ifile, self.spec
        frontier = self.fixed_frontier if self.fixed_frontier is not None \
            else frontier_of(self.survivors, ifile, spec)
        if frontier.ids is not None and spec.join in INTERSECTION_JOINS:
            cand = node_candidates(child, ifile, spec, within=frontier.ids)
            obs.record_candidates(None, restricted=len(cand))
        else:
            full = node_candidates(child, ifile, spec)
            cand = frontier.restrict(full)
            obs.record_candidates(len(full), restricted=len(cand))
        return cand

    def take(self, matched: MatchIds) -> None:
        """A child's match set: drop survivors with no edge into it."""
        self.child_sets.append(matched)
        if self.spec.join != "superset":
            self.survivors = prefilter_survivors(self.survivors, matched,
                                                 self.ifile, self.spec)

    def close(self) -> MatchIds:
        """The data nodes at which this node's subtree embeds."""
        survivors = self.survivors
        if not survivors:
            return set()
        if not self.members or self.spec.join == "superset" \
                or self.spec.semantics == "iso":
            # Leaf conditions, the superset coverage, and for iso --
            # where the per-child prefilter is necessary but not
            # sufficient -- the injective matching over all children.
            survivors = filter_candidates(survivors, self.child_sets,
                                          self.ifile, self.spec)
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
    siblings = query.canonical_members()
    if spec.semantics == "homeo":
        paths = [(p, p, ifile.max_desc(p)) for p, _ in cand]
        result = _drive(_interior_desc(siblings, paths, ifile, spec, obs))
    else:
        result = _drive(_interior(siblings, PathList.from_postings(cand),
                                  ifile, spec, obs))
    obs.exit_node(len(result))
    return result


def topdown_paper_query(query: NestedSet, ifile: InvertedFile,
                        spec: QuerySpec = QuerySpec()) -> list[str]:
    """Paper-literal evaluation returning record keys."""
    heads = topdown_paper_match_nodes(query, ifile, spec)
    return ifile.heads_to_keys(heads, mode=spec.mode)


def _drive(call: Generator) -> set[int]:
    """Run a recursion written as generators on an explicit stack (any
    depth): a call yields its sub-call and is sent the result."""
    stack, result = [call], None
    while stack:
        try:
            stack.append(stack[-1].send(result))
            result = None
        except StopIteration as done:
            stack.pop()
            result = done.value
    return result


def _interior(siblings: list[tuple], paths: PathList,
              ifile: InvertedFile, spec: QuerySpec,
              obs: PlanObserver) -> Generator:
    """Top-down-interior (Algorithm 2), child axis, run by :func:`_drive`.

    ``siblings`` are :meth:`NestedSet.canonical_members` quadruples: the
    sibling subqueries in canonical order, each with its own members
    below it.
    """
    if not siblings:                       # lines 1-2
        return paths.heads()
    if not paths:                          # lines 3-4
        return set()
    roots = paths.heads()                  # line 6
    for _text, node, members, _atoms in siblings:  # lines 7-12
        obs.enter_node(node)
        cand = node_candidates(node, ifile, spec)          # line 8
        extended = nav_join(paths, cand)                   # line 9
        obs.record_candidates(len(cand), restricted=len(extended))
        deeper = yield _interior(members, extended, ifile, spec, obs)  # l. 10
        obs.exit_node(len(deeper))
        roots &= deeper                                    # line 11
    return roots                           # line 13


def _interior_desc(siblings: list[tuple],
                   paths: list[tuple[int, int, int]],
                   ifile: InvertedFile, spec: QuerySpec,
                   obs: PlanObserver) -> Generator:
    """Algorithm 2 with the ancestor-descendant join of Section 4.2, run
    by :func:`_drive`.

    Path entries are ``(head, matched node, matched node's max_desc)``; the
    ``▷``-join condition becomes the constant-time interval test.
    """
    if not siblings:
        return {head for head, _node, _end in paths}
    if not paths:
        return set()
    roots = {head for head, _node, _end in paths}
    for _text, node, members, _atoms in siblings:
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
        deeper = yield _interior_desc(members, extended, ifile, spec, obs)
        obs.exit_node(len(deeper))
        roots &= deeper
    return roots

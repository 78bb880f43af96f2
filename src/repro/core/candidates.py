"""Candidate generation for a query node, per join type (Section 4.1).

Both algorithms evaluate, for every internal query node ``n``, a set of
candidate data nodes.  The paper's join-type extensions differ exactly in
how this set is produced from the inverted lists of ``n``'s leaf atoms:

* ``subset``   -- intersection over the atoms' lists (Algorithm 2 line 8 /
  Algorithm 4 line 11): candidates contain *all* of ``n``'s leaves;
* ``equality`` -- as subset, then drop candidates whose leaf count differs
  from ``|ℓ(n)|``;
* ``superset`` -- multiset union over the atoms' lists, keeping candidates
  whose multiplicity equals their leaf count (all of the candidate's leaves
  lie inside ``ℓ(n)``), plus every node with no leaves at all;
* ``overlap``  -- multiset union keeping candidates with multiplicity at
  least ``ε``.

Query nodes with no leaf atoms fall back to the ``ALL`` / ``ZERO`` lists
maintained by the index (the empty-set extension the paper sketches at the
end of Section 3).
"""

from __future__ import annotations

from .invfile import InvertedFile
from .matchspec import QuerySpec
from .model import NestedSet
from .postings import PostingList, multiset_union, with_head_in

#: The joins whose candidates are an intersection of the atoms' lists,
#: which a frontier can drive (:meth:`InvertedFile.intersect_atoms`).
INTERSECTION_JOINS = ("subset", "equality")


def node_candidates(qnode: NestedSet, ifile: InvertedFile,
                    spec: QuerySpec, within=None) -> PostingList:
    """Candidate data nodes at which ``qnode`` may embed, per ``spec.join``.

    ``within`` (the intersection joins only) is a match set the
    candidates must lie in -- the top-down frontier -- and is handed to
    the intersection as an operand, so the unrestricted candidate list
    is never built when the frontier is the shorter.
    """
    atoms = list(qnode.atoms)
    if spec.join in INTERSECTION_JOINS:
        if not atoms:
            every = ifile.all_nodes() if spec.join == "subset" \
                else ifile.zero_leaf_nodes()
            return every if within is None else with_head_in(every, within)
        base = ifile.intersect_atoms(atoms, within=within)
        if spec.join == "subset":
            return base
        want = len(atoms)
        return PostingList([(p, children) for p, children in base
                            if ifile.leaf_count(p) == want])
    if within is not None:
        raise ValueError(f"the {spec.join} join's candidates are a multiset "
                         "union; a frontier cannot drive them")
    if spec.join == "superset":
        entries: list[tuple[int, tuple[int, ...]]] = []
        if atoms:
            union = multiset_union([ifile.postings(atom) for atom in atoms])
            entries = [(p, children) for p, children, count in union
                       if count == ifile.leaf_count(p)]
        # Nodes without leaf children never occur in any atom list but
        # trivially satisfy ℓ(p) ⊆ ℓ(n); merge them in (id-disjoint sets).
        merged = sorted(entries + list(ifile.zero_leaf_nodes().entries))
        return PostingList(merged)
    if spec.join == "overlap":
        if not atoms:
            return PostingList()
        union = multiset_union([ifile.postings(atom) for atom in atoms])
        return PostingList([(p, children) for p, children, count in union
                            if count >= spec.epsilon])
    raise ValueError(f"unknown join {spec.join!r}")

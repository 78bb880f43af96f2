"""Reference containment checkers on nested set trees (Section 2, Figure 2).

These functions decide containment directly on a pair of
:class:`~repro.core.model.NestedSet` trees, with no index.  They serve two
roles in the reproduction:

1. the **naive baseline** of Section 3 remark (1) -- applying an
   off-the-shelf subtree embedding test to every pair ``(q, s)``, and
2. the **test oracles** against which the inverted-file algorithms are
   cross-validated.

Three embedding semantics from the paper are implemented.  In all of them
the query root maps to the data root, and a leaf child labeled ``a`` of a
query node must map to a leaf child labeled ``a`` of the matched data node:

* ``hom``   -- homomorphic: internal child edges map to child edges; two
  query siblings may map to the same data node.
* ``iso``   -- isomorphic: as ``hom`` but the mapping of internal nodes is
  injective.
* ``homeo`` -- homeomorphic: internal child edges may map to
  ancestor-descendant paths (leaf edges stay parent-child; footnote 4).

The join-type predicates of Section 4.1 (equality, superset, ε-overlap) are
provided here as well.
"""

from __future__ import annotations

from .model import NestedSet


def hom_contains(data: NestedSet, query: NestedSet) -> bool:
    """True when ``query ⊆_hom data`` (root-to-root homomorphic embedding).

    Child edges map to child edges, so a query node at depth k can only
    map to a data node at depth k.  Top-down, level by level, collect the
    pairs whose atoms fit below a fitting parent pair; then bottom-up a
    pair embeds when each query child embeds at some data child.  No
    recursion: the scan of the default join goes as deep as a record.
    """
    if not query.atoms <= data.atoms:
        return False
    levels = [{(id(query), id(data)): (query, data)}]
    while levels[-1]:
        levels.append({(id(qchild), id(dchild)): (qchild, dchild)
                       for qnode, dnode in levels[-1].values()
                       for qchild in qnode.children
                       for dchild in dnode.children
                       if qchild.atoms <= dchild.atoms})
    embeds: set[tuple[int, int]] = set()
    for level in reversed(levels):
        for key, (qnode, dnode) in level.items():
            if all(any((id(qchild), id(dchild)) in embeds
                       for dchild in dnode.children)
                   for qchild in qnode.children):
                embeds.add(key)
    return (id(query), id(data)) in embeds


def iso_contains(data: NestedSet, query: NestedSet) -> bool:
    """True when ``query ⊆_iso data`` (injective homomorphic embedding)."""
    memo: dict[tuple[int, int], bool] = {}

    def match(qnode: NestedSet, dnode: NestedSet) -> bool:
        key = (id(qnode), id(dnode))
        cached = memo.get(key)
        if cached is not None:
            return cached
        if not qnode.atoms <= dnode.atoms:
            memo[key] = False
            return False
        ok = _injective_assignment(
            list(qnode.children), list(dnode.children), match)
        memo[key] = ok
        return ok

    return match(query, data)


def homeo_contains(data: NestedSet, query: NestedSet) -> bool:
    """True when ``query ⊆_homeo data`` (descendant-relaxed embedding)."""
    memo: dict[tuple[int, int], bool] = {}

    def descendants(dnode: NestedSet):
        stack = list(dnode.children)
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def match(qnode: NestedSet, dnode: NestedSet) -> bool:
        key = (id(qnode), id(dnode))
        cached = memo.get(key)
        if cached is not None:
            return cached
        ok = qnode.atoms <= dnode.atoms and all(
            any(match(qchild, dnode_desc) for dnode_desc in descendants(dnode))
            for qchild in qnode.children)
        memo[key] = ok
        return ok

    return match(query, data)


def _injective_assignment(left: list[NestedSet], right: list[NestedSet],
                          edge) -> bool:
    """Maximum bipartite matching: can every ``left`` node get its own
    ``right`` partner under the ``edge`` predicate?  Classic augmenting-path
    search; sizes here are set cardinalities, so this stays small."""
    match_right: dict[int, NestedSet] = {}

    def try_assign(unode: NestedSet, visited: set[int]) -> bool:
        for vnode in right:
            vkey = id(vnode)
            if vkey in visited or not edge(unode, vnode):
                continue
            visited.add(vkey)
            holder = match_right.get(vkey)
            if holder is None or try_assign(holder, visited):
                match_right[vkey] = unode
                return True
        return False

    for unode in left:
        if not try_assign(unode, set()):
            return False
    return True


# -- join-type predicates (Section 4.1) -------------------------------------


def equality_matches(data: NestedSet, query: NestedSet) -> bool:
    """Set equality join predicate: nested sets are extensional, so equality
    is exactly structural equality of the trees."""
    return data == query


def superset_matches(data: NestedSet, query: NestedSet) -> bool:
    """Superset join predicate ``query ⊇ data``: the data set must embed
    into the query, i.e. ``data ⊆_hom query``."""
    return hom_contains(query, data)


def overlap_matches(data: NestedSet, query: NestedSet, epsilon: int = 1) -> bool:
    """ε-overlap join predicate: an embedding of the query's internal
    structure exists in which every matched pair of nodes shares at least
    ``epsilon`` leaf values."""
    if epsilon < 1:
        raise ValueError("epsilon must be >= 1")
    memo: dict[tuple[int, int], bool] = {}

    def match(qnode: NestedSet, dnode: NestedSet) -> bool:
        key = (id(qnode), id(dnode))
        cached = memo.get(key)
        if cached is not None:
            return cached
        ok = len(qnode.atoms & dnode.atoms) >= epsilon and all(
            any(match(qchild, dchild) for dchild in dnode.children)
            for qchild in qnode.children)
        memo[key] = ok
        return ok

    return match(query, data)


def contains(data: NestedSet, query: NestedSet, semantics: str = "hom") -> bool:
    """Dispatch on semantics name; used by the public API and tests."""
    if semantics == "hom":
        return hom_contains(data, query)
    if semantics == "iso":
        return iso_contains(data, query)
    if semantics == "homeo":
        return homeo_contains(data, query)
    raise ValueError(f"unknown semantics {semantics!r}; "
                     "expected 'hom', 'iso' or 'homeo'")


def contains_anywhere(data: NestedSet, query: NestedSet,
                      semantics: str = "hom") -> bool:
    """True when the query embeds at *some* internal node of ``data``
    (the descendant-or-self match mode exposed by the index algorithms)."""
    return any(contains(node, query, semantics) for node in data.iter_sets())

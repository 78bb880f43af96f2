"""PRETTI-style prefix-tree evaluation for collection×collection joins.

The per-query join strategies evaluate every member of Q independently:
each query node re-intersects its atoms' posting lists from scratch, so
a workload whose queries share structure streams the same lists over
and over.  "Set Containment Join Revisited" (Bouros et al.) shows the
classic fix: order every set by one global atom order, arrange the
ordered sets in a **prefix tree**, and evaluate the indexed side once
per *distinct trie node* -- the intersection for a node extends its
parent's intersection by exactly one posting list, so shared prefixes
are paid for once no matter how many queries contain them.

This module supplies that machinery to :mod:`repro.core.join`:

* :class:`PrefixTree` -- the trie over query-node atom sets.  Atoms are
  ordered rare-first (ascending live document frequency, token
  tiebreak), matching the rarest-first discipline of
  :meth:`~repro.core.invfile.InvertedFile.intersect_atoms`, so partial
  intersections shrink as early as possible and an empty prefix prunes
  the whole subtree without touching the index.
* :class:`SharedCandidates` -- candidate generation with cross-query
  sharing for one :class:`~repro.core.matchspec.QuerySpec`.  Subset and
  equality joins ride the trie (equality adds the memoized leaf-count
  post-filter); superset/overlap and leafless nodes fall back to a
  per-distinct-atom-set memo over :func:`~repro.core.candidates
  .node_candidates` -- weaker sharing (deduplication instead of prefix
  reuse), but the same exact semantics.
* :func:`prefix_match_nodes` / :func:`prefix_join_lists` -- the
  bottom-up evaluation over the workload, structured exactly like
  :func:`~repro.core.batch.memoized_match_nodes` so whole-subtree memo
  hits and the superset-aware short-circuit behave identically.
* :func:`choose_strategy` -- the adaptive dispatcher: estimates the
  df-weighted posting volume a per-query loop would stream against the
  volume the trie would stream (distinct edges only) and picks the
  prefix tree when the workload is large and the sharing ratio clears
  a threshold.

Evaluation cost shows up in the context's
:class:`~repro.core.exec.context.ExecCounters`: ``prefix_nodes`` (trie
nodes built), ``prefix_streams`` (posting lists actually fetched and
intersected), ``prefix_reused`` (candidate requests served from an
already-evaluated node or memo entry).
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Iterable, Sequence

from .candidates import node_candidates
from .invfile import InvertedFile, atom_token
from .matchspec import QuerySpec
from .model import Atom, NestedSet
from .postings import MatchIds, PostingList, intersect, match_ids
from .structural import filter_candidates

if TYPE_CHECKING:  # typing only
    from .exec.context import ExecutionContext
    from .stats import CollectionStats

#: Below this workload size the trie cannot amortize its bookkeeping.
MIN_PREFIX_QUERIES = 16

#: Minimum df-weighted sharing ratio for the dispatcher to pick "prefix".
#: Random 3-atom sets over a wide alphabet still collide on ~0.2 of
#: their first-edge volume at 10k queries, so the bar sits above that
#: incidental overlap: routing "prefix" must be backed by designed
#: sharing, not birthday-paradox collisions.
SHARING_THRESHOLD = 0.25


class PrefixNode:
    """One trie node: the atom labeling its incoming edge, plus the
    lazily evaluated intersection of every list on its root path."""

    __slots__ = ("atom", "parent", "children", "plist")

    def __init__(self, atom: Atom | None = None,
                 parent: "PrefixNode | None" = None) -> None:
        self.atom = atom
        self.parent = parent
        self.children: dict[Atom, PrefixNode] = {}
        self.plist: PostingList | None = None


class PrefixTree:
    """Trie over atom sets, sharing posting-list intersections.

    One tree serves one inverted file (node ids and frequencies are
    shard-local, so sharded joins build one tree per shard).  Counters,
    when given, must expose the ``prefix_*`` attributes of
    :class:`~repro.core.exec.context.ExecCounters`.
    """

    def __init__(self, ifile: InvertedFile, counters=None) -> None:
        self._ifile = ifile
        self._counters = counters
        self._root = PrefixNode()
        self._terminals: dict[frozenset, PrefixNode] = {}
        self._order: dict[Atom, tuple[int, str]] = {}
        self.n_nodes = 0

    def _key(self, atom: Atom) -> tuple[int, str]:
        """Global atom order: ascending live df, token tiebreak."""
        key = self._order.get(atom)
        if key is None:
            key = (self._ifile.live_list_length(atom), atom_token(atom))
            self._order[atom] = key
        return key

    def _insert(self, atoms: frozenset) -> PrefixNode:
        node = self._root
        counters = self._counters
        for atom in sorted(atoms, key=self._key):
            child = node.children.get(atom)
            if child is None:
                child = PrefixNode(atom, node)
                node.children[atom] = child
                self.n_nodes += 1
                if counters is not None:
                    counters.prefix_nodes += 1
            node = child
        return node

    def candidates(self, atoms: frozenset) -> PostingList:
        """Heads containing every atom (the subset-join intersection)."""
        if not atoms:
            raise ValueError("prefix tree nodes need at least one atom")
        terminal = self._terminals.get(atoms)
        if terminal is None:
            terminal = self._insert(atoms)
            self._terminals[atoms] = terminal
        if terminal.plist is not None:
            if self._counters is not None:
                self._counters.prefix_reused += 1
            return terminal.plist
        return self._evaluate(terminal)

    def _evaluate(self, terminal: PrefixNode) -> PostingList:
        # Walk up to the deepest already-evaluated ancestor, then extend
        # its intersection downward one posting list per step.  An empty
        # partial intersection propagates without touching the index.
        pending: list[PrefixNode] = []
        node = terminal
        while node is not self._root and node.plist is None:
            pending.append(node)
            node = node.parent
        counters = self._counters
        for step in reversed(pending):
            parent = step.parent
            if parent is not self._root and len(parent.plist) == 0:
                step.plist = parent.plist
                continue
            fetched = self._ifile.postings(step.atom)
            if counters is not None:
                counters.prefix_streams += 1
            if parent is self._root:
                step.plist = fetched
            else:
                step.plist = intersect([parent.plist, fetched])
        return terminal.plist


class SharedCandidates:
    """Per-workload candidate provider for one spec.

    Subset/equality nodes with atoms go through the prefix tree;
    everything else (superset, overlap, leafless nodes) shares through
    a per-distinct-atom-set memo over :func:`node_candidates`.
    """

    def __init__(self, ctx: "ExecutionContext", spec: QuerySpec) -> None:
        self._ifile = ctx.ifile
        self._counters = ctx.counters
        self._spec = spec
        self.tree = PrefixTree(ctx.ifile, ctx.counters) \
            if spec.join in ("subset", "equality") else None
        self._memo: dict[frozenset, PostingList] = {}

    def candidates(self, qnode: NestedSet) -> PostingList:
        atoms = qnode.atoms
        spec = self._spec
        if self.tree is not None and atoms:
            if spec.join == "subset":
                return self.tree.candidates(atoms)
            # equality: trie intersection plus the leaf-count filter,
            # memoized so duplicate atom sets skip the re-filter (and
            # the trie's reuse counter bumps exactly once per request).
            cached = self._memo.get(atoms)
            if cached is not None:
                self._counters.prefix_reused += 1
                return cached
            base = self.tree.candidates(atoms)
            want = len(atoms)
            leaf_count = self._ifile.leaf_count
            out = PostingList([(p, children) for p, children in base
                               if leaf_count(p) == want])
            self._memo[atoms] = out
            return out
        cached = self._memo.get(atoms)
        if cached is not None:
            self._counters.prefix_reused += 1
            return cached
        out = node_candidates(qnode, self._ifile, spec)
        # One stream per atom list the union/fallback touched (the
        # ALL/ZERO list for leafless nodes counts as one).
        self._counters.prefix_streams += len(atoms) or 1
        self._memo[atoms] = out
        return out


def prefix_match_nodes(query: NestedSet, ctx: "ExecutionContext",
                       spec: QuerySpec, provider: SharedCandidates,
                       memo: dict[NestedSet, MatchIds]) -> MatchIds:
    """Node ids at which ``query`` embeds, candidates via the provider.

    Mirrors :func:`repro.core.batch.memoized_match_ids` exactly --
    same post-order over distinct subtrees, same whole-subtree memo
    (match sets in the form they were produced in), same
    superset-aware unsatisfiable-child short-circuit -- with
    candidate generation swapped for the shared provider.  Children
    go in canonical text order, on an explicit stack (any depth).
    """
    work = [(query, query.canonical_members(), False)]
    while work:
        node, members, expanded = work.pop()
        if expanded:
            child_sets = [memo[member[1]] for member in members]
            if spec.join != "superset" \
                    and any(len(hits) == 0 for hits in child_sets):
                result: MatchIds = frozenset()
            else:
                cand = provider.candidates(node)
                result = match_ids(
                    filter_candidates(cand, child_sets, ctx.ifile, spec))
            memo[node] = result
            ctx.counters.subqueries_evaluated += 1
        elif node in memo:
            ctx.counters.subqueries_reused += 1
        else:
            work.append((node, members, True))
            work.extend((child, below, False)
                        for _text, child, below in reversed(members))
    return memo[query]


def prefix_join_lists(queries: Sequence[NestedSet],
                      ctx: "ExecutionContext",
                      spec: QuerySpec) -> list[list[str]]:
    """Evaluate a whole workload against one context's inverted file.

    Returns one lexicographically sorted key list per query (the same
    contract as running the queries' compiled plans), so a fan-out
    over partitions merges exactly like
    :meth:`NestedSetIndex.run_plans <repro.core.engine.NestedSetIndex.run_plans>`.
    """
    provider = SharedCandidates(ctx, spec)
    memo = ctx.memo if ctx.memo is not None else {}
    out: list[list[str]] = []
    for query in queries:
        ctx.counters.queries += 1
        heads = prefix_match_nodes(query, ctx, spec, provider, memo)
        out.append(ctx.ifile.heads_to_keys(heads, mode=spec.mode))
    return out


def choose_strategy(queries: Iterable[NestedSet],
                    stats: "CollectionStats", *,
                    min_queries: int = MIN_PREFIX_QUERIES,
                    threshold: float = SHARING_THRESHOLD
                    ) -> tuple[str, dict[str, object]]:
    """Adaptive dispatch: ``"prefix"`` or ``"per-query"`` plus evidence.

    Estimates, from live collection statistics, the df-weighted posting
    volume a per-query loop streams (every atom of every query node)
    against what the trie streams (each distinct ordered prefix edge
    once).  The sharing ratio ``1 - trie/loop`` is the fraction of
    posting volume the prefix tree never touches; small workloads are
    sent to the per-query loop regardless since the trie cannot
    amortize its bookkeeping.

    Each distinct query is walked once and its loop volume weighted by
    how often it occurs, so the evidence equals a walk over every copy.
    """
    counts = Counter(queries)
    loop_volume = 0
    edge_volume: dict[tuple, int] = {}
    for query, count in counts.items():
        for qnode in query.iter_sets():
            path = tuple(sorted(
                qnode.atoms,
                key=lambda a: (stats.document_frequency(a), atom_token(a))))
            prefix: tuple = ()
            for atom in path:
                df = stats.document_frequency(atom)
                loop_volume += df * count
                prefix = prefix + (atom,)
                edge_volume[prefix] = df
    trie_volume = sum(edge_volume.values())
    sharing = 1.0 - (trie_volume / loop_volume) if loop_volume else 0.0
    n_queries = counts.total()
    chosen = "prefix" if (n_queries >= min_queries
                          and sharing >= threshold) else "per-query"
    return chosen, {
        "chosen": chosen,
        "n_queries": n_queries,
        "min_queries": min_queries,
        "sharing": round(sharing, 4),
        "threshold": threshold,
        "loop_volume": loop_volume,
        "trie_volume": trie_volume,
    }

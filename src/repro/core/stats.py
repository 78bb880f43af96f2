"""Collection statistics and query cost estimation.

The paper's future-work list opens with skew: "our empirical study showed
that skewed data is challenging for our algorithms.  Incorporation ... of
recent results on efficiently dealing with list intersections and data
skew should be investigated."  The statistics here are the substrate for
that: per-atom document frequencies (already maintained by the index for
the frequency cache), derived selectivities, and a simple cost model that
the planner (:mod:`repro.core.planner`) uses to order the evaluation of
query nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .invfile import InvertedFile
from .matchspec import QuerySpec
from .model import Atom, NestedSet


@dataclass(frozen=True)
class AtomStats:
    """Distributional summary of the collection's atom frequencies."""

    distinct_atoms: int
    total_postings: int
    max_df: int
    mean_df: float
    skew_ratio: float  # share of postings owned by the hottest 1% of atoms


class CollectionStats:
    """Frequency-derived statistics over one indexed collection."""

    def __init__(self, frequencies: list[tuple[Atom, int]],
                 n_nodes: int, n_records: int,
                 block_size: int = 0) -> None:
        self._df = dict(frequencies)
        self.n_nodes = n_nodes
        self.n_records = n_records
        #: Postings per block of the index's blocked list format (0 when
        #: the index uses a legacy format); feeds the block cost model.
        self.block_size = block_size
        self._total_postings = sum(self._df.values())
        self._ranked = sorted(self._df.values(), reverse=True)

    @classmethod
    def from_inverted_file(cls, ifile: InvertedFile) -> "CollectionStats":
        """Statistics over the *live* collection.

        Uses the tombstone-adjusted frequencies so selectivity estimates
        (and the planner's ordering decisions) don't drift as deletes
        accumulate between compactions.
        """
        return cls(ifile.live_document_frequencies().items(), ifile.n_nodes,
                   ifile.n_live_records, block_size=ifile.block_size)

    @classmethod
    def merged(cls, parts: "list[CollectionStats]") -> "CollectionStats":
        """Statistics over the union of disjoint collections (the
        partitions of one index); one part is the answer already."""
        if len(parts) == 1:
            return parts[0]
        df: dict[Atom, int] = {}
        for part in parts:
            for atom, count in part._df.items():
                df[atom] = df.get(atom, 0) + count
        return cls(list(df.items()), sum(part.n_nodes for part in parts),
                   sum(part.n_records for part in parts),
                   block_size=parts[0].block_size)

    # -- per-atom ------------------------------------------------------------

    def document_frequency(self, atom: Atom) -> int:
        """Number of internal nodes owning a leaf ``atom`` (list length)."""
        return self._df.get(atom, 0)

    def selectivity(self, atom: Atom) -> float:
        """Fraction of internal nodes containing the atom (0 = absent)."""
        if self.n_nodes == 0:
            return 0.0
        return self.document_frequency(atom) / self.n_nodes

    # -- per-query-node ---------------------------------------------------------

    def estimate_candidates(self, qnode: NestedSet,
                            spec: QuerySpec = QuerySpec()) -> float:
        """Expected candidate count for one query node under the join.

        ``subset``/``equality``: the intersection is at most the rarest
        atom's list (the standard upper bound; independence would sharpen
        it, but the bound is what ordering decisions need).
        ``superset``/``overlap``: the multiset union, at most the sum.
        """
        dfs = [self.document_frequency(atom) for atom in qnode.atoms]
        if spec.join in ("subset", "equality"):
            if not dfs:
                return float(self.n_nodes)
            return float(min(dfs))
        if not dfs:
            return 0.0 if spec.join == "overlap" else float(self.n_nodes)
        return float(sum(dfs))

    def estimate_node_cost(self, qnode: NestedSet,
                           spec: QuerySpec = QuerySpec()) -> float:
        """Work to *evaluate* a node: decode + intersect its atoms' lists."""
        return float(sum(self.document_frequency(atom)
                         for atom in qnode.atoms))

    def estimate_blocks(self, qnode: NestedSet,
                        spec: QuerySpec = QuerySpec()) -> float:
        """Expected block decodes to intersect a node's atom lists.

        Models the galloping kernel: the rarest list decodes fully
        (``ceil(df_min / block_size)`` blocks) and every other list
        decodes at most one block per probe and at most all its blocks
        -- ``min(df_min, ceil(df / block_size))``.  Zero on indexes
        without the blocked format; the planner uses this as a
        cost tie-break, so result invariance is untouched.
        """
        if not self.block_size:
            return 0.0
        dfs = sorted(self.document_frequency(atom) for atom in qnode.atoms)
        if not dfs:
            return 0.0
        rare = dfs[0]
        blocks = math.ceil(rare / self.block_size)
        for df in dfs[1:]:
            blocks += min(rare, math.ceil(df / self.block_size))
        return float(blocks)

    def estimate_query_cost(self, query: NestedSet,
                            spec: QuerySpec = QuerySpec()) -> float:
        """Additive cost over all query nodes (the O(|q|·|S|) shape)."""
        return sum(self.estimate_node_cost(node, spec)
                   for node in query.iter_sets())

    # -- collection-level ------------------------------------------------------------

    def atom_stats(self) -> AtomStats:
        """Summary used by EXPERIMENTS.md and the skew diagnostics."""
        if not self._ranked:
            return AtomStats(0, 0, 0, 0.0, 0.0)
        hot = max(1, len(self._ranked) // 100)
        hot_share = sum(self._ranked[:hot]) / self._total_postings \
            if self._total_postings else 0.0
        return AtomStats(
            distinct_atoms=len(self._ranked),
            total_postings=self._total_postings,
            max_df=self._ranked[0],
            mean_df=self._total_postings / len(self._ranked),
            skew_ratio=hot_share,
        )

    def hottest(self, count: int = 10) -> list[tuple[Atom, int]]:
        """The ``count`` most frequent atoms with their frequencies."""
        ranked = sorted(self._df.items(),
                        key=lambda item: (-item[1], str(item[0])))
        return ranked[:count]

"""Collection statistics over the live records.

The paper's future-work list opens with skew: "our empirical study showed
that skewed data is challenging for our algorithms.  Incorporation ... of
recent results on efficiently dealing with list intersections and data
skew should be investigated."  The statistics here summarise that skew:
per-atom document frequencies over the live records (the counts the
index already keeps for the frequency cache), merged across partitions.
The prefix join's dispatcher weighs posting volume with them
(:func:`repro.core.prefixjoin.choose_strategy`);
``NestedSetIndex.collection_stats()`` hands them to any caller, with
:meth:`CollectionStats.hottest` and :meth:`CollectionStats.atom_stats`
as the skew summary.
"""

from __future__ import annotations

from dataclasses import dataclass

from .invfile import InvertedFile
from .model import Atom


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
                 n_nodes: int, n_records: int) -> None:
        self._df = dict(frequencies)
        self.n_nodes = n_nodes
        self.n_records = n_records
        self._total_postings = sum(self._df.values())

    @classmethod
    def from_inverted_file(cls, ifile: InvertedFile) -> "CollectionStats":
        """Statistics over the *live* collection.

        Uses the tombstone-adjusted frequencies so the counts don't
        drift as deletes accumulate between compactions.
        """
        return cls(ifile.live_document_frequencies().items(), ifile.n_nodes,
                   ifile.n_live_records)

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
                   sum(part.n_records for part in parts))

    # -- per-atom ------------------------------------------------------------

    def document_frequency(self, atom: Atom) -> int:
        """Number of internal nodes owning a leaf ``atom`` (list length)."""
        return self._df.get(atom, 0)

    # -- collection-level ------------------------------------------------------------

    def atom_stats(self) -> AtomStats:
        """Summary used by EXPERIMENTS.md and the skew diagnostics."""
        # Sorted here, not in __init__: a commit rebuilds the statistics.
        ranked = sorted(self._df.values(), reverse=True)
        if not ranked:
            return AtomStats(0, 0, 0, 0.0, 0.0)
        hot = max(1, len(ranked) // 100)
        hot_share = sum(ranked[:hot]) / self._total_postings \
            if self._total_postings else 0.0
        return AtomStats(
            distinct_atoms=len(ranked),
            total_postings=self._total_postings,
            max_df=ranked[0],
            mean_df=self._total_postings / len(ranked),
            skew_ratio=hot_share,
        )

    def hottest(self, count: int = 10) -> list[tuple[Atom, int]]:
        """The ``count`` most frequent atoms with their frequencies."""
        ranked = sorted(self._df.items(),
                        key=lambda item: (-item[1], str(item[0])))
        return ranked[:count]

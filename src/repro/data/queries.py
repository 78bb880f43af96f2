"""Benchmark query workloads (Section 5.1, "Queries").

The paper's protocol: "we arbitrarily selected 100 nested sets from each
data collection S.  We distorted half of the selected queries such that
they are not contained in the data collection (i.e., we have 50 positive
and 50 negative queries for each S); this was done by adding a new leaf
value to each set which does not appear anywhere else in the database."

:func:`make_benchmark_queries` reproduces the protocol: queries are
sampled records; negatives get a fresh ``__absent_i__`` atom (the double
underscore namespace is reserved -- no generator nor adapter in this
repository produces such atoms, and the function verifies absence against
the provided records).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from ..core.model import Atom, NestedSet


@dataclass(frozen=True)
class BenchmarkQuery:
    """One workload query plus its provenance."""

    key: str            # workload-local identifier, q000 ...
    query: NestedSet
    positive: bool      # sampled verbatim (True) or distorted (False)
    source_key: str     # record the query was sampled from


def fresh_atom(index: int) -> str:
    """The reserved fresh-leaf atom injected into negative queries."""
    return f"__absent_{index}__"


def add_atom_at_random_node(tree: NestedSet, atom: Atom,
                            rng: random.Random) -> NestedSet:
    """Rebuild ``tree`` with ``atom`` added to one uniformly random node."""
    nodes = list(tree.iter_sets())
    target = nodes[rng.randrange(len(nodes))]

    def rebuild(node: NestedSet) -> NestedSet:
        children = frozenset(rebuild(child) for child in node.children)
        atoms = node.atoms | {atom} if node is target else node.atoms
        return NestedSet(atoms, children)

    return rebuild(tree)


def make_benchmark_queries(records: Sequence[tuple[str, NestedSet]],
                           n_queries: int = 100,
                           negative_fraction: float = 0.5,
                           seed: int = 0,
                           distort: str = "root"
                           ) -> list[BenchmarkQuery]:
    """Sample the paper's benchmark workload from a collection.

    ``distort`` places the fresh leaf at the ``"root"`` (the paper's
    phrasing, "adding a new leaf value to each set") or at a ``"random"``
    node of the query tree.
    """
    if not records:
        raise ValueError("cannot sample queries from an empty collection")
    if not 0.0 <= negative_fraction <= 1.0:
        raise ValueError("negative_fraction must be in [0, 1]")
    if distort not in ("root", "random"):
        raise ValueError(f"unknown distortion site {distort!r}")
    rng = random.Random(("queries", seed, n_queries).__repr__())
    if n_queries <= len(records):
        sampled = rng.sample(list(records), n_queries)
    else:
        sampled = [records[rng.randrange(len(records))]
                   for _ in range(n_queries)]
    n_negative = round(n_queries * negative_fraction)
    # Interleave positives and negatives so a truncated workload still
    # exercises both kinds.
    flags = [index < n_negative for index in range(n_queries)]
    rng.shuffle(flags)
    workload: list[BenchmarkQuery] = []
    width = max(3, len(str(n_queries)))
    for index, ((source_key, tree), negative) in enumerate(
            zip(sampled, flags)):
        if negative:
            atom = fresh_atom(index)
            if distort == "root":
                query = tree.with_atom(atom)
            else:
                query = add_atom_at_random_node(tree, atom, rng)
        else:
            query = tree
        workload.append(BenchmarkQuery(
            key=f"q{index:0{width}d}", query=query,
            positive=not negative, source_key=source_key))
    return workload


def verify_workload(workload: Sequence[BenchmarkQuery],
                    records: Sequence[tuple[str, NestedSet]]) -> None:
    """Assert the protocol invariants (used by tests and the harness).

    Every negative query must carry an atom absent from the collection;
    every positive query must be verbatim equal to its source record.
    """
    record_atoms: set = set()
    by_key = dict(records)
    for _key, tree in records:
        record_atoms |= tree.all_atoms()
    for bench in workload:
        if bench.positive:
            if bench.query != by_key[bench.source_key]:
                raise AssertionError(
                    f"positive query {bench.key} differs from its source")
        else:
            alien = bench.query.all_atoms() - record_atoms
            if not alien:
                raise AssertionError(
                    f"negative query {bench.key} has no fresh leaf")

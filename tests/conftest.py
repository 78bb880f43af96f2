"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from collections import Counter
from typing import Iterable

import pytest

from repro.core.model import (
    EXAMPLE_QUERY,
    EXAMPLE_SUE,
    EXAMPLE_TIM,
    NestedSet,
    as_nested_set,
)


@pytest.fixture
def sue() -> NestedSet:
    """Sue's record from Table 1 of the paper."""
    return NestedSet.parse(EXAMPLE_SUE)


@pytest.fixture
def tim() -> NestedSet:
    """Tim's record from Table 1 of the paper."""
    return NestedSet.parse(EXAMPLE_TIM)


@pytest.fixture
def paper_query() -> NestedSet:
    """The running-example query of Section 1 / Figure 3."""
    return NestedSet.parse(EXAMPLE_QUERY)


@pytest.fixture
def paper_records(sue: NestedSet, tim: NestedSet
                  ) -> list[tuple[str, NestedSet]]:
    """The two-record collection S of Table 1 / Figure 1."""
    return [("sue", sue), ("tim", tim)]


def random_tree(rng: random.Random, atoms: list[str], *,
                max_depth: int = 3, max_atoms: int = 3,
                max_children: int = 2, allow_empty: bool = True,
                depth: int = 0) -> NestedSet:
    """Small random nested set for randomized cross-validation."""
    low = 0 if (allow_empty and depth) else 1
    node_atoms = rng.sample(atoms, rng.randint(low, max_atoms))
    children = []
    if depth < max_depth:
        for _ in range(rng.randint(0, max_children)):
            children.append(random_tree(
                rng, atoms, max_depth=max_depth, max_atoms=max_atoms,
                max_children=max_children, allow_empty=allow_empty,
                depth=depth + 1))
    return NestedSet(node_atoms, children)


def document_frequencies(trees: Iterable[object]) -> dict:
    """Per-atom posting counts recomputed from the records themselves.

    One posting per internal node holding the atom -- what
    ``InvertedFile.frequencies()`` must report over the live and the
    tombstoned records, and ``live_frequencies()`` over the live ones.
    """
    df: Counter = Counter()
    for tree in trees:
        for node in as_nested_set(tree).iter_sets():
            df.update(node.atoms)
    return dict(df)


def reported_frequencies(index) -> tuple[dict, dict]:
    """(raw, live) document frequencies as an index reports them,
    summed over its partitions."""
    raw: Counter = Counter()
    live: Counter = Counter()
    for engine in index.shards:
        raw.update(dict(engine.inverted_file.frequencies()))
        live.update(dict(engine.inverted_file.live_frequencies()))
    return dict(raw), dict(live)


@pytest.fixture
def small_corpus() -> list[tuple[str, NestedSet]]:
    """Sixty small random records over a 12-atom alphabet, seeded."""
    rng = random.Random(20130322)  # EDBT 2013 conference date
    atoms = [f"a{i}" for i in range(12)]
    return [(f"r{i:02d}", random_tree(rng, atoms)) for i in range(60)]

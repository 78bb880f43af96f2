"""Records and queries nested far past Python's recursion limit.

Every walk over a nested set keeps its own stack: a 2 000-level chain
builds, inserts, and answers under every algorithm and every join
strategy exactly as the naive checker does, and crosses between nested
Python containers and nested sets in both directions.

Needs no hypothesis (it runs in the crash-consistency CI job).
"""

from __future__ import annotations

import pytest

from repro.core.engine import NestedSetIndex
from repro.core.exec.compiler import ALGORITHMS
from repro.core.join import STRATEGIES, containment_join
from repro.core.model import NestedSet
from repro.core.naive import reference_query

DEPTH = 2000


def chain(depth: int, leaf: str | None = None) -> NestedSet:
    """``depth`` nested sets, the one at level ``d`` holding ``l{d % 3}``,
    the innermost ``leaf`` as well."""
    node = None
    for level in reversed(range(depth)):
        atoms = [f"l{level % 3}"] + ([leaf] if leaf and node is None else [])
        node = NestedSet(atoms, [node] if node is not None else [])
    return node


def nest(depth: int, leaf: str) -> list:
    """:func:`chain` spelled as nested Python lists."""
    obj = None
    for level in reversed(range(depth)):
        obj = [f"l{level % 3}"] + ([leaf] if obj is None else [obj])
    return obj


RECORDS = [("deep", chain(DEPTH, "x")), ("short", chain(3, "x")),
           ("flat", NestedSet(["l0", "x"])), ("deep-y", chain(DEPTH, "y"))]
QUERIES = [("whole", chain(DEPTH, "x")), ("prefix", chain(1500)),
           ("root", NestedSet(["l0"])), ("none", chain(DEPTH, "z"))]


def test_the_model_walks_keep_their_own_stack() -> None:
    deep = chain(DEPTH, "x")
    assert deep.depth == DEPTH
    assert deep.internal_count == DEPTH and deep.leaf_count == DEPTH + 1
    assert deep == chain(DEPTH, "x") and deep != chain(DEPTH, "y")
    assert NestedSet.parse(deep.to_text()) == deep


@pytest.mark.parametrize("entry", ["insert", "query", "to_obj"])
def test_a_python_nest_crosses_every_entry_point(entry) -> None:
    """``from_obj`` and ``to_obj`` walked a nest one frame per level."""
    deep = chain(DEPTH, "x")
    if entry == "to_obj":
        obj = deep.to_obj()
        assert isinstance(obj, frozenset)
        assert NestedSet.from_obj(obj) == deep
        return
    records = RECORDS[:3] if entry == "query" else RECORDS[1:3]
    with NestedSetIndex.build(records) as index:
        if entry == "insert":
            index.insert("nest", nest(DEPTH, "x"))
            assert index.query(deep) == ["nest"]
        else:
            assert index.query(nest(DEPTH, "x")) == \
                reference_query(records, deep) == ["deep"]


@pytest.fixture(scope="module")
def index():
    # Build all but the last record, insert that one.
    index = NestedSetIndex.build(RECORDS[:-1], shards=2)
    index.insert(*RECORDS[-1])
    yield index
    index.close()


def test_every_algorithm_answers_like_the_oracle(index) -> None:
    for _qkey, query in QUERIES:
        expected = reference_query(RECORDS, query)
        for algorithm in ALGORITHMS:
            assert index.query(query, algorithm=algorithm) == expected, \
                algorithm
    assert index.query(QUERIES[1][1]) == ["deep", "deep-y"]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_join_strategy_answers_like_the_oracle(index,
                                                     strategy) -> None:
    expected = {qkey: reference_query(RECORDS, query)
                for qkey, query in QUERIES}
    result = containment_join(index, QUERIES, strategy=strategy)
    assert result.grouped() == expected


def test_a_deep_query_against_a_shallow_index() -> None:
    """The prefix join walked a query one interpreter frame per level."""
    records = RECORDS[1:3]
    queries = [("deep", chain(1500, "x")), ("root", NestedSet(["l0"]))]
    expected = {qkey: reference_query(records, query)
                for qkey, query in queries}
    assert expected["root"] == ["flat", "short"]
    with NestedSetIndex.build(records) as index:
        for strategy in STRATEGIES:
            assert containment_join(index, queries, strategy=strategy
                                    ).grouped() == expected, strategy

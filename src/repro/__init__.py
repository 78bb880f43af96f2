"""nestcontain -- efficient containment queries on nested sets.

A from-scratch reproduction of Ibrahim & Fletcher, *Efficient processing of
containment queries on nested sets*, EDBT 2013: the nested-set data model,
the inverted-file index, the top-down and bottom-up containment algorithms,
the caching and Bloom-filter optimizations, the join-type and embedding-
semantics extensions, and the full experimental harness.

Quickstart::

    from repro import NestedSet, NestedSetIndex

    records = [
        ("sue", NestedSet.parse("{London, UK, {UK, {A, B}}}")),
        ("tim", NestedSet.parse("{Boston, USA, {UK, {A, motorbike}}}")),
    ]
    index = NestedSetIndex.build(records)
    index.query("{USA, {UK, {A, motorbike}}}")   # -> ['tim']
"""

from .core import (
    ALGORITHMS,
    Atom,
    BloomFilter,
    BloomIndex,
    ExecutionContext,
    ExecutionPlan,
    InvertedFile,
    NaiveScanner,
    NestedSet,
    NestedSetError,
    NestedSetIndex,
    PlanError,
    QuerySpec,
    QuerySpecError,
    ShardError,
    as_nested_set,
    compile_query,
    contains,
    hom_contains,
    homeo_contains,
    iso_contains,
)

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "Atom",
    "BloomFilter",
    "BloomIndex",
    "ExecutionContext",
    "ExecutionPlan",
    "InvertedFile",
    "NaiveScanner",
    "NestedSet",
    "NestedSetError",
    "NestedSetIndex",
    "PlanError",
    "QuerySpec",
    "QuerySpecError",
    "ShardError",
    "__version__",
    "as_nested_set",
    "compile_query",
    "contains",
    "hom_contains",
    "homeo_contains",
    "iso_contains",
]

"""Core library: the paper's contribution.

Data model, inverted file, the two containment algorithms, caching, Bloom
prefilters, and the join/semantics extension matrix.
"""

from .bags import (
    NestedBag,
    bag_contains,
    bag_equal,
    bag_filter_verify,
    bag_reference_query,
    json_to_nested_bag,
)
from .batch import memoized_match_ids
from .bloom import BloomFilter, BloomIndex, BreadthBloom, DepthBloom
from .bottomup import bottomup_match_nodes, bottomup_query
from .cache import PAPER_BUDGET, BlockCache
from .candidates import node_candidates
from .checker import assert_healthy, check_index
from .engine import ALGORITHMS, NestedSetIndex, as_nested_set
from .exec import (
    ExecCounters,
    ExecutionContext,
    ExecutionPlan,
    PlanError,
    TraceSink,
    compile_query,
)
from .invfile import InvertedFile, InvertedFileError, NodeMeta, QueryStats
from .join import JoinResult, containment_join, self_join
from .matchspec import JOINS, MODES, SEMANTICS, QuerySpec, QuerySpecError
from .model import (
    EXAMPLE_QUERY,
    EXAMPLE_SUE,
    EXAMPLE_TIM,
    Atom,
    NestedSet,
    NestedSetError,
)
from .naive import (
    NaiveScanner,
    naive_containment_join,
    naive_predicate,
    reference_query,
)
from .prefixjoin import (
    PrefixTree,
    choose_strategy,
    prefix_join_lists,
)
from .shard import ShardError
from .seqs import (
    NestedSeq,
    json_to_nested_seq,
    seq_contains,
    seq_filter_verify,
    seq_reference_query,
)
from .postings import (
    PathList,
    PostingList,
    intersect,
    multiset_union,
    nav_join,
)
from .similarity import SimilaritySearch, nested_jaccard, top_k_similar
from .stats import AtomStats, CollectionStats
from .observe import ExplainResult, NodeTrace, explain
from .semantics import (
    contains,
    contains_anywhere,
    equality_matches,
    hom_contains,
    homeo_contains,
    iso_contains,
    overlap_matches,
    superset_matches,
)
from .topdown import (
    topdown_match_nodes,
    topdown_paper_match_nodes,
    topdown_paper_query,
    topdown_query,
)
from .updates import (
    DEFAULT_MEMORY_BUDGET,
    IndexWriter,
    UpdateError,
    build_external,
)

__all__ = [
    "ALGORITHMS",
    "Atom",
    "AtomStats",
    "BlockCache",
    "BloomFilter",
    "BloomIndex",
    "BreadthBloom",
    "DepthBloom",
    "EXAMPLE_QUERY",
    "EXAMPLE_SUE",
    "EXAMPLE_TIM",
    "CollectionStats",
    "DEFAULT_MEMORY_BUDGET",
    "ExecCounters",
    "ExecutionContext",
    "ExecutionPlan",
    "ExplainResult",
    "IndexWriter",
    "InvertedFile",
    "InvertedFileError",
    "JOINS",
    "JoinResult",
    "MODES",
    "NaiveScanner",
    "NestedBag",
    "NestedSeq",
    "NestedSet",
    "NestedSetError",
    "NestedSetIndex",
    "NodeMeta",
    "NodeTrace",
    "PlanError",
    "PrefixTree",
    "PAPER_BUDGET",
    "PathList",
    "PostingList",
    "QuerySpec",
    "QuerySpecError",
    "QueryStats",
    "SEMANTICS",
    "ShardError",
    "SimilaritySearch",
    "TraceSink",
    "UpdateError",
    "as_nested_set",
    "assert_healthy",
    "bag_contains",
    "bag_equal",
    "bag_filter_verify",
    "bag_reference_query",
    "build_external",
    "check_index",
    "choose_strategy",
    "compile_query",
    "containment_join",
    "bottomup_match_nodes",
    "bottomup_query",
    "contains",
    "contains_anywhere",
    "equality_matches",
    "explain",
    "hom_contains",
    "homeo_contains",
    "json_to_nested_bag",
    "json_to_nested_seq",
    "intersect",
    "iso_contains",
    "memoized_match_ids",
    "multiset_union",
    "naive_containment_join",
    "naive_predicate",
    "nav_join",
    "nested_jaccard",
    "node_candidates",
    "overlap_matches",
    "prefix_join_lists",
    "reference_query",
    "self_join",
    "seq_contains",
    "seq_filter_verify",
    "seq_reference_query",
    "superset_matches",
    "top_k_similar",
    "topdown_match_nodes",
    "topdown_paper_match_nodes",
    "topdown_paper_query",
    "topdown_query",
]

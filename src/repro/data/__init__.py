"""Data substrate: dataset generators, adapters, and query workloads."""

from .dblp import article_xml, generate_articles
from .json_adapter import json_query, json_text_to_nested, json_to_nested
from .ingest import (
    DBLP_RECORD_TAGS,
    IngestError,
    iter_jsonl,
    iter_xml_records,
    load_jsonl_file,
    load_xml_file,
)
from .io import load_collection_file, save_collection_file
from .queries import (
    BenchmarkQuery,
    add_atom_at_random_node,
    fresh_atom,
    make_benchmark_queries,
    verify_workload,
)
from .synthetic import (
    DEEP,
    DEFAULT_DOMAIN,
    PAPER_DOMAIN,
    SHAPES,
    WIDE,
    DatasetSpec,
    ShapeParams,
    collection_profile,
    generate_collection,
    generate_nested_set,
)
from .twitter import generate_tweets
from .workflows import generate_workflows, provenance_query
from .xml_adapter import element_to_nested, xml_query, xml_text_to_nested
from .zipf import UniformSampler, ZipfSampler

__all__ = [
    "BenchmarkQuery",
    "DEEP",
    "DEFAULT_DOMAIN",
    "DatasetSpec",
    "PAPER_DOMAIN",
    "SHAPES",
    "ShapeParams",
    "UniformSampler",
    "WIDE",
    "ZipfSampler",
    "DBLP_RECORD_TAGS",
    "IngestError",
    "add_atom_at_random_node",
    "article_xml",
    "collection_profile",
    "element_to_nested",
    "fresh_atom",
    "generate_articles",
    "generate_collection",
    "generate_nested_set",
    "generate_tweets",
    "generate_workflows",
    "json_query",
    "json_text_to_nested",
    "json_to_nested",
    "iter_jsonl",
    "iter_xml_records",
    "load_collection_file",
    "load_jsonl_file",
    "load_xml_file",
    "make_benchmark_queries",
    "provenance_query",
    "save_collection_file",
    "verify_workload",
    "xml_query",
    "xml_text_to_nested",
]

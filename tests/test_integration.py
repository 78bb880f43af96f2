"""End-to-end integration tests across every subsystem.

Each test exercises the full stack the way the paper's experiments do:
generate a collection, build the index (memory and disk engines), sample
the benchmark workload, run both algorithms under several configurations,
and cross-check against the naive oracle.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import (
    DATASETS,
    generate_dataset,
    run_benchmark_queries,
)
from repro.core.engine import NestedSetIndex
from repro.core.naive import reference_query
from repro.core.matchspec import QuerySpec
from repro.data.queries import make_benchmark_queries, verify_workload


@pytest.mark.parametrize("dataset", DATASETS)
def test_dataset_pipeline(dataset: str) -> None:
    """Every named collection supports the full experiment protocol."""
    records = list(generate_dataset(dataset, 80, seed=3))
    index = NestedSetIndex.build(records, cache="frequency")
    workload = make_benchmark_queries(records, 20, seed=3)
    verify_workload(workload, records)
    for algorithm in ("topdown", "bottomup"):
        run_benchmark_queries(index, workload, algorithm, check=True)


@pytest.mark.parametrize("storage", ["memory", "diskhash"])
def test_storage_engines_agree(storage: str, tmp_path) -> None:
    """The three storage engines return identical query answers."""
    records = list(generate_dataset("zipf-wide", 120, seed=5))
    path = str(tmp_path / f"ix.{storage}") if storage != "memory" else None
    index = NestedSetIndex.build(records, storage=storage, path=path)
    workload = make_benchmark_queries(records, 12, seed=5)
    for bench in workload:
        expect = reference_query(records, bench.query, QuerySpec())
        assert index.query(bench.query) == expect
    index.close()


def test_reopened_disk_index_full_protocol(tmp_path) -> None:
    """Build on disk, close, reopen, and run the checked workload."""
    records = list(generate_dataset("twitter", 100, seed=7))
    path = str(tmp_path / "tw.idx")
    NestedSetIndex.build(records, storage="diskhash", path=path).close()
    index = NestedSetIndex.open("diskhash", path, cache="frequency")
    workload = make_benchmark_queries(records, 16, seed=7)
    for algorithm in ("topdown", "bottomup", "topdown-paper"):
        run_benchmark_queries(index, workload, algorithm, check=True)
    stats = index.stats()
    assert stats["cache"]["hits"] > 0  # the frequency cache engaged
    index.close()


def test_all_configurations_on_one_collection() -> None:
    """semantics × join × algorithm sweep against the oracle."""
    records = list(generate_dataset("dblp", 60, seed=11))
    index = NestedSetIndex.build(records)
    queries = [tree for _key, tree in records[:6]]
    combos = [
        {"semantics": "hom"}, {"semantics": "iso"}, {"semantics": "homeo"},
        {"join": "equality"}, {"join": "superset"},
        {"join": "overlap", "epsilon": 2},
        {"mode": "anywhere"},
    ]
    for query in queries:
        for combo in combos:
            spec = QuerySpec(**combo)
            expect = reference_query(records, query, spec)
            for algorithm in ("topdown", "bottomup"):
                got = index.query(query, algorithm=algorithm, **combo)
                assert got == expect, (combo, algorithm)


def test_cache_policies_do_not_change_results() -> None:
    records = list(generate_dataset("zipf-deep", 40, seed=13))
    index = NestedSetIndex.build(records)
    workload = make_benchmark_queries(records, 10, seed=13)
    baseline = [index.query(b.query) for b in workload]
    for policy in ("frequency", "lru"):
        index.set_cache(policy, budget=50)
        assert [index.query(b.query) for b in workload] == baseline
        # run twice so the cache actually serves hits
        assert [index.query(b.query) for b in workload] == baseline
        assert index.inverted_file.cache.stats.hits > 0


def test_bloom_prefilter_agrees_with_index() -> None:
    records = list(generate_dataset("uniform-wide", 80, seed=17))
    index = NestedSetIndex.build(records, bloom="depth")
    workload = make_benchmark_queries(records, 12, seed=17)
    for bench in workload:
        indexed = index.query(bench.query)
        scanned = index.query(bench.query, algorithm="naive",
                              use_bloom=True)
        assert indexed == scanned


def test_containment_join_matches_naive_nested_loops() -> None:
    from repro.core.naive import naive_containment_join
    records = list(generate_dataset("dblp", 40, seed=19))
    index = NestedSetIndex.build(records)
    queries = [(f"q{i}", tree) for i, (_k, tree) in enumerate(records[:8])]
    assert sorted(index.containment_join(queries)) == \
        sorted(naive_containment_join(queries, records))

"""Experiment ST1: storage-engine ablation (Section 5.1).

The paper ran on Tokyo Cabinet's external hash table with caching
disabled.  This benchmark compares our two engines -- in-memory dict and
disk hash table -- on index construction and on the query workload,
without and with the Section 3.3 frequency pins.  Every timed pass
follows a warm-up pass, so the query columns time warm lists, which
never reach the store: expect the engines to tie there and to differ in
build time.  The two engines' passes are timed in pairs whose order
alternates round by round, so neither column is always the one that
runs first.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.workloads import (
    generate_dataset,
    make_query_runner,
)
from repro.core.engine import NestedSetIndex
from repro.data.queries import make_benchmark_queries

DATASET = "zipf-wide"
SIZE = 1000
N_QUERIES = 20
ENGINES = ("memory", "diskhash")
#: Timed query rounds: each engine runs first in half of them.
PAIRS = 10

_RECORDS = None


def _records():
    global _RECORDS
    if _RECORDS is None:
        _RECORDS = list(generate_dataset(DATASET, SIZE, seed=0))
    return _RECORDS


@pytest.mark.benchmark(group="storage-build")
@pytest.mark.parametrize("engine", ENGINES)
def test_index_build(benchmark, figure, engine, tmp_path):
    records = _records()
    counter = [0]

    def build() -> None:
        counter[0] += 1
        path = None if engine == "memory" else \
            str(tmp_path / f"b{counter[0]}.{engine}")
        NestedSetIndex.build(records, storage=engine, path=path).close()

    figure.record(benchmark, "build", engine, build, rounds=3,
                  dataset=f"{DATASET}@{SIZE}")


@pytest.mark.benchmark(group="storage-query")
@pytest.mark.parametrize("policy", [None, "frequency"],
                         ids=["nocache", "cache"])
def test_query_per_engine(benchmark, figure, policy, tmp_path):
    records = _records()
    queries = make_benchmark_queries(records, N_QUERIES, seed=0)
    indexes = {
        engine: NestedSetIndex.build(
            records, storage=engine, cache=policy,
            path=None if engine == "memory" else str(tmp_path / f"q.{engine}"))
        for engine in ENGINES}
    runners = {engine: make_query_runner(index, queries, "topdown")
               for engine, index in indexes.items()}
    times: dict[str, list[float]] = {engine: [] for engine in ENGINES}
    order = list(ENGINES)

    def pair() -> None:
        for engine in order:
            start = time.perf_counter()
            runners[engine]()
            times[engine].append(time.perf_counter() - start)
        order.reverse()

    benchmark.pedantic(pair, rounds=PAIRS, warmup_rounds=1)
    label = "query" + ("+cache" if policy else "")
    for engine, index in indexes.items():
        # The first pass of each engine is the warm-up round's.
        figure.add(label, engine, times[engine][1:],
                   queries=N_QUERIES, dataset=f"{DATASET}@{SIZE}")
        index.close()

"""Experiment SH1: sharded execution on a mixed read/write workload.

Compares 1-shard sequential evaluation against N-shard layouts on the
workload sharding is built for: a repeated query batch with single-record
inserts interleaved, result caches enabled.  Cached results are scoped
to the state of the shard they came from, so an insert moves only the
owning shard's scope: with one shard every batch recomputes every
query, with N the other N-1 shards answer from cache and each batch
recomputes ~1/N of the work.  The headline comparison (4 shards / 4 workers vs the 1-shard
sequential baseline) is additionally written to
``bench_results/BENCH_shards.json`` with its speedup factor.
"""

from __future__ import annotations

import itertools
import json
import os

import pytest

from repro.bench.protocol import measure
from repro.bench.reporting import RESULTS_DIR
from repro.bench.workloads import generate_dataset
from repro.core.engine import NestedSetIndex
from repro.data.queries import make_benchmark_queries

DATASET = "zipf-wide"
SIZE = 800
N_QUERIES = 40
ROUNDS_PER_MEASURE = 10

_FRESH = itertools.count()

#: (shards, workers) layouts in the sweep; (1, 1) is the baseline.
LAYOUTS = [(1, 1), (2, 1), (4, 1), (4, 4), (8, 4)]


def _workload():
    records = list(generate_dataset(DATASET, SIZE, seed=0))
    queries = [bench.query for bench in
               make_benchmark_queries(records, N_QUERIES, seed=0)]
    extra = list(generate_dataset(DATASET, 200, seed=99))
    return records, queries, extra


def _build(records, shards: int, workers: int):
    return NestedSetIndex.build(records, shards=shards, workers=workers)


def _make_runner(index, queries, extra):
    """One run = ROUNDS_PER_MEASURE x (query batch + routed insert)."""
    source = itertools.cycle(extra)

    def run() -> int:
        total = 0
        for _ in range(ROUNDS_PER_MEASURE):
            for result in index.query_batch(queries):
                total += len(result)
            _key, tree = next(source)
            index.insert(f"fresh{next(_FRESH)}", tree)
        return total

    return run


@pytest.mark.benchmark(group="shards-mixed")
@pytest.mark.parametrize("shards,workers", LAYOUTS)
def test_mixed_workload(benchmark, figure, shards, workers):
    records, queries, extra = _workload()
    index = _build(records, shards, workers)
    index.enable_result_cache(capacity=4096)
    index.query_batch(queries)          # warm the caches once
    runner = _make_runner(index, queries, extra)
    figure.record(benchmark, f"workers={workers}", shards, runner,
                  rounds=5, queries=N_QUERIES,
                  dataset=f"{DATASET}@{SIZE}",
                  layout=f"{shards}x{workers}")


def test_headline_speedup():
    """Record BENCH_shards.json: 4 shards / 4 workers vs 1-shard sequential.

    Sanity-only threshold here (>1.0): the architectural claim -- partial
    cache invalidation beats whole-cache flushes on mixed workloads -- must
    hold anywhere, while the recorded JSON carries the measured factor.
    """
    records, queries, extra = _workload()
    timings = {}
    for label, shards, workers in [("1-shard sequential", 1, 1),
                                   ("4-shard 4-worker", 4, 4)]:
        index = _build(records, shards, workers)
        index.enable_result_cache(capacity=4096)
        index.query_batch(queries)
        runner = _make_runner(index, queries, extra)
        runner()                        # warmup measurement round
        timings[label] = measure(runner, repeats=7)

    baseline = timings["1-shard sequential"]
    sharded = timings["4-shard 4-worker"]
    speedup = baseline.millis / sharded.millis
    payload = {
        "experiment": "BENCH_shards",
        "workload": {
            "dataset": DATASET, "size": SIZE, "queries": N_QUERIES,
            "rounds_per_measure": ROUNDS_PER_MEASURE,
            "mix": "repeated query batch + 1 routed insert per round, "
                   "result caches enabled",
        },
        "baseline": {"layout": "1 shard, sequential",
                     "mean_ms": round(baseline.millis, 3),
                     "times_s": [round(t, 6) for t in baseline.times]},
        "sharded": {"layout": "4 shards, 4 workers",
                    "mean_ms": round(sharded.millis, 3),
                    "times_s": [round(t, 6) for t in sharded.times]},
        "batch_query_throughput_speedup": round(speedup, 3),
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "BENCH_shards.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
    assert speedup > 1.0, f"sharded layout slower than baseline: {payload}"

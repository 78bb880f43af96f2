"""Experiment WAL1: a journaled mixed workload on a disk index.

Runs the shards-style mixed workload (repeated query batch with an
insert and a delete interleaved per round) against a disk-backed index.
Every mutation pays one fsync'd group write before its pages reach the
main file.  Every disk store journals, so there is no unjournaled
baseline to compare against: the row records the mixed workload's
absolute time.
"""

from __future__ import annotations

import itertools

import pytest

from repro.bench.workloads import generate_dataset
from repro.core.engine import NestedSetIndex
from repro.data.queries import make_benchmark_queries

DATASET = "zipf-wide"
SIZE = 400
N_QUERIES = 20
ROUNDS_PER_MEASURE = 8
STORAGE = "diskhash"

_FRESH = itertools.count()


def _workload():
    records = list(generate_dataset(DATASET, SIZE, seed=0))
    queries = [bench.query for bench in
               make_benchmark_queries(records, N_QUERIES, seed=0)]
    extra = list(generate_dataset(DATASET, 200, seed=99))
    return records, queries, extra


def _make_runner(index, queries, extra):
    """One run = ROUNDS x (query batch + insert + delete).

    Each inserted record is deleted one round later, so the index size
    stays flat and every round pays two journaled mutations.
    """
    source = itertools.cycle(extra)
    pending: list[str] = []

    def run() -> int:
        total = 0
        for _ in range(ROUNDS_PER_MEASURE):
            for query in queries:
                total += len(index.query(query))
            _key, tree = next(source)
            key = f"fresh{next(_FRESH)}"
            index.insert(key, tree)
            pending.append(key)
            if len(pending) > 1:
                index.delete(pending.pop(0))
        return total

    return run


@pytest.mark.benchmark(group="wal-mixed")
def test_mixed_workload(benchmark, figure, tmp_path):
    records, queries, extra = _workload()
    index = NestedSetIndex.build(records, storage=STORAGE,
                                 path=str(tmp_path / "idx.db"))
    runner = _make_runner(index, queries, extra)
    figure.record(benchmark, "journaled", 1, runner, rounds=5,
                  queries=N_QUERIES, dataset=f"{DATASET}@{SIZE}",
                  storage=STORAGE)
    index.close()

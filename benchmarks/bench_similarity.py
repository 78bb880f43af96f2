"""Experiment SI1: top-k similarity search (future work 4).

Compares the inverted-file-driven candidate generation against brute-force
scoring of every record, across candidate limits.  Expected shape: the
index route scales with the number of overlapping records, not the
collection size; tighter candidate limits trade a little recall for
speed.
"""

from __future__ import annotations

import pytest

from repro.core.similarity import SimilaritySearch, nested_jaccard

SIZE = 2000
DATASET = "dblp"
K = 10


@pytest.mark.benchmark(group="similarity")
@pytest.mark.parametrize("mode", ["bruteforce", "index-500", "index-100"])
def test_similarity(benchmark, workloads, figure, mode):
    workload = workloads.get(DATASET, SIZE, n_queries=10)
    workload.index.set_cache("frequency")
    snap = workload.index.snapshot()
    ifile = snap.views[0].inverted_file
    queries = [bench.query for bench in workload.queries[:8]]

    if mode == "bruteforce":
        def run() -> int:
            hits = 0
            for query in queries:
                scored = sorted(
                    (nested_jaccard(query, tree) for _key, tree
                     in workload.records), reverse=True)[:K]
                hits += len(scored)
            return hits

        rounds = 3
    else:
        limit = int(mode.split("-")[1])
        search = SimilaritySearch(ifile, candidate_limit=limit)

        def run() -> int:
            return sum(len(search.top_k(query, K)) for query in queries)

        rounds = 5
    try:
        figure.record(benchmark, "top-k", mode, run, rounds=rounds,
                      queries=len(queries), dataset=f"{DATASET}@{SIZE}")
    finally:
        snap.close()

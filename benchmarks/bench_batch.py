"""Experiment BA1: batch evaluation with subquery memoization (future work 6).

Workloads whose queries share subtrees (here: template queries derived
from sampled records, plus the verbatim workload which repeats whole
records) run through ``NestedSetIndex.query_batch(algorithm="bottomup")``
with ``share_subqueries`` on and off.  On, the batch folds repeated
queries and one subquery memo per partition serves repeated subtrees;
off, every query is evaluated on its own.  Expected shape: sharing wins
roughly in proportion to the share of repeated subtrees and never loses
more than the memo bookkeeping overhead.
"""

from __future__ import annotations

import pytest

SIZE = 2000
DATASET = "zipf-wide"


def _workload_with_sharing(records, repeat: int) -> list:
    """Each sampled record query appears ``repeat`` times (templates)."""
    base = [tree for _key, tree in records[:30]]
    return base * repeat


@pytest.mark.benchmark(group="batch-eval")
@pytest.mark.parametrize("repeat", [1, 3], ids=["unique", "3x-shared"])
@pytest.mark.parametrize("share", [False, True],
                         ids=["unshared", "shared"])
def test_batch(benchmark, workloads, figure, repeat, share):
    workload = workloads.get(DATASET, SIZE, n_queries=10)
    workload.index.set_cache("frequency")
    index = workload.index
    queries = _workload_with_sharing(workload.records, repeat)

    def run() -> int:
        results = index.query_batch(queries, algorithm="bottomup",
                                    share_subqueries=share)
        return sum(len(keys) for keys in results)

    label = "shared" if share else "unshared"
    figure.record(benchmark, label, f"{repeat}x", run,
                  queries=len(queries), dataset=f"{DATASET}@{SIZE}")

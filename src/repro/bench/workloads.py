"""Dataset/workload preparation shared by all experiment drivers.

Maps the paper's six collections (Experiments 1-3) onto the generators of
:mod:`repro.data`, builds indexes once per (dataset, size) and lets the
harness swap cache policies in place, and provides the correctness-checked
"run all benchmark queries" unit of work the paper times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..core.engine import NestedSetIndex
from ..core.model import NestedSet
from ..data.dblp import generate_articles
from ..data.queries import BenchmarkQuery, make_benchmark_queries
from ..data.synthetic import DatasetSpec, generate_collection
from ..data.twitter import generate_tweets
from ..data.workflows import generate_workflows

#: Dataset names used across the experiment index of DESIGN.md.
DATASETS = ("uniform-wide", "uniform-deep", "zipf-wide", "zipf-deep",
            "twitter", "dblp", "workflows")


def generate_dataset(name: str, size: int, *, seed: int = 0,
                     theta: float = 0.7,
                     domain_size: int | None = None
                     ) -> Iterable[tuple[str, NestedSet]]:
    """Produce the records of one named collection."""
    if name == "twitter":
        return generate_tweets(size, seed=seed)
    if name == "workflows":
        return generate_workflows(size, seed=seed)
    if name == "dblp":
        return generate_articles(size, seed=seed)
    try:
        distribution, shape = name.split("-")
    except ValueError:
        raise ValueError(f"unknown dataset {name!r}; "
                         f"expected one of {DATASETS}") from None
    if distribution == "zipf":
        spec_kwargs: dict[str, object] = {"distribution": "zipf",
                                          "theta": theta}
    elif distribution == "uniform":
        spec_kwargs = {"distribution": "uniform"}
    else:
        raise ValueError(f"unknown dataset {name!r}; "
                         f"expected one of {DATASETS}")
    if domain_size is not None:
        spec_kwargs["domain_size"] = domain_size
    spec = DatasetSpec(shape=shape, **spec_kwargs)  # type: ignore[arg-type]
    return generate_collection(size, spec, seed=seed)


@dataclass
class Workload:
    """A built index plus its benchmark queries."""

    name: str
    size: int
    index: NestedSetIndex
    queries: list[BenchmarkQuery]
    records: list[tuple[str, NestedSet]]


class WorkloadCache:
    """Build-once cache keyed by (dataset, size, options).

    Index construction dominates harness runtime, so the figure drivers
    share one cache per session and only swap cache policies between the
    cached/uncached series.
    """

    def __init__(self) -> None:
        self._workloads: dict[tuple, Workload] = {}

    def get(self, name: str, size: int, *, n_queries: int = 100,
            seed: int = 0, theta: float = 0.7,
            storage: str = "memory", path: str | None = None,
            domain_size: int | None = None,
            shards: int = 1) -> Workload:
        key = (name, size, n_queries, seed, theta, storage, domain_size,
               shards)
        workload = self._workloads.get(key)
        if workload is None:
            records = list(generate_dataset(
                name, size, seed=seed, theta=theta, domain_size=domain_size))
            index = NestedSetIndex.build(records, storage=storage, path=path,
                                         shards=shards)
            queries = make_benchmark_queries(records, n_queries, seed=seed)
            workload = Workload(name, size, index, queries, records)
            self._workloads[key] = workload
        return workload

    def clear(self) -> None:
        for workload in self._workloads.values():
            workload.index.close()
        self._workloads.clear()


def run_benchmark_queries(index: NestedSetIndex,
                          queries: Sequence[BenchmarkQuery],
                          algorithm: str = "bottomup",
                          check: bool = False,
                          share_subqueries: bool = False,
                          **query_options: object) -> int:
    """Execute the whole workload sequentially (the paper's timed unit).

    Returns the total number of result records.  With ``check=True`` the
    protocol invariants are asserted: a positive query's source record is
    in its result, a negative query's result is empty.  With
    ``share_subqueries=True`` the workload runs through
    :meth:`NestedSetIndex.query_batch` with the cross-query subquery
    memo attached (the default stays per-query, matching the paper's
    timed unit).
    """
    if share_subqueries:
        results = index.query_batch([bench.query for bench in queries],
                                    share_subqueries=True,
                                    algorithm=algorithm, **query_options)
    else:
        results = [index.query(bench.query, algorithm=algorithm,
                               **query_options) for bench in queries]
    total = 0
    for bench, result in zip(queries, results):
        total += len(result)
        if check:
            if bench.positive and bench.source_key not in result:
                raise AssertionError(
                    f"{algorithm}: positive query {bench.key} missed its "
                    f"source record {bench.source_key}")
            if not bench.positive and result:
                raise AssertionError(
                    f"{algorithm}: negative query {bench.key} returned "
                    f"{len(result)} records")
    return total


def make_query_runner(index: NestedSetIndex,
                      queries: Sequence[BenchmarkQuery],
                      algorithm: str,
                      **query_options: object) -> Callable[[], int]:
    """Zero-argument closure for :func:`repro.bench.protocol.measure`."""
    def run() -> int:
        return run_benchmark_queries(index, queries, algorithm,
                                     **query_options)
    return run

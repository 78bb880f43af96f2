"""Shared infrastructure for the figure/experiment benchmarks.

Every benchmark module reproduces one paper artifact (see the experiment
index in DESIGN.md).  The ``workloads`` fixture shares built indexes
across parameter cases; the ``figure`` fixture collects one
:class:`SeriesPoint` per benchmark case and, at module teardown, prints
the paper-style series table and saves the raw rows under
``bench_results/``.
"""

from __future__ import annotations

import pytest

from repro.bench.protocol import SeriesPoint, Timing
from repro.bench.reporting import format_figure, save_points
from repro.bench.workloads import WorkloadCache

#: Rounds per measurement.  The paper uses 10 with min/max trimmed; 5 keeps
#: the full suite inside a laptop-scale time budget while still trimming.
ROUNDS = 5


@pytest.fixture(scope="session")
def workloads() -> WorkloadCache:
    cache = WorkloadCache()
    yield cache
    cache.clear()


class FigureCollector:
    """Accumulates series points for one figure and reports at teardown."""

    def __init__(self, name: str, title: str) -> None:
        self.name = name
        self.title = title
        self.points: list[SeriesPoint] = []

    def record(self, benchmark, series: str, x: float,
               runner, *, rounds: int = ROUNDS, **extra: object) -> None:
        """Run ``runner`` under pytest-benchmark and collect the timings."""
        benchmark.pedantic(runner, rounds=rounds, warmup_rounds=1)
        self.add(series, x, benchmark.stats.stats.data, **extra)

    def add(self, series: str, x: float, times, **extra: object) -> None:
        """Collect timings (seconds) measured by the caller."""
        self.points.append(SeriesPoint(series, x, Timing(tuple(times)),
                                       extra=dict(extra)))


@pytest.fixture(scope="module")
def figure(request) -> FigureCollector:
    module = request.module
    name = module.__name__.replace("bench_", "")
    title = (module.__doc__ or name).strip().splitlines()[0]
    collector = FigureCollector(name, title)
    yield collector
    if collector.points:
        rendered = format_figure(collector.title, collector.points)
        path = save_points(collector.name, collector.points)
        # Persist the rendered series table next to the raw rows (the
        # terminal write below is swallowed when pytest output is piped).
        with open(path[:-5] + ".txt", "w") as handle:
            handle.write(rendered + "\n")
        reporter = request.config.pluginmanager.get_plugin(
            "terminalreporter")
        if reporter is not None:  # bypass output capture
            reporter.write_line(f"\n{rendered}")
            reporter.write_line(f"[raw rows saved to {path}]")

"""Estimators and host probes of the ladder benchmark.

Everything here is plain arithmetic over numbers the benchmark already
holds, or a read of ``/proc``; nothing imports :mod:`repro`, so the unit
tests in ``ladder/tests`` run without the program.

The estimator is ``floor``: the mean of the few fastest timed rounds.
On a shared two-core VM the slow side of the round-time distribution
measures the neighbours (README, "Why floor"), the fast side measures
the program, and a mean of five is steadier than the single minimum.
"""

from __future__ import annotations

import math
import os
import statistics
from typing import Sequence

#: How many of the fastest rounds ``floor`` averages.
FLOOR_K = 5


def floor(samples: Sequence[float], k: int = FLOOR_K) -> float:
    """Mean of the ``k`` smallest samples (all of them when fewer)."""
    if not samples:
        raise ValueError("floor of no samples")
    if k < 1:
        raise ValueError("k must be >= 1")
    fastest = sorted(samples)[:k]
    return sum(fastest) / len(fastest)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(samples: Sequence[float]) -> dict[str, float]:
    """``floor`` plus the context a run record keeps beside it.

    Median and p90 are written down, never gated: on a shared host they
    move with the neighbours' load, not with the program.
    """
    return {
        "floor": floor(samples),
        "min": min(samples),
        "median": statistics.median(samples),
        "p90": percentile(samples, 90.0),
        "rounds": len(samples),
    }


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median.

    The acceptance rule of the benchmark contract: first to third
    quartile of ``statistics.quantiles(values, n=4)`` over the median.
    """
    if len(values) < 2:
        raise ValueError("quartile_spread needs at least two values")
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        raise ValueError("quartile_spread of values with median 0")
    return (q3 - q1) / abs(median)


def worsening(first: float, second: float, better: str) -> float:
    """By what share of ``first`` the ``second`` value is worse.

    Negative when ``second`` is the better one.  ``better`` is
    ``"lower"`` or ``"higher"``, as in ``BENCHMARK.json``.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if first == 0:
        raise ValueError("worsening against a baseline of 0")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


# -- /proc probes -----------------------------------------------------------

def parse_cpu_times(stat_text: str) -> dict[str, int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` as named jiffies."""
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq",
             "steal", "guest", "guest_nice")
    for line in stat_text.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            values = [int(field) for field in fields[1:1 + len(names)]]
            values += [0] * (len(names) - len(values))
            return dict(zip(names, values))
    raise ValueError("no aggregate cpu line in /proc/stat text")


def read_cpu_times() -> dict[str, int] | None:
    """Current aggregate CPU jiffies, or None where /proc is absent."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return parse_cpu_times(handle.read())
    except (OSError, ValueError):
        return None


def steal_share(before: dict[str, int] | None,
                after: dict[str, int] | None) -> float | None:
    """Share of all CPU time between two samples that the host stole."""
    if before is None or after is None:
        return None
    total = sum(after.values()) - sum(before.values())
    if total <= 0:
        return None
    return (after["steal"] - before["steal"]) / total


def parse_status_kib(status_text: str, field: str) -> int:
    """A ``kB`` field (``VmHWM``, ``VmRSS``) of ``/proc/<pid>/status``."""
    prefix = field + ":"
    for line in status_text.splitlines():
        if line.startswith(prefix):
            return int(line.split()[1])
    raise ValueError(f"no {field} line in status text")


def peak_rss_mb(pid: int | None = None) -> float:
    """``VmHWM`` of a process (this one by default) in MB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="ascii") as handle:
        return parse_status_kib(handle.read(), "VmHWM") / 1024.0


# -- CPU affinity -----------------------------------------------------------

def usable_cpus() -> set[int]:
    """CPUs this process may run on (empty where affinity is unsupported)."""
    try:
        return set(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return set()


def pin(pid: int, cpus: set[int]) -> list[int]:
    """Pin ``pid`` (0 = this process) to ``cpus``; return what it got.

    Best effort: a host that refuses leaves the affinity as it was, and
    the returned list, which goes into the run record, says so.
    """
    try:
        if cpus:
            os.sched_setaffinity(pid, cpus)
        return sorted(os.sched_getaffinity(pid))
    except (AttributeError, OSError):
        return []

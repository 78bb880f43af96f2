"""Unit tests of the estimator, the /proc parsers and the CPU split."""

import os
import statistics

import pytest

import stats


def test_floor_is_mean_of_the_fastest_five():
    samples = [9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 100.0, 7.0]
    assert stats.floor(samples) == pytest.approx((1 + 2 + 3 + 4 + 5) / 5)


def test_floor_ignores_slow_outliers():
    quiet = [10.0 + 0.01 * i for i in range(40)]
    noisy = quiet[:30] + [50.0] * 10        # a neighbour woke up
    assert stats.floor(noisy) == stats.floor(quiet)
    assert stats.percentile(noisy, 90) > stats.percentile(quiet, 90)


def test_floor_with_fewer_samples_than_k():
    assert stats.floor([3.0, 1.0]) == 2.0
    assert stats.floor([4.0], k=1) == 4.0


def test_floor_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.floor([])
    with pytest.raises(ValueError):
        stats.floor([1.0], k=0)


def test_percentile_nearest_rank():
    samples = list(range(1, 11))
    assert stats.percentile(samples, 90) == 9
    assert stats.percentile(samples, 100) == 10
    assert stats.percentile(samples, 0) == 1
    with pytest.raises(ValueError):
        stats.percentile(samples, 101)
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_summarize_keeps_context_beside_floor():
    summary = stats.summarize([5.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0])
    assert summary["floor"] == 3.0
    assert summary["min"] == 1.0
    assert summary["median"] == 4.0
    assert summary["rounds"] == 7


def test_quartile_spread_matches_the_contract_formula():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    expected = (q3 - q1) / statistics.median(values)
    assert stats.quartile_spread(values) == pytest.approx(expected)
    assert stats.quartile_spread([5.0] * 10) == 0.0
    with pytest.raises(ValueError):
        stats.quartile_spread([1.0])


def test_worsening_respects_direction():
    assert stats.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.worsening(100.0, 90.0, "lower") == pytest.approx(-0.10)
    assert stats.worsening(100.0, 90.0, "higher") == pytest.approx(0.10)
    with pytest.raises(ValueError):
        stats.worsening(100.0, 90.0, "sideways")
    with pytest.raises(ValueError):
        stats.worsening(0.0, 1.0, "lower")


PROC_STAT = """\
cpu  100 0 50 800 10 0 5 35 0 0
cpu0 50 0 25 400 5 0 2 17 0 0
intr 12345
"""


def test_parse_cpu_times_reads_the_aggregate_line():
    times = stats.parse_cpu_times(PROC_STAT)
    assert times["user"] == 100
    assert times["steal"] == 35
    assert times["guest_nice"] == 0
    with pytest.raises(ValueError):
        stats.parse_cpu_times("intr 1 2 3\n")


def test_parse_cpu_times_pads_old_kernels():
    assert stats.parse_cpu_times("cpu 1 2 3 4\n")["steal"] == 0


def test_steal_share_is_stolen_over_total():
    before = stats.parse_cpu_times(PROC_STAT)
    after = dict(before, user=before["user"] + 90,
                 steal=before["steal"] + 10)
    assert stats.steal_share(before, after) == pytest.approx(0.10)
    assert stats.steal_share(before, before) is None
    assert stats.steal_share(None, after) is None


def test_parse_status_kib():
    text = "Name:\tpython3\nVmHWM:\t  204800 kB\nVmRSS:\t  1024 kB\n"
    assert stats.parse_status_kib(text, "VmHWM") == 204800
    assert stats.parse_status_kib(text, "VmRSS") == 1024
    with pytest.raises(ValueError):
        stats.parse_status_kib(text, "VmSwap")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs procfs")
def test_peak_rss_of_this_process_is_positive():
    assert stats.peak_rss_mb() > 1.0
    assert stats.peak_rss_mb(os.getpid()) > 1.0


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs sched_setaffinity")
def test_pin_reports_the_affinity_obtained():
    original = os.sched_getaffinity(0)
    try:
        one = {min(original)}
        assert stats.pin(0, one) == sorted(one)
        assert stats.pin(0, set()) == sorted(one)   # empty: leave as is
    finally:
        os.sched_setaffinity(0, original)

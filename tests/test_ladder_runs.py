"""The ladder benchmark still drives the program, traced and untraced.

The traced probes of ``ladder/probes.py`` call names below the facade
(``choose_strategy``, the ``containment_join`` counters, the list and
codec internals, the wire protocol functions), so a change to any of
them breaks only a traced ladder run.  Each case runs one workload at
smoke size through ``ladder/run.py``'s own command line, in a fresh
interpreter, and holds the result to the contract the benchmark
requires: exit status 0, ``correct: true`` and no failed operation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LADDER = ROOT / "ladder"

if not (LADDER / "run.py").is_file():
    pytest.skip("the ladder benchmark is not in this checkout",
                allow_module_level=True)

WORKLOADS = [workload["name"] for workload in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct(workload: str, trace: int) -> None:
    done = subprocess.run(
        [sys.executable, str(LADDER / "run.py"), "--workload", workload,
         "--seed", "0", "--smoke", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0

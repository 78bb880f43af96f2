#!/usr/bin/env python3
"""The ladder benchmark: four fixed workloads, one command.

One workload, as the benchmark driver calls it::

    python3 ladder/run.py --workload NAME --seed N --seconds S --trace 0|1

prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` -- every end-to-end metric of
``BENCHMARK.json`` untraced, every per-layer metric traced.  Without
``--workload`` it runs all four (each in its own process, untraced then
traced), prints every metric by name with its unit and writes
``ladder/results/run.json``.  ``--smoke`` shrinks the sizes twentyfold,
``--selfcheck`` runs the suite as two sets and compares them against
the benchmark's own bounds.  README.md has the definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

LADDER_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(LADDER_DIR)
RESULTS_DIR = os.path.join(LADDER_DIR, "results")
DIGESTS_PATH = os.path.join(LADDER_DIR, "digests.json")

#: An untraced run is this many parts, each a fresh interpreter that
#: sets up once and measures for its share of ``--seconds``; every
#: metric is the median over the parts.  Python's per-process hash seed
#: alone moves a round by +-8 % (README, "Why parts"), so a single
#: process measures one draw of that lottery; each part draws its own,
#: fixed by ``--seed`` so that a run can be repeated.
PARTS = 3
#: A part sets up in seconds and measures for ``--seconds / PARTS``.
PART_TIMEOUT_S = 150
#: Share of a part's seconds for the reads phase (read and batch rounds
#: in turn); the write phase gets the rest.
READS_SHARE = 0.5


def require_program(import_it: bool) -> None:
    """Put this checkout's ``src`` on the path, or exit without a result."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"ladder: no program to measure: {src}/repro is missing")
    sys.path.insert(0, src)
    if import_it:
        import repro
        if not os.path.abspath(repro.__file__).startswith(src + os.sep):
            sys.exit(f"ladder: imported repro from {repro.__file__}, "
                     f"not from this checkout")


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# -- one part: one process, one set-up ----------------------------------------

def refuse_changed_inputs(workload: str) -> None:
    """Refuse to time a workload whose generators have changed.

    Every part regenerates the default seed's smoke-size inputs (a few
    milliseconds) and compares their digest with the pinned one, so an
    edit to ``repro.data`` shows on any seed.
    """
    import inputs
    canary = inputs.digest_inputs(
        inputs.make_inputs(workload, inputs.DEFAULT_SEED, smoke=True))
    if canary != load_digests()[workload]["smoke"]["inputs"]:
        sys.exit(f"ladder: {workload}: the generators no longer produce "
                 f"the pinned inputs (digest {canary[:16]}...); refusing to "
                 f"time a different load.  If the change is intended, "
                 f"re-pin with --pin-digests.")


def measure_part(args: argparse.Namespace) -> dict:
    """Set up, measure and check one workload once, in this process."""
    import inputs
    import stats
    from reference import at_nominal_speed
    from spans import Tracer
    from workloads import make_target

    workload, seed, smoke = args.workload, args.seed, args.smoke
    refuse_changed_inputs(workload)
    workdir = os.path.join(LADDER_DIR, ".work", f"{workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    tracer = Tracer(enabled=False)
    target = make_target(workload, workdir, tracer)
    target.pin()
    seconds = 0.0 if smoke else float(args.seconds)
    phases: dict[str, dict] = {}

    def timed(name: str, run) -> object:
        before = stats.read_cpu_times()
        start = time.perf_counter()
        out = run()
        phases[name] = {
            "wall_s": time.perf_counter() - start,
            "steal_share": stats.steal_share(before, stats.read_cpu_times()),
        }
        return out

    def reference_runs(phase: str) -> None:
        target.kernel_samples.setdefault(phase, []).extend(
            target.kernel.run() for _ in range(stats.FLOOR_K))

    def set_up() -> dict[str, float]:
        reference_runs("setup")
        start = time.perf_counter()
        made = inputs.make_inputs(workload, seed, smoke=smoke)
        generated = time.perf_counter()
        target.set_up(made)
        spent = time.perf_counter() - start
        reference_runs("setup")
        return {"setup_s": spent, "generate_s": generated - start,
                **target.setup_parts}

    try:
        setup = timed("setup", set_up)
        target.establish()
        if seed == inputs.DEFAULT_SEED:
            # the default seed's own inputs and answers are pinned too
            pinned = load_digests()[workload]["smoke" if smoke else "full"]
            if inputs.digest_inputs(target.inputs) != pinned["inputs"]:
                sys.exit(f"ladder: {workload}: inputs of the default seed "
                         f"differ from the pinned digest")
            if inputs.digest_answers(target.read_answers,
                                     target.batch_answers) \
                    != pinned["answers"]:
                target.failed += 1
                target.failures.append("answers differ from the pinned "
                                       "digest")
        # Everything alive now is the benchmark's own: keep the collector
        # from walking it during the timed rounds.
        gc.collect()
        gc.freeze()
        extra: dict[str, object] = {}
        if args.trace:
            import probes
            metrics, extra = timed("trace", lambda: probes.traced_run(
                target, tracer, seconds, setup))
        else:
            reads = timed("reads", lambda: target.timed_rounds(
                "reads", target.read_lanes(), seconds * READS_SHARE))
            samples = {"read_ms": reads["read"], "batch_ms": reads["batch"]}
            samples["write_ms"], samples["rw_read_ms"] = timed(
                "rw", lambda: target.rw_phase(seconds * (1.0 - READS_SHARE)))
            # A phase's rounds and its kernel runs get the same estimator.
            estimate = {"setup": stats.floor, "reads": stats.floor,
                        "rw": target.rw_estimate}
            kernel = {phase: estimate[phase](values) for phase, values
                      in target.kernel_samples.items()}
            phase_of = {"read_ms": "reads", "batch_ms": "reads",
                        "write_ms": "rw", "rw_read_ms": "rw"}
            metrics = {name: at_nominal_speed(
                estimate[phase_of[name]](values),
                kernel[phase_of[name]]) * 1e3
                for name, values in samples.items()}
            metrics["setup_s"] = at_nominal_speed(setup["setup_s"],
                                                  kernel["setup"])
            metrics.update(timed("finish", target.finish))
            extra["raw"] = {
                name: {key: value * (1.0 if key == "rounds" else 1000.0)
                       for key, value in stats.summarize(values).items()}
                for name, values in samples.items()}
            extra["reference_kernel_ms"] = {
                phase: value * 1e3 for phase, value in kernel.items()}
    finally:
        target.tear_down()
        shutil.rmtree(workdir, ignore_errors=True)
    import numpy
    return {
        "metrics": metrics, "attempted": target.attempted,
        "failed": target.failed, "failures": target.failures,
        "setup_parts_s": setup, "phases": phases,
        "affinity": target.affinity, "sizes": target.inputs.sizes,
        "records": len(target.inputs.records),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "python": platform.python_version(), "numpy": numpy.__version__,
        **extra,
    }


# -- one run: the parts of one workload, combined ------------------------------

def spawn_part(args: argparse.Namespace, part: int, seconds: float) -> dict:
    command = [sys.executable, os.path.join(LADDER_DIR, "run.py"),
               "--part", str(part), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(seconds),
               "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    env = dict(os.environ,
               PYTHONHASHSEED=str(1 + (args.seed * PARTS + part) % 2**31))
    # Its own session, so that a part that hangs is stopped together
    # with the server it may have started.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             env=env, start_new_session=True)
    try:
        output, _ = child.communicate(timeout=PART_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.exit(f"ladder: part {part} of {args.workload} timed out")
    if child.returncode != 0:
        sys.exit(child.returncode)
    return json.loads(output.splitlines()[-1])


def run_workload(args: argparse.Namespace) -> dict:
    """Measure one workload: its parts one after another, then medians."""
    contract = load_contract()
    if args.workload not in workload_names(contract):
        sys.exit(f"ladder: unknown workload {args.workload!r}")
    if args.trace:
        parts = [spawn_part(args, 0, args.seconds)]
        wanted = contract["per_layer"]
    else:
        parts = [spawn_part(args, part, args.seconds / PARTS)
                 for part in range(PARTS)]
        wanted = contract["end_to_end"]
    missing = [m["name"] for m in wanted
               if any(m["name"] not in part["metrics"] for part in parts)]
    if missing:
        sys.exit(f"ladder: {args.workload}: metrics not measured: {missing}")
    attempted = sum(part["attempted"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {
            "value": statistics.median(part["metrics"][m["name"]]
                                       for part in parts),
            "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "traced": bool(args.trace), "seconds": args.seconds,
        "result": result, "failed_share": failed / max(1, attempted),
        "nproc": os.cpu_count(), "commit": commit(), "parts": parts,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    kind = "trace" if args.trace else "last"
    with open(os.path.join(RESULTS_DIR, f"{kind}_{args.workload}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return record


def commit() -> str | None:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None  # a plain checkout has no history


# -- the suite: every workload ------------------------------------------------

def spawn_run(workload: str, seed: int, seconds: int, trace: int,
              smoke: bool) -> dict:
    """Run one workload through the driver's own command line."""
    command = [sys.executable, os.path.join(LADDER_DIR, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if done.returncode != 0:
        sys.exit(f"ladder: {workload} (seed {seed}) failed")
    kind = "trace" if trace else "last"
    with open(os.path.join(RESULTS_DIR, f"{kind}_{workload}.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def print_metrics(record: dict) -> None:
    result = record["result"]
    mode = "traced" if record["traced"] else "untraced"
    print(f"{record['workload']} (seed {record['seed']}, {mode}): "
          f"{result['attempted']} operations, {result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.4f} {metric['unit']}")


def workload_names(contract: dict) -> list[str]:
    return [workload["name"] for workload in contract["workloads"]]


def run_suite(args: argparse.Namespace) -> int:
    contract = load_contract()
    records = []
    for workload in workload_names(contract):
        for trace in (0, 1):
            record = spawn_run(workload, args.seed, args.seconds, trace,
                               args.smoke)
            print_metrics(record)
            records.append(record)
    failed = sum(record["result"]["failed"] for record in records)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "run.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"contract": contract, "runs": records}, handle, indent=1)
    print(f"failed operations: {failed}")
    return 1 if failed else 0


def run_selfcheck(args: argparse.Namespace) -> int:
    """Two independent sets of runs of the same code must agree.

    Each set runs every workload on ``--runs`` seeds.  Fails, naming the
    metric and the workload, when a set's interquartile spread or the
    worsening of the second median against the first exceeds the
    metric's bound, when an operation failed, or when a count-type
    per-layer metric differs between the sets.
    """
    import stats
    contract = load_contract()
    seeds = [args.seed + 1 + index for index in range(args.runs)]
    problems: list[str] = []
    report: dict[str, dict] = {}
    for workload in workload_names(contract):
        sets = []
        traces = []
        for _ in range(2):
            runs = [spawn_run(workload, seed, args.seconds, 0, args.smoke)
                    for seed in seeds]
            sets.append(runs)
            traces.append(spawn_run(workload, seeds[0], args.seconds, 1,
                                    args.smoke))
        entry: dict[str, dict] = {}
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[run["result"]["metrics"][name]["value"]
                       for run in runs] for runs in sets]
            medians = [statistics.median(series) for series in values]
            spreads = [stats.quartile_spread(series) for series in values]
            worse = stats.worsening(medians[0], medians[1], metric["better"])
            entry[name] = {"unit": metric["unit"], "bound": bound,
                           "medians": medians, "spreads": spreads,
                           "worsening": worse, "values": values}
            if worse > bound:
                problems.append(f"{workload}: {name} second median worse "
                                f"by {worse:.1%} (bound {bound:.0%})")
            if name != "setup_s" and max(spreads) > bound:
                problems.append(f"{workload}: {name} spread "
                                f"{max(spreads):.1%} (bound {bound:.0%})")
        failed = sum(run["result"]["failed"] for runs in sets for run in runs)
        if failed:
            problems.append(f"{workload}: {failed} operations failed")
        counts = {}
        for metric in contract["per_layer"]:
            if metric["unit"] != "count":
                continue
            pair = [trace["result"]["metrics"][metric["name"]]["value"]
                    for trace in traces]
            counts[metric["name"]] = pair[0]
            if pair[0] != pair[1]:
                problems.append(f"{workload}: count {metric['name']} "
                                f"differs between sets: {pair}")
        report[workload] = {"end_to_end": entry, "counts": counts,
                            "failed": failed,
                            "trace": traces[0]["result"]["metrics"]}
        print(f"{workload}:")
        for name, row in entry.items():
            print(f"  {name:28s} median {row['medians'][0]:12.4f} / "
                  f"{row['medians'][1]:12.4f} {row['unit']:6s} spread "
                  f"{row['spreads'][0]:6.1%} / {row['spreads'][1]:6.1%}  "
                  f"worsening {row['worsening']:+6.1%}  "
                  f"bound {row['bound']:.0%}")
    for problem in problems:
        print("FAIL", problem)
    if not problems and not args.smoke:
        with open(os.path.join(RESULTS_DIR, "baseline.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"commit": commit(), "nproc": os.cpu_count(),
                       "seeds": seeds,
                       "seconds": args.seconds, "workloads": report},
                      handle, indent=1)
        print("selfcheck passed; wrote ladder/results/baseline.json")
    return 1 if problems else 0


# -- authoring-time tools ------------------------------------------------------

def default_seed_answers(workload: str, smoke: bool):
    """Inputs of the default seed and the target that answered them."""
    import inputs
    from spans import Tracer
    from workloads import make_target
    made = inputs.make_inputs(workload, inputs.DEFAULT_SEED, smoke=smoke)
    workdir = os.path.join(LADDER_DIR, ".work", f"author-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    target = make_target(workload, workdir, Tracer(enabled=False))
    try:
        target.set_up(made)
        target.establish()
    finally:
        target.tear_down()
        shutil.rmtree(workdir, ignore_errors=True)
    if target.failed:
        sys.exit(f"ladder: {workload}: {target.failures}")
    return made, target


def pin_digests() -> int:
    """Rewrite ``digests.json`` from the default seed's inputs and answers."""
    import inputs
    pinned: dict[str, dict] = {}
    for workload in inputs.WORKLOADS:
        pinned[workload] = {}
        for scale, smoke in (("full", False), ("smoke", True)):
            made, target = default_seed_answers(workload, smoke)
            pinned[workload][scale] = {
                "seed": inputs.DEFAULT_SEED,
                "inputs": inputs.digest_inputs(made),
                "answers": inputs.digest_answers(target.read_answers,
                                                 target.batch_answers),
            }
            print(workload, scale, pinned[workload][scale]["inputs"][:16])
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1)
        handle.write("\n")
    return 0


def verify_oracle(smoke: bool) -> int:
    """Check the default seed's answers against ``core/naive.py``."""
    import inputs
    from repro.core.naive import NaiveScanner
    wrong = 0
    for workload in inputs.WORKLOADS:
        made, target = default_seed_answers(workload, smoke)
        scanner = NaiveScanner(made.records)
        for queries, answers in ((made.reads, target.read_answers),
                                 (made.batch, target.batch_answers)):
            for query, answer in zip(queries, answers):
                if sorted(scanner.query(query.query)) != sorted(answer):
                    wrong += 1
                    print(f"{workload} {query.key}: differs from the oracle")
        print(f"{workload}: {len(made.reads) + len(made.batch)} answers "
              f"checked against the naive scanner")
    return 1 if wrong else 0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per workload in each selfcheck set")
    parser.add_argument("--pin-digests", action="store_true")
    parser.add_argument("--verify-oracle", action="store_true")
    parser.add_argument("--part", type=int, default=None,
                        help=argparse.SUPPRESS)   # internal: one part
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    measures_here = args.part is not None or args.pin_digests \
        or args.verify_oracle
    require_program(import_it=measures_here)
    if args.seconds is None:
        args.seconds = load_contract()["run_seconds"]
    if args.part is not None:
        print(json.dumps(measure_part(args)))
        return 0
    if args.pin_digests:
        return pin_digests()
    if args.verify_oracle:
        return verify_oracle(args.smoke)
    if args.selfcheck:
        return run_selfcheck(args)
    if args.workload is None:
        return run_suite(args)
    record = run_workload(args)
    print_metrics(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

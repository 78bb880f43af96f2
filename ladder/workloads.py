"""The four workloads as things the benchmark can set up and drive.

A :class:`Target` owns one index (and, for ``served_rw``, one server
subprocess) built from one :class:`~inputs.Inputs`.  It exposes the
three timed phases every workload has --

* ``read_round``   every operation of ``inputs.reads`` on its own,
* ``batch_round``  ``inputs.batch`` handed over at once,
* ``rw_phase``     durable inserts of fresh records with batch rounds
                   beside them,

-- and checks every answer it gets.  Storage is the default stack
throughout: ``diskhash`` pages, packed blocks, mmap reads, MVCC
snapshots, synchronous WAL.  Calls into the program are wrapped in
``tracer.span`` (a no-op unless the run is traced).
"""

from __future__ import annotations

import contextlib
import gc
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, Sequence

from repro import NestedSetIndex
from repro.core.join import containment_join
from repro.data import BenchmarkQuery
from repro.server import ServiceClient

import stats
from inputs import Inputs, Record
from reference import ReferenceKernel
from spans import Tracer

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

#: Untimed rounds before a phase's first timed one; ``establish`` has
#: already run every path once by then.
WARMUP_ROUNDS = 1

#: Durable single-record inserts per second in the served write phase.
#: Fixed, so a slower server still receives the same writes; and slow
#: enough that the writer keeps its schedule (an acknowledgement beside
#: the reader takes 60 ms; at 20 /s every insert was sent late and the
#: phase ran half as long again as planned).
SERVED_INSERT_RATE = 12.0
#: In-flight requests of the pipelined reader.
PIPELINE_WINDOW = 32
#: Stretches of the served write phase, and reference-kernel runs
#: around each.
RW_SEGMENTS = 4
RW_KERNEL_RUNS = 3

Answers = list[list[str]]


class Target:
    """One in-process index; base of every workload."""

    shards = 1
    #: How the samples of the write phase become ``write_ms`` and
    #: ``rw_read_ms``.  Its rounds run one after another here, so the
    #: slow ones are the host's doing and ``floor`` drops them.
    rw_estimate = staticmethod(stats.floor)

    def __init__(self, workdir: str, tracer: Tracer) -> None:
        self.workdir = workdir
        self.tracer = tracer
        self.inputs: Inputs | None = None
        self.index = None
        self.path: str | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.index_bytes = 0
        self.setup_parts: dict[str, float] = {}
        self.affinity: dict[str, list[int]] = {}
        self._setups = 0
        self._inserted: set[str] = set()
        self.read_answers: Answers = []
        self.batch_answers: Answers = []
        self.kernel = ReferenceKernel()
        #: Reference-kernel times, by the phase they were taken in.
        self.kernel_samples: dict[str, list[float]] = {}

    # -- host ----------------------------------------------------------------

    def pin(self) -> None:
        """In-process work runs alone on the highest-numbered CPU."""
        cpus = stats.usable_cpus()
        self.affinity["benchmark"] = stats.pin(
            0, {max(cpus)} if cpus else set())

    # -- set-up --------------------------------------------------------------

    def set_up(self, inputs: Inputs) -> None:
        """Build on disk, close, reopen: what a user pays before query 1."""
        self.tear_down()
        self.inputs = inputs
        self._setups += 1
        directory = os.path.join(self.workdir, f"setup{self._setups}")
        os.makedirs(directory)
        self.path = os.path.join(directory, "index")
        start = time.perf_counter()
        with self.tracer.span("engine.build"):
            NestedSetIndex.build(inputs.records, storage="diskhash",
                                 path=self.path, shards=self.shards).close()
        built = time.perf_counter()
        self._open()
        self.setup_parts = {"build_s": built - start,
                            "open_s": time.perf_counter() - built}
        self.index_bytes = sum(
            os.path.getsize(os.path.join(directory, name))
            for name in os.listdir(directory))

    def _open(self) -> None:
        with self.tracer.span("engine.open"):
            self.index = NestedSetIndex.open("diskhash", self.path)

    @contextlib.contextmanager
    def local_index(self):
        """An in-process handle on the index, for the layer probes."""
        yield self.index

    def mark_inserted(self, group: Sequence[Record]) -> None:
        """Answers may hold these keys from now on."""
        self.attempted += len(group)
        self._inserted.update(key for key, _tree in group)

    def tear_down(self) -> None:
        if self.index is not None:
            self.index.close()
            self.index = None
        if self.path is not None:
            shutil.rmtree(os.path.dirname(self.path), ignore_errors=True)
            self.path = None

    # -- operations ----------------------------------------------------------

    def read_round(self) -> object:
        query, span = self.index.query, self.tracer.span
        out = []
        for read in self.inputs.reads:
            with span("engine.query"):
                out.append(query(read.query))
        return out

    def batch_round(self) -> object:
        with self.tracer.span("engine.query_batch"):
            return self.index.query_batch(
                [read.query for read in self.inputs.batch],
                share_subqueries=True)

    def answers_of(self, raw: object) -> Answers:
        """Normalize what a round returned (outside the timed region)."""
        return raw  # type: ignore[return-value]

    def insert_group(self, group: Sequence[Record]) -> None:
        with self.tracer.span("engine.insert_batch"):
            self.index.insert_batch(group)

    # -- checking ------------------------------------------------------------

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def establish(self) -> None:
        """Answer both lists once and hold the answers to the invariants.

        Positive queries contain their source record, negative ones are
        empty; where both lists are the same queries, one-at-a-time and
        batched answers are equal.  Later rounds must repeat these.
        """
        self.read_answers = self.answers_of(self.read_round())
        self.batch_answers = self.answers_of(self.batch_round())
        for label, queries, answers in (
                ("read", self.inputs.reads, self.read_answers),
                ("batch", self.inputs.batch, self.batch_answers)):
            self.attempted += len(queries)
            if len(answers) != len(queries):
                self._fail(f"{label}: {len(answers)} answers for "
                           f"{len(queries)} queries")
                continue
            for query, answer in zip(queries, answers):
                if query.positive and query.source_key not in answer:
                    self._fail(f"{label} {query.key}: source record missing")
                elif not query.positive and answer:
                    self._fail(f"{label} {query.key}: negative query matched")
        if self.inputs.batch is self.inputs.reads \
                and self.read_answers != self.batch_answers:
            self._fail("one-at-a-time and batched answers differ")

    def check(self, expected: Answers, got: Answers) -> None:
        """Count every answer that is not the expected one.

        After inserts an answer may also hold keys of inserted records,
        and nothing else.
        """
        self.attempted += len(expected)
        if len(got) != len(expected):
            self.failed += len(expected)
            self.failures.append(f"{len(got)} answers for {len(expected)}")
            return
        if got == expected:
            return
        inserted = self._inserted
        for index, (want, have) in enumerate(zip(expected, got)):
            if want == have:
                continue
            extra = set(have) - set(want)
            if not inserted or set(want) - set(have) \
                    or not extra <= inserted:
                self._fail(f"operation {index}: wrong answer")

    # -- phases --------------------------------------------------------------

    def timed_rounds(self, phase: str,
                     lanes: dict[str, tuple[Callable[[], object], Answers]],
                     seconds: float) -> dict[str, list[float]]:
        """Warm up, then time whole rounds until ``seconds`` are spent.

        ``lanes`` maps a name to (round function, expected answers); the
        lanes take their rounds in turn, so each one's samples span the
        whole phase and a slow stretch of the host hits all alike.  GC
        is off inside a round and run between rounds; every round's
        answers are checked outside the timed region.
        """
        deadline = time.perf_counter() + seconds
        samples: dict[str, list[float]] = {name: [] for name in lanes}
        kernel = self.kernel_samples.setdefault(phase, [])
        number = -WARMUP_ROUNDS
        while number < stats.FLOOR_K or time.perf_counter() < deadline:
            for name, (round_fn, expected) in lanes.items():
                self.tracer.round_id = f"{name}:{number}"
                gc.collect()
                gc.disable()
                try:
                    kernel.append(self.kernel.run())
                    with self.tracer.span(f"round.{name}"):
                        start = time.perf_counter()
                        raw = round_fn()
                        elapsed = time.perf_counter() - start
                finally:
                    gc.enable()
                self.check(expected, self.answers_of(raw))
                if number >= 0:
                    samples[name].append(elapsed)
            number += 1
        self.tracer.round_id = None
        return samples

    def read_lanes(self) -> dict[str, tuple[Callable[[], object], Answers]]:
        return {"read": (self.read_round, self.read_answers),
                "batch": (self.batch_round, self.batch_answers)}

    def rw_phase(self, seconds: float) -> tuple[list[float], list[float]]:
        """Alternate one durable insert group and one batch round.

        Returns (insert samples, read samples).  The read right after a
        commit pays for whatever the commit invalidated.
        """
        groups = self.inputs.fresh_groups()
        deadline = time.perf_counter() + seconds
        writes: list[float] = []
        reads: list[float] = []
        kernel = self.kernel_samples.setdefault("rw", [])
        number = -WARMUP_ROUNDS
        while number < stats.FLOOR_K or time.perf_counter() < deadline:
            if not groups:
                break
            group = groups.pop(0)
            self.tracer.round_id = f"rw:{number}"
            gc.collect()
            gc.disable()
            try:
                kernel.append(self.kernel.run())
                with self.tracer.span("round.rw"):
                    start = time.perf_counter()
                    self.insert_group(group)
                    middle = time.perf_counter()
                    raw = self.batch_round()
                    end = time.perf_counter()
            finally:
                gc.enable()
            self.mark_inserted(group)
            self.check(self.batch_answers, self.answers_of(raw))
            if number >= 0:
                writes.append(middle - start)
                reads.append(end - middle)
            number += 1
        self.tracer.round_id = None
        return writes, reads

    # -- end of run ----------------------------------------------------------

    def finish(self) -> dict[str, float]:
        """Cross-check the paths once more on the grown index, then
        report memory and space."""
        reads = self.answers_of(self.read_round())
        batch = self.answers_of(self.batch_round())
        self.check(self.read_answers, reads)
        self.check(self.batch_answers, batch)
        if self.inputs.batch is self.inputs.reads and reads != batch:
            self._fail("answers differ between paths after the inserts")
        self._check_durable(reads)
        return {
            "peak_rss_mb": self.peak_rss_mb(),
            "index_bytes_per_input_byte":
                self.index_bytes / self.inputs.text_bytes,
        }

    def _check_durable(self, _reads: Answers) -> None:
        """Close, reopen, and find every inserted record again."""
        self.index.close()
        self._open()
        present = {key for key, _tree in self.index.records()}
        for key in sorted(self._inserted - present):
            self._fail(f"acknowledged insert {key} lost")

    def peak_rss_mb(self) -> float:
        return stats.peak_rss_mb()


class JoinTarget(Target):
    """``join_mixed``: both query lists go through the join operator."""

    def _join(self, queries: Sequence[BenchmarkQuery]) -> object:
        with self.tracer.span("join.containment_join"):
            return containment_join(
                self.index, [(q.key, q.query) for q in queries],
                strategy="adaptive")

    def read_round(self) -> object:
        return self._join(self.inputs.reads)

    def batch_round(self) -> object:
        return self._join(self.inputs.batch)

    def answers_of(self, raw: object) -> Answers:
        return list(raw.grouped().values())  # type: ignore[attr-defined]


class ServedTarget(Target):
    """``served_rw``: a four-shard index behind a server subprocess.

    Load generator and server are pinned to the *same* CPU.  A request
    handed between two virtual CPUs waits for the hypervisor to wake the
    other one, and the reference kernel can only follow the speed of the
    CPU it runs on (README, "Pinning"): with the server on its own CPU
    the synchronous rounds of ten seeds spread by 7 to 24 %, on one CPU
    by 2 %, and every phase was faster.
    """

    shards = 4
    #: Reader and writer run side by side: a round is slow *because* an
    #: insert landed in it, and ``floor`` would report the rounds that
    #: none did.  The median keeps the interference and is steady
    #: (write medians of nine parts: 41.5 to 57.3 ms, floors 23 to 29).
    rw_estimate = staticmethod(statistics.median)

    def __init__(self, workdir: str, tracer: Tracer) -> None:
        super().__init__(workdir, tracer)
        self.server: subprocess.Popen | None = None
        self.client: ServiceClient | None = None
        self.port = 0
        self._server_rss_mb = 0.0
        self._read_texts: list[str] = []
        self._acked: set[str] = set()

    def _open(self) -> None:
        """Start the server (its open is the reopen) and wait for a ping."""
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        with self.tracer.span("server.start"):
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", self.path,
                 "--storage", "diskhash", "--port", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                env=env, text=True)
            # Same CPU as the load generator: see the class docstring.
            self.affinity["server"] = stats.pin(
                self.server.pid, set(self.affinity.get("benchmark", ())))
            line = self.server.stdout.readline()
            if not line.startswith("serving "):
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.split(" on ")[1].split()[0]
                            .rpartition(":")[2])
            self.client = ServiceClient(port=self.port)
            self.client.ping()
        self._read_texts = [read.query.to_text()
                            for read in self.inputs.reads]

    @contextlib.contextmanager
    def local_index(self):
        """Stop the server, lend the files to this process, restart it."""
        self._stop_server(kill=False)
        try:
            with NestedSetIndex.open("diskhash", self.path) as index:
                yield index
        finally:
            self._open()

    def tear_down(self) -> None:
        self._stop_server(kill=False)
        super().tear_down()

    def _stop_server(self, kill: bool) -> None:
        if self.client is not None:
            if not kill:
                try:
                    self.client.shutdown()
                except Exception:  # noqa: BLE001 - best effort, kill follows
                    pass
            self.client.close()
            self.client = None
        if self.server is not None:
            if kill:
                self.server.kill()
            try:
                self.server.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
            self.server = None

    def read_round(self) -> object:
        query, span = self.client.query, self.tracer.span
        out = []
        for text in self._read_texts:
            with span("client.query"):
                out.append(query(text))
        return out

    def batch_round(self) -> object:
        with self.tracer.span("client.query_pipelined"):
            return self.client.query_pipelined(self._read_texts,
                                               window=PIPELINE_WINDOW)

    def rw_phase(self, seconds: float) -> tuple[list[float], list[float]]:
        """Pipelined reader beside a writer thread at a fixed rate.

        The writer works in ``RW_SEGMENTS`` stretches, and the reference
        kernel runs before, between and after them, while both threads
        rest: beside the writer it would share the CPU with the server's
        commits and time those.
        """
        count = max(stats.FLOOR_K, int(seconds * SERVED_INSERT_RATE))
        fresh = self.inputs.fresh[:count]
        acks: list[float] = []
        reads: list[float] = []
        errors: list[str] = []
        # Keys count as possibly visible from the moment they are sent.
        sent = self._inserted

        def write(records: Sequence[Record]) -> None:
            interval = 1.0 / SERVED_INSERT_RATE
            try:
                with ServiceClient(port=self.port) as writer:
                    begin = time.perf_counter()
                    for number, (key, tree) in enumerate(records):
                        delay = begin + number * interval \
                            - time.perf_counter()
                        if delay > 0:
                            time.sleep(delay)
                        text = tree.to_text()
                        sent.add(key)
                        start = time.perf_counter()
                        writer.insert(key, text)
                        acks.append(time.perf_counter() - start)
            except Exception as exc:  # noqa: BLE001 - counted as failures
                errors.append(repr(exc))

        kernel = self.kernel_samples.setdefault("rw", [])
        kernel.extend(self.kernel.run() for _ in range(RW_KERNEL_RUNS))
        stretch = -(-count // RW_SEGMENTS)
        number = 0
        for first in range(0, count, stretch):
            thread = threading.Thread(
                target=write, args=(fresh[first:first + stretch],),
                name="ladder-writer")
            thread.start()
            while thread.is_alive():
                self.tracer.round_id = f"rw:{number}"
                with self.tracer.span("round.rw"):
                    start = time.perf_counter()
                    raw = self.batch_round()
                    elapsed = time.perf_counter() - start
                self.check(self.batch_answers, raw)
                reads.append(elapsed)
                number += 1
            thread.join()
            kernel.extend(self.kernel.run() for _ in range(RW_KERNEL_RUNS))
        self.tracer.round_id = None
        self.attempted += len(fresh)
        # an insert that was sent but never acknowledged is a failure,
        # though not a durability claim
        for _ in range(len(fresh) - len(acks)):
            self._fail("insert not acknowledged: "
                       + (errors[0] if errors else "unknown"))
        self._acked = {key for key, _tree in fresh[:len(acks)]}
        return acks, reads

    def _check_durable(self, reads: Answers) -> None:
        """``kill -9`` the server, reopen the files in this process, and
        count every acknowledged insert that is gone; the reopened index
        must also answer the reads as the server last did."""
        self._server_rss_mb = stats.peak_rss_mb(self.server.pid)
        self._stop_server(kill=True)
        with NestedSetIndex.open("diskhash", self.path) as index:
            present = {key for key, _tree in index.records()}
            for key in sorted(self._acked - present):
                self._fail(f"acknowledged insert {key} lost after kill -9")
            # unacknowledged inserts may or may not have landed
            self._inserted = {key for key in self._inserted
                              if key in present}
            local = [index.query(read.query) for read in self.inputs.reads]
        self.attempted += len(local)
        if local != reads:
            self._fail("reopened index answers differ from the server's")

    def peak_rss_mb(self) -> float:
        return self._server_rss_mb


def make_target(workload: str, workdir: str, tracer: Tracer) -> Target:
    if workload == "served_rw":
        return ServedTarget(workdir, tracer)
    if workload == "join_mixed":
        return JoinTarget(workdir, tracer)
    return Target(workdir, tracer)

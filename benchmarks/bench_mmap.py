"""Experiment MM1: concurrent read throughput, mmap vs. locked reads.

The pager's mapped read path exists for exactly one reason: clean-page
reads taken from the read-only mapping do not serialize on ``_io_lock``,
so concurrent readers scale with cores instead of convoying behind one
file descriptor.  This experiment measures that, at two levels:

* **pager**: N threads each read the same shuffled set of committed
  pages; aggregate page reads/second, mapped against locked
  (``use_mmap=False``).
* **index**: N threads run containment queries against one disk-backed
  index with the posting caches cleared between queries, so every query
  re-reads its pages; aggregate queries/second for both pager modes,
  with the result sets checked identical.

Results land in ``bench_results/BENCH_mmap.json``.  The guard is
correctness plus a sanity floor: with 4 readers the mapped path must not
fall behind the locked path (its entire purpose is to be no worse single
threaded and better contended).
"""

from __future__ import annotations

import json
import os
import random
import threading
import time

from repro.bench.reporting import RESULTS_DIR
from repro.core.engine import NestedSetIndex
from repro.storage.pager import Pager

PAGE = 4096
N_PAGES = 1_500
PAGE_ROUNDS = 6
THREADS = (1, 2, 4)

INDEX_RECORDS = 2_500
INDEX_QUERIES = 24
QUERY_ROUNDS = 2


def _run_threads(n_threads: int, work) -> float:
    """Run ``work(thread_no)`` on ``n_threads`` threads; wall seconds."""
    start_gate = threading.Barrier(n_threads + 1)
    threads = [threading.Thread(target=lambda i=i: (start_gate.wait(),
                                                    work(i)))
               for i in range(n_threads)]
    for thread in threads:
        thread.start()
    start_gate.wait()
    began = time.perf_counter()
    for thread in threads:
        thread.join()
    return time.perf_counter() - began


def _pager_throughput(path: str, use_mmap: bool) -> dict[str, float]:
    pager = Pager(path, page_size=PAGE, use_mmap=use_mmap)
    order = list(range(1, N_PAGES + 1))
    random.Random(5).shuffle(order)
    try:
        out = {}
        for n_threads in THREADS:
            def read_all(_thread_no: int) -> None:
                for _ in range(PAGE_ROUNDS):
                    for page_id in order:
                        pager.read(page_id)
            elapsed = _run_threads(n_threads, read_all)
            total = n_threads * PAGE_ROUNDS * N_PAGES
            out[str(n_threads)] = round(total / elapsed, 1)
        return out
    finally:
        pager.close()


def _corpus():
    rng = random.Random(17)
    for i in range(INDEX_RECORDS):
        atoms = {f"a{rng.randrange(40)}" for _ in range(rng.randrange(2, 7))}
        atoms.add("hot")
        yield f"k{i}", atoms


def _queries() -> list:
    rng = random.Random(18)
    return [{"hot", f"a{rng.randrange(40)}", f"a{rng.randrange(40)}"}
            for _ in range(INDEX_QUERIES)]


def _query_throughput(path: str, use_mmap: bool):
    index = NestedSetIndex.open("diskhash", path, use_mmap=use_mmap)
    queries = _queries()
    try:
        baseline = [sorted(index.query(query)) for query in queries]
        out = {}
        for n_threads in THREADS:
            mismatch: list[int] = []

            def run_queries(_thread_no: int) -> None:
                for _ in range(QUERY_ROUNDS):
                    for q_no, query in enumerate(queries):
                        # Cold posting reads every time: the measurement
                        # targets the page read path, not cache hits.
                        index.inverted_file.cache.clear()
                        index.inverted_file.block_cache.clear()
                        if sorted(index.query(query)) != baseline[q_no]:
                            mismatch.append(q_no)
                            return
            elapsed = _run_threads(n_threads, run_queries)
            assert not mismatch, \
                f"concurrent result drift (mmap={use_mmap}): {mismatch}"
            total = n_threads * QUERY_ROUNDS * len(queries)
            out[str(n_threads)] = round(total / elapsed, 1)
        return out, baseline
    finally:
        index.close()


def test_concurrent_read_scaling(tmp_path):
    # One committed page file for the pager section ...
    pager_path = str(tmp_path / "pages.pg")
    pager = Pager(pager_path, page_size=PAGE, create=True)
    pager.begin()
    for tag in range(N_PAGES):
        pager.write(pager.allocate(), (b"%08d" % tag).ljust(PAGE, b"\x5A"))
    pager.commit()
    pager.close()

    # ... and one disk-backed index for the query section.
    index_path = str(tmp_path / "corpus.ix")
    NestedSetIndex.build(_corpus(), storage="diskhash",
                         path=index_path).close()

    pages_mapped = _pager_throughput(pager_path, use_mmap=True)
    pages_locked = _pager_throughput(pager_path, use_mmap=False)
    queries_mapped, expected = _query_throughput(index_path, use_mmap=True)
    queries_locked, got = _query_throughput(index_path, use_mmap=False)
    assert got == expected, "mmap and locked paths disagree on results"

    payload = {
        "experiment": "BENCH_mmap",
        "workload": {
            "pager": f"{N_PAGES} pages x {PAGE_ROUNDS} rounds per thread, "
                     f"page_size={PAGE}",
            "index": f"{INDEX_RECORDS} records (diskhash), "
                     f"{INDEX_QUERIES} queries x {QUERY_ROUNDS} rounds per "
                     "thread, caches cleared per query",
            "threads": list(THREADS),
        },
        "page_reads_per_s": {"mmap": pages_mapped, "locked": pages_locked},
        "queries_per_s": {"mmap": queries_mapped, "locked": queries_locked},
        "scaling_mmap_4_over_1": round(
            pages_mapped["4"] / pages_mapped["1"], 2),
        "speedup_mmap_over_locked_4_threads": round(
            pages_mapped["4"] / pages_locked["4"], 2),
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "BENCH_mmap.json"), "w") as handle:
        json.dump(payload, handle, indent=2)

    assert pages_mapped["4"] >= pages_locked["4"], payload

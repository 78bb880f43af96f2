"""The traced run: per-layer metrics of one workload.

``traced_run`` repeats the workload's phases with the span recorder on,
then probes each layer from the outside in, replaying through the
layer's public functions exactly what the workload's reads touch: the
store keys of their atoms, the pages behind those keys, the blocks of
their posting lists, their wire frames.  Every probe works on every
workload (a layer a workload bypasses shows as a small number, not as a
missing one).  Times are ``floor`` over rounds, like the end-to-end
metrics; counts are taken from one pass with fresh counters and caches
and repeat exactly for the same seed.

README.md ("Layers") says which end-to-end metric each number should
move, and on which workload it should not.
"""

from __future__ import annotations

import gc
import time
from typing import Callable

from repro import NestedSetIndex
from repro.core.invfile import _atom_store_key
from repro.core.join import containment_join
from repro.core.postings import LazyPostingList, intersect
from repro.core.prefixjoin import choose_strategy
from repro.server.protocol import (
    decode_request_body,
    decode_response_body,
    encode_request_binary,
    encode_response_for,
    ok_response,
)
from repro.storage.codec import (
    decode_blocked_header,
    decode_packed_arrays,
    encode_blocked,
)

import stats
from spans import Tracer
from workloads import ServedTarget, Target

#: Shares of ``--seconds`` in a traced run; the layer probes split
#: what the phases leave.
OVERHEAD_SHARE = 0.10
PHASE_SHARE = 0.10
#: Pages ``pager.read_us`` reads per round, evenly spread over the file.
PAGE_SAMPLE = 512
#: Posting lists ``codec.encode_mpost_s`` re-encodes (the longest ones).
ENCODE_LISTS = 8


def engines_of(index) -> tuple:
    """The monolithic engines behind an index (one per shard)."""
    return tuple(getattr(index, "shards", (index,)))


def base_store_of(index):
    return getattr(index, "base_store", None) or index.inverted_file.store


class Prober:
    """Runs named probes for a fixed slice of time each."""

    def __init__(self, tracer: Tracer, slice_s: float) -> None:
        self.tracer = tracer
        self.slice_s = slice_s
        self.rounds: dict[str, int] = {}

    def floor(self, name: str, run: Callable[[], object],
              before: Callable[[], object] | None = None) -> float:
        """``floor`` of ``run()`` in seconds; ``before`` runs untimed."""
        return self.floors({name: run}, before)[name]

    def floors(self, runs: dict[str, Callable[[], object]],
               before: Callable[[], object] | None = None
               ) -> dict[str, float]:
        """``floor`` of each of ``runs``, their rounds taken in turn.

        Numbers that are read as a difference (facade against snapshot,
        traced against untraced) are measured this way, so that a slow
        minute of the host hits both sides alike.
        """
        deadline = time.perf_counter() + self.slice_s * len(runs)
        samples: dict[str, list[float]] = {name: [] for name in runs}
        number = -1                      # one untimed warm-up
        while number < stats.FLOOR_K or time.perf_counter() < deadline:
            for name, run in runs.items():
                if before is not None:
                    before()
                self.tracer.round_id = f"probe.{name}:{number}"
                gc.disable()
                try:
                    with self.tracer.span(f"probe.{name}"):
                        start = time.perf_counter()
                        run()
                        elapsed = time.perf_counter() - start
                finally:
                    gc.enable()
                if number >= 0:
                    samples[name].append(elapsed)
            number += 1
        self.tracer.round_id = None
        self.rounds.update({name: len(values)
                            for name, values in samples.items()})
        return {name: stats.floor(values)
                for name, values in samples.items()}


def clear_caches(index) -> None:
    for engine in engines_of(index):
        engine.inverted_file.cache.clear()
        engine.inverted_file.block_cache.clear()


def index_counters(index) -> dict[str, float]:
    """The counters of ``index.stats()`` the probes read, flattened."""
    snap = index.stats()
    out = {f"index.{k}": v for k, v in snap["index"].items()
           if isinstance(v, (int, float))}
    out.update({f"store.{k}": v for k, v in snap["store"].items()})
    out.update({f"wal.{k}": v for k, v in snap.get("wal", {}).items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)})
    hits = misses = evictions = 0
    for engine in engines_of(index):
        block_stats = engine.inverted_file.block_cache.stats
        hits += block_stats.hits
        misses += block_stats.misses
        evictions += block_stats.evictions
    out.update({"block.hits": hits, "block.misses": misses,
                "block.evictions": evictions})
    return out


def delta(after: dict[str, float], before: dict[str, float]
          ) -> dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


def layer_probes(index, target: Target, prober: Prober) -> dict[str, float]:
    """Everything measured on an in-process handle of the fresh index."""
    inputs = target.inputs
    tracer = prober.tracer
    reads = [read.query for read in inputs.reads]
    n_ops = len(reads)
    node_atoms = [sorted(node.atoms, key=str) for query in reads
                  for node in query.iter_sets() if node.atoms]
    atoms = [atom for group in node_atoms for atom in group]
    engines = engines_of(index)
    out: dict[str, float] = {}

    def run_reads(query_fn) -> Callable[[], object]:
        def run() -> None:
            for query in reads:
                with tracer.span("engine.query"):
                    query_fn(query)
        return run

    # -- counts: one cold pass, then one warm pass, fresh counters ---------
    clear_caches(index)
    index.reset_stats()
    before = index_counters(index)
    run_reads(index.query)()
    cold = delta(index_counters(index), before)
    before = index_counters(index)
    run_reads(index.query)()
    warm = delta(index_counters(index), before)
    gets = max(1, cold["store.gets"])
    out["diskhash.gets_per_op"] = cold["store.gets"] / n_ops
    out["diskhash.pages_per_get"] = cold["store.page_reads"] / gets
    out["pager.page_reads_per_op"] = cold["store.page_reads"] / n_ops
    out["pager.bytes_read_per_op"] = cold["store.bytes_read"] / n_ops
    out["invfile.lists_per_op"] = cold["index.postings_requests"] / n_ops
    out["invfile.bytes_decoded_per_op"] = cold["index.bytes_decoded"] / n_ops
    out["postings.blocks_read_per_op"] = cold["index.blocks_read"] / n_ops
    out["postings.blocks_skipped_per_op"] = \
        cold["index.blocks_skipped"] / n_ops
    touched = cold["index.blocks_read"] + cold["index.blocks_skipped"]
    out["postings.skip_ratio"] = \
        cold["index.blocks_skipped"] / touched if touched else 0.0
    lookups = warm["block.hits"] + warm["block.misses"]
    out["cache.block_hit_rate"] = \
        warm["block.hits"] / lookups if lookups else 0.0
    out["cache.block_evictions"] = cold["block.evictions"] \
        + warm["block.evictions"]

    # -- storage.diskhash / storage.pager ----------------------------------
    snapshots = [engine.snapshot() for engine in engines]
    try:
        ifiles = [snap.inverted_file for snap in snapshots]
        keys = [_atom_store_key(atom) for atom in atoms]

        def get_all() -> None:
            for ifile in ifiles:
                get = ifile.store.get
                for key in keys:
                    get(key)
        out["diskhash.get_us"] = prober.floor("diskhash.get", get_all) \
            / (len(keys) * len(ifiles)) * 1e6

        pager = base_store_of(index).pager
        step = max(1, pager.n_pages // PAGE_SAMPLE)
        page_ids = list(range(1, pager.n_pages + 1, step))
        with pager.reader() as reader:
            def read_pages() -> None:
                read = reader.read
                for page_id in page_ids:
                    read(page_id)
            out["pager.read_us"] = prober.floor("pager.read", read_pages) \
                / len(page_ids) * 1e6

        # -- storage.codec: the blocks of every touched list ---------------
        raws = []
        for ifile in ifiles:
            for key in dict.fromkeys(keys):
                raw = ifile.store.get(key)
                if raw is not None:
                    raws.append(raw)
        headers = [decode_blocked_header(raw) for raw in raws]
        n_postings = sum(header.total for header in headers)

        def decode_headers() -> None:
            for raw in raws:
                decode_blocked_header(raw)
        out["codec.header_us"] = prober.floor("codec.header",
                                              decode_headers) \
            / max(1, len(raws)) * 1e6

        def decode_blocks() -> None:
            for raw, header in zip(raws, headers):
                for info in header.blocks:
                    decode_packed_arrays(raw, info)
        out["codec.decode_mpost_s"] = n_postings / 1e6 \
            / prober.floor("codec.decode", decode_blocks)
        out["codec.bytes_per_posting"] = \
            sum(len(raw) for raw in raws) / max(1, n_postings)

        longest = sorted(range(len(raws)),
                         key=lambda i: (-headers[i].total, i))[:ENCODE_LISTS]
        decoded = [list(LazyPostingList(raws[i]).entries) for i in longest]
        n_encoded = sum(len(entries) for entries in decoded)

        def encode_lists() -> None:
            for entries in decoded:
                encode_blocked(entries)
        out["codec.encode_mpost_s"] = n_encoded / 1e6 \
            / prober.floor("codec.encode", encode_lists)

        # -- core.invfile / core.postings ----------------------------------
        def fetch_lists() -> None:
            for ifile in ifiles:
                postings = ifile.postings
                for atom in atoms:
                    postings(atom)
        out["invfile.postings_us"] = \
            prober.floor("invfile.postings", fetch_lists) \
            / (len(atoms) * len(ifiles)) * 1e6
        fetch_s = out["invfile.postings_us"] * len(atoms) * len(ifiles) / 1e6

        groups = [[[ifile.postings(atom) for atom in group]
                   for group in node_atoms] for ifile in ifiles]

        def intersect_all() -> None:
            for per_engine in groups:
                for lists in per_engine:
                    len(intersect(lists).entries)
        warm_s = prober.floor("postings.intersect", intersect_all)
        out["postings.intersect_ms"] = warm_s * 1e3
        out["postings.intersect_cold_ms"] = prober.floor(
            "postings.intersect_cold", intersect_all,
            before=lambda: clear_caches(index)) * 1e3
    finally:
        for snap in snapshots:
            snap.close()

    # -- core.exec / core.engine -------------------------------------------
    def compile_all() -> None:
        for query in reads:
            index.compile(query)
    out["exec.compile_us"] = prober.floor("exec.compile", compile_all) \
        / n_ops * 1e6
    with index.snapshot() as held:
        pair = prober.floors({"engine.read": run_reads(index.query),
                              "engine.snapshot_read": run_reads(held.query)})
    read_s = pair["engine.read"]
    out["engine.read_ms"] = read_s * 1e3
    out["engine.facade_us"] = \
        (read_s - pair["engine.snapshot_read"]) / n_ops * 1e6
    out["exec.topdown_ms"] = prober.floor(
        "exec.topdown",
        run_reads(lambda q: index.query(q, algorithm="topdown"))) * 1e3
    out["exec.residual_ms"] = (read_s - fetch_s - warm_s) * 1e3
    out["cache.cold_read_ms"] = prober.floor(
        "cache.cold_read", run_reads(index.query),
        before=lambda: clear_caches(index)) * 1e3
    with NestedSetIndex.build(inputs.records, storage="memory",
                              shards=target.shards) as memory:
        out["engine.memory_read_ms"] = prober.floor(
            "engine.memory_read", run_reads(memory.query)) * 1e3
    out["engine.batch_ms"] = prober.floor(
        "engine.batch",
        lambda: index.query_batch(reads, share_subqueries=True)) * 1e3

    # -- core.batch / core.join / core.prefixjoin --------------------------
    keyed = [(read.key, read.query) for read in inputs.batch]
    batched = containment_join(index, keyed, strategy="batched")
    evaluated = batched.extra["subqueries_evaluated"]
    reused = batched.extra["subqueries_reused"]
    out["batch.memo_hit_ratio"] = reused / max(1, evaluated + reused)
    prefix = containment_join(index, keyed, strategy="prefix")
    out["prefixjoin.nodes"] = prefix.extra["prefix_nodes"]
    out["prefixjoin.streams"] = prefix.extra["prefix_streams"]
    out["prefixjoin.reused"] = prefix.extra["prefix_reused"]
    out["join.pairs"] = prefix.n_pairs
    out["join.prefix_ms"] = prober.floor(
        "join.prefix",
        lambda: containment_join(index, keyed, strategy="prefix")) * 1e3
    out["join.perquery_ms"] = prober.floor(
        "join.perquery",
        lambda: containment_join(index, keyed, strategy="per-query")) * 1e3
    collection = index.collection_stats()
    batch_sets = [query for _key, query in keyed]
    out["join.dispatch_us"] = prober.floor(
        "join.dispatch",
        lambda: choose_strategy(batch_sets, collection)) * 1e6

    # -- server.protocol, in process, on the reads' own frames -------------
    texts = [query.to_text() for query in reads]
    requests = [{"op": "query", "query": text} for text in texts]
    query_cache: dict[str, bytes] = {}

    def encode_requests() -> list[bytes]:
        return [encode_request_binary(request, number + 1,
                                      query_cache=query_cache)
                for number, request in enumerate(requests)]
    frames = encode_requests()
    out["protocol.encode_request_us"] = prober.floor(
        "protocol.encode_request", encode_requests) / n_ops * 1e6
    bodies = [frame[4:] for frame in frames]
    out["protocol.decode_request_us"] = prober.floor(
        "protocol.decode_request",
        lambda: [decode_request_body(body) for body in bodies]) / n_ops * 1e6
    decoded_requests = [decode_request_body(body) for body in bodies]
    responses = [ok_response(answer) for answer in target.read_answers]

    def encode_responses() -> list[bytes]:
        return [encode_response_for(request, response)
                for request, response in zip(decoded_requests, responses)]
    out["protocol.encode_response_us"] = prober.floor(
        "protocol.encode_response", encode_responses) / n_ops * 1e6
    response_bodies = [frame[4:] for frame in encode_responses()]
    out["protocol.decode_response_us"] = prober.floor(
        "protocol.decode_response",
        lambda: [decode_response_body(body) for body in response_bodies]) \
        / n_ops * 1e6
    return out


def write_probe(index, target: Target) -> dict[str, float]:
    """Counters of one durable insert group, on the in-process handle.

    Runs last: it grows the index.
    """
    group = target.inputs.fresh_groups()[-1]
    target.mark_inserted(group)
    atoms = {atom for _key, tree in group for atom in tree.all_atoms()}
    before = index_counters(index)
    start = time.perf_counter()
    with target.tracer.span("engine.insert_batch"):
        index.insert_batch(group)
    elapsed = time.perf_counter() - start
    spent = delta(index_counters(index), before)
    n = len(group)
    return {
        "updates.insert_ms_per_record": elapsed / n * 1e3,
        "updates.lists_touched_per_record": len(atoms) / n,
        "wal.bytes_per_insert": spent.get("wal.bytes_logged", 0) / n,
        "wal.syncs_per_insert": spent.get("wal.syncs", 0) / n,
        "pager.pages_written_per_record": spent["store.page_writes"] / n,
    }


def traced_run(target: Target, tracer: Tracer, seconds: float,
               setup_parts: dict[str, float]) -> tuple[dict, dict]:
    """Per-layer metrics and the trace-file extras of one workload."""
    overhead = Prober(tracer, seconds * OVERHEAD_SHARE / 2)

    def read_round(traced: bool) -> Callable[[], None]:
        def run() -> None:
            tracer.enabled = traced
            try:
                raw = target.read_round()
            finally:
                tracer.enabled = True
            target.check(target.read_answers, target.answers_of(raw))
        return run
    tracer.enabled = True
    pair = overhead.floors({"read.untraced": read_round(False),
                            "read.traced": read_round(True)})
    untraced, traced = pair["read.untraced"], pair["read.traced"]
    target.timed_rounds("reads", target.read_lanes(),
                        seconds * 2 * PHASE_SHARE)
    metrics: dict[str, float] = {
        "trace.overhead_pct": (traced - untraced) / untraced * 100.0,
        "build.generate_s": setup_parts["generate_s"],
        "build.index_s": setup_parts["build_s"],
        "build.open_s": setup_parts["open_s"],
        "build.records_per_s":
            len(target.inputs.records) / setup_parts["build_s"],
    }
    probe_seconds = seconds * (1.0 - OVERHEAD_SHARE - 3 * PHASE_SHARE)
    prober = Prober(tracer, probe_seconds / 24)
    with target.local_index() as index:
        metrics.update(layer_probes(index, target, prober))
        metrics.update(write_probe(index, target))
    metrics["client.wire_overhead_us"] = \
        (traced * 1e3 - metrics["engine.read_ms"]) \
        / len(target.inputs.reads) * 1e3
    extra: dict[str, object] = {
        "probe_rounds": {**overhead.rounds, **prober.rounds}}
    target.rw_phase(seconds * PHASE_SHARE)
    if isinstance(target, ServedTarget):
        extra["server_stats"] = target.client.stats()
    target.finish()
    extra["span_fields"] = list(Tracer.FIELDS)
    extra["spans"] = tracer.rows()
    extra["self_times"] = tracer.self_times()
    return metrics, extra

"""Command-line interface: generate, index, query, inspect, benchmark.

::

    nestcontain generate --dataset zipf-wide --size 10000 -o data.nsets
    nestcontain index data.nsets -o data.idx
    nestcontain query data.idx "{USA, {UK, {A, motorbike}}}" --algorithm topdown
    nestcontain info data.idx
    nestcontain bench --dataset twitter --sizes 1000,2000 --repeats 5
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .bench.protocol import measure
from .bench.reporting import format_figure
from .bench.protocol import SeriesPoint
from .bench.workloads import (
    DATASETS,
    WorkloadCache,
    generate_dataset,
    make_query_runner,
)
from .core.engine import ALGORITHMS, NestedSetIndex
from .core.join import STRATEGIES as JOIN_STRATEGIES
from .core.matchspec import JOINS, MODES, SEMANTICS
from .data.io import load_collection_file, save_collection_file
from .storage.codec import DEFAULT_BLOCK_SIZE


def _cmd_generate(args: argparse.Namespace) -> int:
    records = generate_dataset(args.dataset, args.size, seed=args.seed,
                               theta=args.theta)
    count = save_collection_file(records, args.output)
    print(f"wrote {count} records of {args.dataset} to {args.output}")
    return 0


def _cmd_import(args: argparse.Namespace) -> int:
    from .data.ingest import (
        DBLP_RECORD_TAGS,
        load_jsonl_file,
        load_xml_file,
    )
    if args.format == "jsonl":
        records = load_jsonl_file(args.source,
                                  skip_invalid=args.skip_invalid)
    else:
        tags = set(args.tags.split(",")) if args.tags \
            else set(DBLP_RECORD_TAGS)
        records = load_xml_file(args.source, tags)
    count = save_collection_file(records, args.output)
    print(f"imported {count} records from {args.source} "
          f"({args.format}) to {args.output}")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    records = load_collection_file(args.collection)
    start = time.perf_counter()
    with NestedSetIndex.build(records, storage=args.storage,
                              path=args.output, shards=args.shards,
                              block_size=args.block_size) as index:
        elapsed = time.perf_counter() - start
        layout = (f"{args.shards} shards, " if args.shards > 1 else "")
        print(f"indexed {index.n_records} records / {index.n_nodes} nodes "
              f"in {elapsed:.2f}s ({layout}{args.storage} -> {args.output})")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from .data.ingest import StreamIngestor, iter_jsonl
    from .data.io import load_collection

    def records(handle):
        if args.format == "jsonl":
            yield from iter_jsonl(handle, skip_invalid=args.skip_invalid)
        else:
            yield from load_collection(handle)

    handle = sys.stdin if args.source == "-" \
        else open(args.source, "r", encoding="utf-8")
    started = time.perf_counter()
    last_report = started
    try:
        with _open_index(args) as index:
            with StreamIngestor(
                    index, batch_size=args.batch_size,
                    flush_interval=args.flush_interval) as ingestor:
                for key, value in records(handle):
                    ingestor.submit(key, value)
                    if args.follow:
                        now = time.perf_counter()
                        if now - last_report >= 5.0:
                            counts = ingestor.counters()
                            print(f"  {counts['records_ingested']} "
                                  f"records in "
                                  f"{counts['groups_committed']} commit "
                                  f"groups, {counts['errors']} errors, "
                                  f"{counts['pending']} pending",
                                  file=sys.stderr, flush=True)
                            last_report = now
                ingestor.flush()
                counts = ingestor.counters()
            elapsed = time.perf_counter() - started
        print(f"ingested {counts['records_ingested']} records in "
              f"{counts['groups_committed']} commit groups "
              f"({counts['errors']} errors) in {elapsed:.2f}s")
        return 0 if counts["errors"] == 0 else 1
    finally:
        if handle is not sys.stdin:
            handle.close()


def _open_index(args: argparse.Namespace) -> NestedSetIndex:
    """Open the index at ``args.index``."""
    return NestedSetIndex.open(args.storage, args.index, cache=args.cache)


def _read_queries_file(path: str) -> list[str]:
    """One nested-set query per non-blank line; ``-`` reads stdin."""
    if path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    queries = [line.strip() for line in lines]
    return [query for query in queries if query
            and not query.startswith("#")]


def _cmd_query(args: argparse.Namespace) -> int:
    if (args.query is None) == (args.queries_file is None):
        print("error: provide exactly one of a query argument or "
              "--queries-file", file=sys.stderr)
        return 2
    options = dict(algorithm=args.algorithm, semantics=args.semantics,
                   join=args.join, epsilon=args.epsilon, mode=args.mode)
    with _open_index(args) as index:
        # The algorithm is the named one or the compiler's pick, which
        # depends on the options and not on the query.
        plan = index.compile(args.query or "{}", **options)
        ran = f"{plan.algorithm}/{args.semantics}/{args.join}"
        if args.queries_file is not None:
            queries = _read_queries_file(args.queries_file)
            start = time.perf_counter()
            results = index.query_batch(queries, **options)
            elapsed = (time.perf_counter() - start) * 1000.0
            for keys in results:
                print("\t".join(keys))
            n_hits = sum(len(keys) for keys in results)
            print(f"-- {len(queries)} queries, {n_hits} records "
                  f"in {elapsed:.3f} ms (batched, {ran})",
                  file=sys.stderr)
            return 0
        if args.show_plan:
            print(plan.describe(), file=sys.stderr)
        start = time.perf_counter()
        result = index.query(args.query, **options)
        elapsed = (time.perf_counter() - start) * 1000.0
        for key in result:
            print(key)
        print(f"-- {len(result)} records in {elapsed:.3f} ms ({ran})",
              file=sys.stderr)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    with _open_index(args) as index:
        result = index.explain(args.query, algorithm=args.algorithm,
                               semantics=args.semantics, join=args.join,
                               epsilon=args.epsilon, mode=args.mode)
        print(result.render())
    return 0


def _cmd_similar(args: argparse.Namespace) -> int:
    from .core.similarity import top_k_similar
    with _open_index(args) as index, index.snapshot() as snap:
        hits: list[tuple[str, float]] = []
        for view in snap.views:
            hits.extend(top_k_similar(view.inverted_file,
                                      args.query, k=args.k,
                                      candidate_limit=args.candidates))
        hits.sort(key=lambda hit: (-hit[1], hit[0]))
        for key, score in hits[:args.k]:
            print(f"{score:.4f}  {key}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .core.checker import check_index
    with _open_index(args) as index, index.snapshot() as snap:
        problems = []
        for shard_no, view in enumerate(snap.views):
            prefix = f"shard {shard_no}: " if index.n_shards > 1 else ""
            problems.extend(prefix + problem for problem in
                            check_index(view.inverted_file,
                                        max_atoms=args.max_atoms))
        if problems:
            for problem in problems:
                print(f"PROBLEM: {problem}")
            print(f"-- {len(problems)} problem(s) found", file=sys.stderr)
            return 1
        layout = (f" across {index.n_shards} shards"
                  if index.n_shards > 1 else "")
        print(f"index healthy: {index.n_records} records, "
              f"{index.n_nodes} nodes{layout}")
    return 0


def _print_server_info(address: str) -> int:
    """The ``info --server`` path: live counters from a running server."""
    from .server import ServiceClient
    host, _, port = address.rpartition(":")
    with ServiceClient(host or "127.0.0.1", int(port)) as client:
        stats = client.stats()
    server = stats["server"]
    latency = server["latency_ms"]
    engine = stats["engine"]
    print(f"server uptime:  {server['uptime_s']:.1f}s "
          f"({'draining' if server['draining'] else 'serving'})")
    role = server.get("role")
    if role is not None:
        print(f"replication:    role {role}, term {server.get('term')}")
        lag = server.get("replica_lag")
        if lag:
            seconds = lag.get("lag_seconds")
            seconds_text = ("unknown" if seconds is None
                            or seconds == float("inf")
                            else f"{seconds:.2f}s")
            print(f"  lag:           {lag.get('lag_groups', '?')} "
                  f"group(s), {seconds_text} "
                  f"(applied seq {lag.get('applied_seq')}, "
                  f"primary end {lag.get('end_seq')}, "
                  f"status {lag.get('status')})")
        shipping = (server.get("replication") or {}).get("shipping")
        if shipping and shipping.get("followers"):
            for rid, follow in sorted(shipping["followers"].items()):
                print(f"  follower:      {rid} acked seq "
                      f"{follow['acked_seq']} "
                      f"(lag {follow['lag_groups']} group(s))")
    print(f"requests:       {server['requests_total']} total "
          f"({server['inflight']}/{server['max_inflight']} in flight)")
    for op, count in sorted(server["requests_by_op"].items()):
        print(f"  {op + ':':<14}{count}")
    print(f"batches:        {server['batches']} engine calls for "
          f"{server['batched_queries']} queries "
          f"(coalesce ratio {server['coalesce_ratio']:.2f}, "
          f"window {server['batch_window_ms']:.1f} ms)")
    if server.get("ingest_records") or server.get("ingest_errors"):
        print(f"ingest:         {server['ingest_records']} records in "
              f"{server['ingest_groups_committed']} commit groups "
              f"({server['ingest_errors']} errors)")
    snap_version = server.get("snapshot_version")
    if snap_version is not None:
        pinned = server.get("oldest_pinned_version")
        pinned_text = "none pinned" if pinned is None \
            else f"oldest pinned {pinned}"
        print(f"snapshots:      version {snap_version} ({pinned_text})")
    print(f"rejections:     {server['rejected_overload']} overloaded, "
          f"{server['rejected_shutdown']} shutting down, "
          f"{server['timeouts']} timeouts")
    if server["errors_by_code"]:
        errors = ", ".join(f"{code}={count}" for code, count
                           in sorted(server["errors_by_code"].items()))
        print(f"errors:         {errors}")
    print(f"latency:        p50 {latency['p50']:.3f} ms, "
          f"p99 {latency['p99']:.3f} ms, max {latency['max']:.3f} ms "
          f"({latency['samples']} samples)")
    stages = server.get("stages_ms", {})
    if any(stage["samples"] for stage in stages.values()):
        parts = " | ".join(
            f"{name} p50 {stage['p50']:.3f}/p99 {stage['p99']:.3f}"
            for name, stage in stages.items() if stage["samples"])
        print(f"stages (ms):    {parts}")
    print(f"index:          {engine['index']['records']} records, "
          f"{engine['index']['nodes']} nodes")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    if args.server:
        return _print_server_info(args.server)
    if args.index is None:
        print("error: provide an index path or --server HOST:PORT",
              file=sys.stderr)
        return 2
    with _open_index(args) as index:
        print(f"records:        {index.n_records}")
        print(f"internal nodes: {index.n_nodes}")
        if index.n_shards > 1:
            print(f"shards:         {index.n_shards}")
        frequencies = index.frequencies()
        print(f"distinct atoms: {len(frequencies)}")
        with index.snapshot() as snap:
            shard_stats = [view.inverted_file.block_stats()
                           for view in snap.views]
        for shard_no, stats in enumerate(shard_stats):
            if not stats["lists"]:
                continue
            prefix = (f"shard {shard_no} " if index.n_shards > 1 else "")
            print(f"{prefix}block storage:")
            print(f"  posting lists:    {stats['lists']} "
                  f"(packed 0x03, block size {stats['block_size']})")
            print(f"  blocks:           {stats['blocks']} "
                  f"(avg fill {stats['avg_block_fill']:.1f} postings)")
            print(f"  compressed bytes: {stats['compressed_bytes']} "
                  f"({stats['directory_bytes']} directory)")
            print(f"  decoded bytes:    ~{stats['decoded_bytes']} "
                  f"(estimated in-memory)")
        all_stats = index.stats()
        mvcc = all_stats.get("mvcc")
        if mvcc is not None and "mmap_enabled" in mvcc:
            state = "enabled" if mvcc["mmap_enabled"] else "disabled"
            print(f"mmap reads:     {state} "
                  f"({mvcc['mapped_pages']} pages mapped)")
        wal = all_stats.get("wal")
        if wal is not None:
            print("durability (write-ahead log):")
            print(f"  wal file:        {wal['path']} "
                  f"({wal['size_bytes']} bytes)")
            print(f"  pending groups:  {wal['pending_groups']}")
            print(f"  recovered:       {wal['recovered_on_open']} group(s) "
                  f"replayed, {wal['discarded_on_open']} torn group(s) "
                  f"discarded on open")
            print(f"  lifetime:        {wal['commits']} commits, "
                  f"{wal['records_logged']} page records, "
                  f"{wal['syncs']} fsyncs, "
                  f"{wal['checkpoints']} checkpoints")
        print("hottest atoms:")
        for atom, df in frequencies[:args.top]:
            print(f"  {atom!r}: {df}")
    return 0


def _cmd_join(args: argparse.Namespace) -> int:
    from .core.join import containment_join
    from .core.matchspec import QuerySpec
    with _open_index(args) as index:
        queries = load_collection_file(args.queries)
        spec = QuerySpec(semantics=args.semantics, join=args.join,
                         epsilon=args.epsilon, mode=args.mode)
        result = containment_join(index, queries,
                                  strategy=args.strategy,
                                  algorithm=args.algorithm,
                                  use_bloom=args.use_bloom, spec=spec)
        if args.explain:
            print(result.describe())
            return 0
        for qkey, skey in result.pairs:
            print(f"{qkey}\t{skey}")
        print(f"-- {result.n_pairs} pairs from {result.n_queries} "
              f"queries in {result.elapsed_seconds * 1000:.1f} ms "
              f"({result.strategy})", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import socket as socketlib

    from .replication import (
        ReplicaTailer,
        ReplicationManager,
        bootstrap_from_primary,
    )
    from .server import QueryServer, ServiceClient

    replica_id = args.replica_id or \
        f"{socketlib.gethostname()}-{os.getpid()}"
    primary_client: "ServiceClient | None" = None
    boot: dict | None = None
    if args.replicate_from:
        host, _, port = args.replicate_from.rpartition(":")
        primary_client = ServiceClient(host or "127.0.0.1", int(port),
                                       retries=3)
        boot = bootstrap_from_primary(primary_client.call, args.index,
                                      replica_id)
        print(f"bootstrapped {boot['n_pages']} pages "
              f"(version {boot['version']}, next seq {boot['next_seq']}, "
              f"term {boot['term']}) from {args.replicate_from}",
              flush=True)

    index = NestedSetIndex.open(args.storage, args.index,
                                cache=args.cache)
    with index:
        try:
            if boot is not None:
                index.base_store.pager.adopt_version(boot["version"])
                tailer = ReplicaTailer(
                    index, primary_client.call, replica_id=replica_id,
                    primary_address=args.replicate_from).start()
                manager = ReplicationManager.as_replica(index, tailer)
            else:
                manager = ReplicationManager.as_primary(index)
        except ValueError:
            manager = None     # e.g. a store without a usable pager/WAL
        server = QueryServer(index, host=args.host, port=args.port,
                             workers=args.workers,
                             max_inflight=args.max_inflight,
                             batch_window_ms=args.batch_window_ms,
                             http_port=args.http_port,
                             close_index_on_drain=False,
                             replication=manager)

        async def _run() -> None:
            await server.start()
            role = manager.role if manager is not None else "primary"
            print(f"serving {args.index} on "
                  f"{server.host}:{server.port} "
                  f"({args.workers} workers, "
                  f"max {args.max_inflight} in flight, "
                  f"batch window {args.batch_window_ms} ms, "
                  f"role {role})",
                  flush=True)
            if server.http_port is not None:
                print(f"http gateway on "
                      f"{server.host}:{server.http_port}", flush=True)
            await server.serve_until_drained()

        asyncio.run(_run())
        # The `with` block closes the index -> WAL checkpoint; the
        # server only drains, so a drained process always exits clean.
        print("drained; checkpointing index", file=sys.stderr)
    if primary_client is not None:
        primary_client.close()
    return 0


def _cmd_promote(args: argparse.Namespace) -> int:
    from .server import ServiceClient
    host, _, port = args.server.rpartition(":")
    with ServiceClient(host or "127.0.0.1", int(port)) as client:
        result = client.call({"op": "promote"})
    already = "" if result.get("promoted") else " (was already primary)"
    print(f"{args.server}: role {result['role']}, "
          f"term {result['term']}{already}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .bench.figures import render_results_dir, render_results_file
    if args.experiment:
        path = os.path.join(args.dir, f"{args.experiment}.json")
        print(render_results_file(path, log_y=args.log))
    else:
        print(render_results_dir(args.dir, log_y=args.log))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    sizes = [int(token) for token in args.sizes.split(",")]
    cache_workloads = WorkloadCache()
    points: list[SeriesPoint] = []
    try:
        for size in sizes:
            workload = cache_workloads.get(args.dataset, size,
                                           n_queries=args.queries,
                                           seed=args.seed,
                                           shards=args.shards)
            for algorithm in args.algorithms.split(","):
                for policy in (None, "frequency"):
                    workload.index.set_cache(policy)
                    runner = make_query_runner(workload.index,
                                               workload.queries, algorithm)
                    timing = measure(runner, repeats=args.repeats)
                    label = algorithm + ("+cache" if policy else "")
                    points.append(SeriesPoint(label, size, timing))
        print(format_figure(f"{args.dataset}: {args.queries} queries, "
                            f"repeats={args.repeats}", points))
    finally:
        cache_workloads.clear()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nestcontain",
        description="Containment queries on nested sets "
                    "(Ibrahim & Fletcher, EDBT 2013 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)
    # One disk engine.  The option stays for command lines that name it
    # (ladder/workloads.py starts ``serve --storage diskhash``).
    on_disk = argparse.ArgumentParser(add_help=False)
    on_disk.add_argument("--storage", choices=("diskhash",),
                         default="diskhash")

    gen = sub.add_parser("generate", help="generate a synthetic collection")
    gen.add_argument("--dataset", choices=DATASETS, default="uniform-wide")
    gen.add_argument("--size", type=int, default=10000)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--theta", type=float, default=0.7,
                     help="Zipf skew for the zipf-* datasets")
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=_cmd_generate)

    imp = sub.add_parser("import",
                         help="import a JSONL or XML dump as a collection")
    imp.add_argument("source")
    imp.add_argument("--format", choices=("jsonl", "xml"),
                     default="jsonl")
    imp.add_argument("--tags", default=None,
                     help="comma-separated XML record tags "
                          "(default: the DBLP record tags)")
    imp.add_argument("--skip-invalid", action="store_true")
    imp.add_argument("-o", "--output", required=True)
    imp.set_defaults(func=_cmd_import)

    idx = sub.add_parser("index", parents=[on_disk],
                         help="build a disk index from a collection")
    idx.add_argument("collection")
    idx.add_argument("--shards", type=int, default=1,
                     help="partition the records across N inverted-file "
                          "shards inside one store (default 1)")
    idx.add_argument("--block-size", type=int, default=DEFAULT_BLOCK_SIZE,
                     help="postings per block of a stored posting list "
                          "(default %(default)s)")
    idx.add_argument("-o", "--output", required=True)
    idx.set_defaults(func=_cmd_index)

    query = sub.add_parser("query", parents=[on_disk],
                           help="run one containment query")
    query.add_argument("index")
    query.add_argument("query", nargs="?", default=None,
                       help="nested set text, e.g. '{a, {b}}' "
                            "(omit when using --queries-file)")
    query.add_argument("--queries-file", default=None,
                       help="evaluate a batch: one nested set per line "
                            "('-' reads stdin); runs through "
                            "query_batch (--algorithm bottomup shares "
                            "subquery work across the batch)")
    query.add_argument("--algorithm", choices=ALGORITHMS, default=None,
                       help="unset: the compiler picks per join "
                            "(--show-plan names the pick)")
    query.add_argument("--semantics", choices=SEMANTICS, default="hom")
    query.add_argument("--join", choices=JOINS, default="subset")
    query.add_argument("--epsilon", type=int, default=1)
    query.add_argument("--mode", choices=MODES, default="root")
    query.add_argument("--show-plan", action="store_true",
                       help="print the compiled execution plan to stderr")
    query.add_argument("--cache", choices=("none", "frequency", "lru"),
                       default="none")
    query.set_defaults(func=_cmd_query)

    exp = sub.add_parser("explain", parents=[on_disk],
                         help="trace a query's evaluation "
                              "(any algorithm)")
    exp.add_argument("index")
    exp.add_argument("query")
    exp.add_argument("--algorithm", choices=ALGORITHMS, default=None,
                     help="unset: the compiler picks per join "
                          "(the trace's header names the pick)")
    exp.add_argument("--semantics", choices=SEMANTICS, default="hom")
    exp.add_argument("--join", choices=JOINS, default="subset")
    exp.add_argument("--epsilon", type=int, default=1)
    exp.add_argument("--mode", choices=MODES, default="root")
    exp.add_argument("--cache", default="none")
    exp.set_defaults(func=_cmd_explain)

    sim = sub.add_parser("similar", parents=[on_disk],
                         help="top-k nested-Jaccard similarity search")
    sim.add_argument("index")
    sim.add_argument("query")
    sim.add_argument("-k", type=int, default=10)
    sim.add_argument("--candidates", type=int, default=2000)
    sim.add_argument("--cache", default="none")
    sim.set_defaults(func=_cmd_similar)

    chk = sub.add_parser("check", parents=[on_disk],
                         help="audit an index's integrity")
    chk.add_argument("index")
    chk.add_argument("--max-atoms", type=int, default=None,
                     help="audit only the N hottest atoms' lists")
    chk.add_argument("--cache", default="none")
    chk.set_defaults(func=_cmd_check)

    ing = sub.add_parser(
        "ingest", parents=[on_disk],
        help="stream records into a live index as batched WAL commit "
             "groups")
    ing.add_argument("index", help="path of the index to ingest into")
    ing.add_argument("source",
                     help="records file; '-' streams from stdin")
    ing.add_argument("--format", choices=("jsonl", "nsets"),
                     default="nsets",
                     help="jsonl: one JSON document per line; nsets: "
                          "key<TAB>nested-set lines (default)")
    ing.add_argument("--follow", action="store_true",
                     help="streaming mode: keep reading as lines "
                          "arrive (pipe / FIFO) and report progress; "
                          "queries against a server on the same store "
                          "keep running off pinned snapshots")
    ing.add_argument("--batch-size", type=int, default=64,
                     help="records per WAL commit group")
    ing.add_argument("--flush-interval", type=float, default=0.25,
                     help="seconds a partial batch may wait before "
                          "committing")
    ing.add_argument("--skip-invalid", action="store_true",
                     help="skip malformed jsonl lines instead of "
                          "failing")
    ing.add_argument("--cache", default="none")
    ing.set_defaults(func=_cmd_ingest)

    info = sub.add_parser("info", parents=[on_disk],
                          help="inspect an index (or a running server)")
    info.add_argument("index", nargs="?", default=None)
    info.add_argument("--server", default=None, metavar="HOST:PORT",
                      help="show live counters of a running "
                           "'nestcontain serve' instead of an on-disk "
                           "index")
    info.add_argument("--cache", default="none")
    info.add_argument("--top", type=int, default=10)
    info.set_defaults(func=_cmd_info)

    serve = sub.add_parser(
        "serve", parents=[on_disk],
        help="serve an index over TCP (binary frames, optional HTTP "
             "gateway)")
    serve.add_argument("index")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7317,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--workers", type=int, default=4,
                       help="threads of the server's request pool")
    serve.add_argument("--max-inflight", type=int, default=64,
                       help="admission-control bound; requests beyond "
                            "it are rejected as 'overloaded'")
    serve.add_argument("--batch-window-ms", type=float, default=2.0,
                       help="micro-batch window for coalescing "
                            "concurrent queries (0 disables)")
    serve.add_argument("--http-port", type=int, default=None,
                       help="also serve a stdlib HTTP/JSON gateway on "
                            "this port (0 picks a free one)")
    serve.add_argument("--cache", choices=("none", "frequency", "lru"),
                       default="frequency")
    serve.add_argument("--replicate-from", default=None,
                       metavar="HOST:PORT",
                       help="serve as a read-only replica: bootstrap a "
                            "snapshot from this primary into INDEX, "
                            "then tail its log")
    serve.add_argument("--replica-id", default=None,
                       help="stable follower id on the primary "
                            "(default: host-pid)")
    serve.set_defaults(func=_cmd_serve)

    promote = sub.add_parser(
        "promote", help="promote a running replica to primary "
                        "(replays to its log end, bumps the fencing "
                        "term, starts accepting writes)")
    promote.add_argument("server", metavar="HOST:PORT",
                         help="address of the replica to promote")
    promote.set_defaults(func=_cmd_promote)

    join = sub.add_parser(
        "join", parents=[on_disk],
        help="full containment join: queries file x index")
    join.add_argument("index")
    join.add_argument("queries", help="collection file of query sets")
    join.add_argument("--strategy", choices=JOIN_STRATEGIES,
                      default="adaptive")
    join.add_argument("--algorithm", choices=ALGORITHMS, default=None,
                      help="per-query plan algorithm (per-query strategy; "
                           "unset: the compiler picks per join)")
    join.add_argument("--use-bloom", action="store_true",
                      help="Bloom-prefilter record scans (naive only)")
    join.add_argument("--semantics", choices=SEMANTICS, default="hom")
    join.add_argument("--join", choices=JOINS, default="subset")
    join.add_argument("--epsilon", type=int, default=1)
    join.add_argument("--mode", choices=MODES, default="root")
    join.add_argument("--cache", default="frequency")
    join.add_argument("--explain", action="store_true",
                      help="print the join-level execution summary "
                           "(strategy, dispatch evidence, prefix "
                           "counters) instead of only the pair count")
    join.set_defaults(func=_cmd_join)

    rep = sub.add_parser("report",
                         help="render saved benchmark results as charts")
    rep.add_argument("--dir", default="bench_results")
    rep.add_argument("--experiment", default=None,
                     help="one experiment name (e.g. fig6e_twitter)")
    rep.add_argument("--log", action="store_true",
                     help="log-scale the y axis")
    rep.set_defaults(func=_cmd_report)

    bench = sub.add_parser("bench", help="run a figure-style experiment")
    bench.add_argument("--dataset", choices=DATASETS, default="uniform-wide")
    bench.add_argument("--sizes", default="1000,2000,4000")
    bench.add_argument("--queries", type=int, default=100)
    bench.add_argument("--repeats", type=int, default=5)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--algorithms", default="topdown,bottomup")
    bench.add_argument("--shards", type=int, default=1,
                       help="build the benchmark indexes with N shards")
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``nestcontain`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

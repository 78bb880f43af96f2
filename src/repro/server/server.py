"""Long-lived asyncio query service over a resident containment index.

One process holds one open index
(:class:`~repro.core.engine.NestedSetIndex`, of one partition or
several) and serves the length-prefixed protocol of
:mod:`repro.server.protocol` over TCP.
The design has five load-bearing pieces:

* **Admission control** -- at most ``max_inflight`` admitted requests at
  any instant; the listener answers everything beyond that with an
  ``overloaded`` error *immediately* instead of queueing unboundedly, so
  a traffic spike degrades into fast rejections rather than collapse.
  Each admitted request also carries a deadline (its own ``timeout_ms``
  or the server default); expiry answers ``timeout`` while the worker
  thread finishes harmlessly in the background.

* **Pipelined connections** -- every request carries a request id and
  is dispatched as a concurrent task; responses are written in
  *completion* order, each tagged with its id, so one connection can
  keep many requests outstanding.

* **Micro-batching** -- single ``query`` requests that arrive within
  ``batch_window_ms`` of each other are coalesced, grouped by their
  evaluation options, and evaluated through **one**
  ``engine.query_batch`` call.  Two refinements kill the window tax at
  low concurrency: a request that is *alone* in flight dispatches
  immediately (there is nothing to coalesce with), and a pipelined
  burst flushes as soon as its connection's read buffer drains (the
  batch is as big as the burst -- waiting out the window buys nothing).

* **Snapshot reads, lock-free mutations** -- engine calls run on a
  small thread pool, and the engine's read path is version-based: every
  query batch pins the store's committed version and runs against that
  snapshot, so ``insert``/``delete``/``ingest`` commit freely without
  an engine-level write lock and no reader ever observes a half-applied
  update.

* **Streaming ingest and graceful drain** -- the ``ingest`` op enqueues
  records into a :class:`~repro.data.ingest.StreamIngestor` and returns
  immediately; SIGTERM or a ``shutdown`` request stops the listeners
  (TCP and, if mounted, the HTTP gateway), lets admitted requests
  finish, flushes the ingestor's tail, then closes the index, which
  checkpoints the write-ahead log.

``stats`` surfaces all of it: request mix, coalesce ratio, per-stage
latency breakdown (decode / queue / execute / encode), ingest counters,
and MVCC versions.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..data.ingest import StreamIngestor
from .metrics import ServerMetrics
from .protocol import (
    ProtocolError,
    Request,
    decode_request_body,
    encode_response_for,
    error_response,
    ok_response,
    peek_request_id,
    read_frame_bytes,
    validate_request,
)

__all__ = ["QueryServer", "ServerThread"]

#: Default per-request deadline when the client sends no ``timeout_ms``.
DEFAULT_TIMEOUT_S = 30.0
#: Default bound on concurrently admitted requests.
DEFAULT_MAX_INFLIGHT = 64
#: Default micro-batch window (milliseconds); 0 disables coalescing.
DEFAULT_BATCH_WINDOW_MS = 2.0
#: Flush a batch early once this many queries are waiting.
DEFAULT_BATCH_MAX = 128
#: How long a drain waits for in-flight requests before giving up.
DEFAULT_DRAIN_TIMEOUT_S = 30.0


#: Ops admitted even at the in-flight ceiling: observability must work
#: under overload, and a replica's long-poll tail fetch must never be
#: starved out by query traffic (there are at most a handful of
#: replicas, each with one fetch in flight).
_UNCOUNTED_OPS = frozenset(
    ("stats", "repl_bootstrap", "repl_pages", "repl_done", "repl_fetch",
     "promote"))

#: The granularity of the ``repl_fetch`` long-poll wakeup check.
_FETCH_POLL_S = 0.02


def _option_key(options: dict) -> tuple:
    """Hashable grouping key: queries with equal options share a batch."""
    return tuple(sorted(options.items()))


@dataclass
class _PendingQuery:
    """One coalescable ``query`` request waiting for its batch."""

    text: object                     # str (HTTP gateway) or NestedSet (wire)
    options: dict
    enqueued_at: float
    future: "asyncio.Future[list[str]]" = field(repr=False, kw_only=True)


class QueryServer:
    """Serve one resident index over TCP until drained."""

    def __init__(self, index: Any, *, host: str = "127.0.0.1",
                 port: int = 0, workers: int = 4,
                 max_inflight: int = DEFAULT_MAX_INFLIGHT,
                 batch_window_ms: float = DEFAULT_BATCH_WINDOW_MS,
                 batch_max: int = DEFAULT_BATCH_MAX,
                 default_timeout_s: float = DEFAULT_TIMEOUT_S,
                 drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S,
                 close_index_on_drain: bool = True,
                 ingest_batch_size: int = 64,
                 ingest_flush_interval: float = 0.25,
                 http_port: int | None = None,
                 replication: Any | None = None) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._index = index
        self.host = host
        self.port = port          # rewritten with the bound port on start
        self.max_inflight = max_inflight
        self.batch_window_s = max(0.0, batch_window_ms) / 1000.0
        self.batch_max = max(1, batch_max)
        self.default_timeout_s = default_timeout_s
        self.drain_timeout_s = drain_timeout_s
        self.metrics = ServerMetrics()
        self._close_index_on_drain = close_index_on_drain
        self._pool = ThreadPoolExecutor(max_workers=workers,
                                        thread_name_prefix="repro-serve")
        self._inflight = 0
        self._draining = False
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopped: asyncio.Event | None = None
        self._pending: list[_PendingQuery] = []
        self._flush_handle: asyncio.TimerHandle | None = None
        self._ingest_batch_size = ingest_batch_size
        self._ingest_flush_interval = ingest_flush_interval
        self._ingestor: StreamIngestor | None = None
        self._ingestor_lock = threading.Lock()
        #: Optional stdlib HTTP/JSON gateway riding on the same loop.
        self._http_port = http_port
        self.http_port: int | None = None
        self._gateway = None
        #: Optional :class:`~repro.replication.ReplicationManager`: a
        #: primary answers the ``repl_*`` ops, a replica rejects
        #: mutations with ``read_only``; ``promote`` flips the role.
        self.replication = replication

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener(s); ``self.port`` holds the real port after."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self._http_port is not None:
            from .gateway import HttpGateway
            self._gateway = HttpGateway(self, host=self.host,
                                        port=self._http_port)
            await self._gateway.start()
            self.http_port = self._gateway.port

    async def serve_until_drained(self) -> None:
        """Run until a drain completes (``shutdown`` op or SIGTERM)."""
        if self._server is None:
            await self.start()
        assert self._stopped is not None
        self._install_signal_handlers()
        await self._stopped.wait()

    def _install_signal_handlers(self) -> None:
        assert self._loop is not None
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(
                    signum, lambda: self._loop.create_task(self._drain()))
            except (NotImplementedError, ValueError, RuntimeError):
                # Non-main thread or platform without signal support:
                # the shutdown op remains the drain path.
                return

    def request_drain(self) -> None:
        """Thread-safe drain trigger (used by :class:`ServerThread`)."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(self._drain()))
        except RuntimeError:
            # The loop closed between the check and the call: a
            # client-issued shutdown already drained the server.
            pass

    async def _drain(self) -> None:
        """Stop admitting, finish in-flight work, checkpoint, stop."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._gateway is not None:
            await self._gateway.stop()
        self._flush_now()
        deadline = time.monotonic() + self.drain_timeout_s
        while self._inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        loop = asyncio.get_running_loop()
        if self.replication is not None:
            # Stop the tailer / release pinned bootstrap readers before
            # the index closes underneath them.
            await loop.run_in_executor(self._pool,
                                       self.replication.close)
        if self._ingestor is not None:
            # Commit the ingest tail before the index closes: a drained
            # server has accepted-and-durable ingest, not a dropped queue.
            await loop.run_in_executor(self._pool, self._ingestor.close)
        if self._close_index_on_drain:
            # close() flushes deferred statistics and checkpoints the
            # WAL -- the "clean index on disk" half of graceful drain.
            await loop.run_in_executor(self._pool, self._index.close)
        self._pool.shutdown(wait=True)
        assert self._stopped is not None
        self._stopped.set()

    # -- connection handling ----------------------------------------------

    @staticmethod
    def _reader_buffered(reader: asyncio.StreamReader) -> bool:
        """More frames already received on this connection?

        Peeks the stream's internal buffer (a CPython implementation
        detail with a graceful fallback): a pipelined burst shows up as
        buffered bytes, and an empty buffer means the client is waiting
        on us -- the moment to flush instead of sitting out the window.
        """
        return bool(getattr(reader, "_buffer", None))

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                body = None
                try:
                    body = await read_frame_bytes(reader)
                    if body is None:
                        break
                    started = time.monotonic()
                    request = decode_request_body(body)
                except ProtocolError as exc:
                    self.metrics.record_error("bad_request")
                    # Tag the error when the header survived so a
                    # pipelined client can settle the matching request
                    # (else id 0: bad length prefix or first byte);
                    # close either way -- framing may be out of sync.
                    request_id = peek_request_id(body or b"") or 0
                    await self._send(writer, encode_response_for(
                        Request({}, request_id),
                        error_response("bad_request", str(exc))))
                    break
                self.metrics.record_stage(
                    "decode", time.monotonic() - started)
                # Pipelined: dispatch concurrently, respond tagged with
                # the request id in completion order.
                burst = self._reader_buffered(reader)
                task = asyncio.ensure_future(
                    self._respond(request, writer, burst=burst))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                # Let the dispatch run to its first suspension so a
                # coalescable query is *enqueued* before the drain
                # check below decides whether to flush.
                await asyncio.sleep(0)
                if self._pending and not self._reader_buffered(reader):
                    # The connection's pipeline is drained: the batch
                    # is as big as this burst will make it.
                    self._flush_now()
                if request.op == "shutdown":
                    break
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _respond(self, request: Request,
                       writer: asyncio.StreamWriter, *,
                       burst: bool = False) -> None:
        response = await self._dispatch(request.payload, burst=burst)
        started = time.monotonic()
        frame = encode_response_for(request, response)
        self.metrics.record_stage("encode", time.monotonic() - started)
        await self._send(writer, frame)

    async def _send(self, writer: asyncio.StreamWriter,
                    frame: bytes) -> None:
        # No write lock: each response is one synchronous ``write`` of a
        # complete frame, and asyncio transports never interleave the
        # bytes of distinct write calls.  ``drain`` only suspends once
        # the transport is over its high-water mark, so the common case
        # is lock-free and yield-free.
        with contextlib.suppress(ConnectionResetError, BrokenPipeError):
            writer.write(frame)
            await writer.drain()

    async def _dispatch(self, request: Any, *,
                        burst: bool = False) -> dict:
        started = time.monotonic()
        try:
            request = validate_request(request)
        except ProtocolError as exc:
            self.metrics.record_error("bad_request")
            return error_response("bad_request", str(exc))
        op = request["op"]
        if op == "ping":                      # never counted against
            self.metrics.record_request(op)   # admission: health checks
            return ok_response("pong")        # must work under overload
        if op == "shutdown":
            self.metrics.record_request(op)
            asyncio.ensure_future(self._drain())
            return ok_response({"draining": True})
        if self._draining:
            self.metrics.record_error("shutting_down")
            return error_response("shutting_down",
                                  "server is draining")
        if op not in _UNCOUNTED_OPS and \
                self._inflight >= self.max_inflight:
            self.metrics.record_error("overloaded")
            return error_response(
                "overloaded",
                f"{self._inflight} requests in flight "
                f"(limit {self.max_inflight})")
        self.metrics.record_request(op)
        self._inflight += 1
        try:
            response = await self._execute(op, request, burst=burst)
        finally:
            self._inflight -= 1
        self.metrics.record_latency(time.monotonic() - started)
        return response

    def _timeout_of(self, request: dict) -> float:
        timeout_ms = request.get("timeout_ms")
        if timeout_ms is None:
            return self.default_timeout_s
        return min(float(timeout_ms) / 1000.0, self.default_timeout_s)

    async def _execute(self, op: str, request: dict, *,
                       burst: bool = False) -> dict:
        timeout_s = self._timeout_of(request)
        options = dict(request.get("options") or {})
        replication = self.replication
        if op in ("insert", "delete", "ingest") and \
                replication is not None and \
                replication.role == "replica":
            self.metrics.record_error("read_only")
            primary = replication.primary_address or "unknown"
            return error_response(
                "read_only",
                f"this node is a read-only replica; "
                f"send mutations to the primary at {primary}")
        try:
            if op.startswith("repl_") or op == "promote":
                return await self._execute_replication(op, request,
                                                       timeout_s)
            if op == "query":
                if self.batch_window_s <= 0:
                    # Per-request mode: straight to a worker thread,
                    # no coalescing (the benchmark baseline).
                    result = await asyncio.wait_for(
                        self._run_in_pool(self._run_single,
                                          request["query"], options,
                                          time.monotonic()),
                        timeout_s)
                else:
                    future = self._enqueue_query(request["query"],
                                                 options, burst=burst)
                    result = await asyncio.wait_for(future, timeout_s)
                return ok_response(result)
            if op == "query_batch":
                result = await asyncio.wait_for(
                    self._run_in_pool(self._run_batch,
                                      list(request["queries"]), options),
                    timeout_s)
                return ok_response(result)
            if op == "insert":
                ordinal = await asyncio.wait_for(
                    self._run_in_pool(self._index.insert, request["key"],
                                      request["value"]),
                    timeout_s)
                return ok_response({"ordinal": ordinal})
            if op == "delete":
                deleted = await asyncio.wait_for(
                    self._run_in_pool(self._index.delete, request["key"]),
                    timeout_s)
                return ok_response({"deleted": deleted})
            if op == "ingest":
                records = [(key, value)
                           for key, value in request["records"]]
                ingestor = self._ensure_ingestor()
                for key, value in records:
                    ingestor.submit(key, value)
                # Accepted, not yet durable: the background batcher
                # commits these as amortized WAL groups.
                return ok_response({"accepted": len(records),
                                    **ingestor.counters()})
            if op == "stats":
                return ok_response(self._stats_payload())
            raise AssertionError(f"unroutable op {op!r}")  # validated above
        except asyncio.TimeoutError:
            self.metrics.record_error("timeout")
            return error_response(
                "timeout", f"deadline of {timeout_s * 1000:.0f} ms expired")
        except Exception as exc:  # noqa: BLE001 -- boundary: report, don't die
            self.metrics.record_error("internal")
            return error_response("internal",
                                  f"{type(exc).__name__}: {exc}")

    async def _execute_replication(self, op: str, request: dict,
                                   timeout_s: float) -> dict:
        """The ``repl_*`` bootstrap/tail ops and ``promote``."""
        replication = self.replication
        if replication is None:
            return error_response(
                "bad_request", "replication is not enabled on this server")
        if op == "promote":
            result = await self._run_in_pool(replication.promote)
            self.metrics.set_replication(replication.role,
                                         replication.term)
            return ok_response(result)
        source = replication.source
        if source is None:
            return error_response(
                "bad_request",
                f"this node is a replica (primary: "
                f"{replication.primary_address}); "
                "repl_* ops are served by the primary")
        if op == "repl_bootstrap":
            result = await self._run_in_pool(source.bootstrap,
                                             request["replica_id"])
            return ok_response(result)
        if op == "repl_pages":
            try:
                result = await asyncio.wait_for(
                    self._run_in_pool(source.pages, request["session"],
                                      request["start_page"],
                                      request["count"]),
                    timeout_s)
            except (KeyError, IndexError) as exc:
                return error_response("bad_request", str(exc))
            return ok_response(result)
        if op == "repl_done":
            return ok_response(source.done(request["session"]))
        if op == "repl_fetch":
            return ok_response(await self._fetch_groups(source, request,
                                                        timeout_s))
        raise AssertionError(f"unroutable replication op {op!r}")

    async def _fetch_groups(self, source: Any, request: dict,
                            timeout_s: float) -> dict:
        """One tail fetch, long-polling up to ``wait_ms`` for new groups.

        The wait runs on the event loop (cheap sleeps), not a worker
        thread -- a fleet of idle replicas costs polling wakeups, never
        pool threads.
        """
        replica_id = request["replica_id"]
        after_seq = int(request["after_seq"])
        max_groups = int(request.get("max_groups") or 256)
        wait_s = min(int(request.get("wait_ms") or 0) / 1000.0,
                     max(0.0, timeout_s - 0.1))
        deadline = time.monotonic() + wait_s
        while True:
            reply = await self._run_in_pool(
                lambda: source.fetch(replica_id, after_seq,
                                     max_groups=max_groups))
            if reply.get("count") or reply.get("status") == "behind" \
                    or self._draining:
                return reply
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return reply
            await asyncio.sleep(min(_FETCH_POLL_S, remaining))

    def _run_in_pool(self, fn, *args) -> "asyncio.Future":
        assert self._loop is not None
        return self._loop.run_in_executor(self._pool, fn, *args)

    def _ensure_ingestor(self) -> StreamIngestor:
        with self._ingestor_lock:
            if self._ingestor is None:
                self._ingestor = StreamIngestor(
                    self._index,
                    batch_size=self._ingest_batch_size,
                    flush_interval=self._ingest_flush_interval).start()
            return self._ingestor

    def _stats_payload(self) -> dict:
        if self._ingestor is not None:
            counters = self._ingestor.counters()
            self.metrics.set_ingest_counters(
                counters["records_ingested"],
                counters["groups_committed"],
                counters["errors"])
        replication_extra: dict[str, Any] = {}
        if self.replication is not None:
            summary = self.replication.summary()
            lag = summary.get("replica_lag") or {}
            self.metrics.set_replication(
                summary["role"], summary["term"],
                lag.get("lag_groups"), lag.get("lag_seconds"))
            replication_extra = {
                "role": summary["role"],
                "term": summary["term"],
                "replica_lag": lag or None,
                "replication": summary,
            }
        engine_stats = self._index.stats()
        mvcc = engine_stats.get("mvcc") or {}
        return {
            "server": dict(
                self.metrics.snapshot(),
                inflight=self._inflight,
                max_inflight=self.max_inflight,
                batch_window_ms=self.batch_window_s * 1000,
                draining=self._draining,
                snapshot_version=mvcc.get("snapshot_version"),
                oldest_pinned_version=mvcc.get("oldest_pinned_version"),
                **replication_extra,
            ),
            "engine": engine_stats,
        }

    # -- micro-batching ----------------------------------------------------

    def _run_single(self, query: object, options: dict,
                    submitted_at: float) -> list:
        """Worker-thread body of per-request (window = 0) dispatch."""
        self.metrics.record_batch(1)
        started = time.monotonic()
        self.metrics.record_stage("queue", started - submitted_at)
        try:
            return self._index.query(query, **options)
        finally:
            self.metrics.record_stage("execute",
                                      time.monotonic() - started)

    def _enqueue_query(self, text: object, options: dict, *,
                       burst: bool = False) -> "asyncio.Future[list[str]]":
        """Queue one query for the current batch window.

        The flush fires when the window timer expires, as soon as
        ``batch_max`` queries are waiting, *or* -- the adaptive window
        floor -- when this request is alone in flight: with no
        concurrent request admitted there is nothing to coalesce with,
        so sleeping out the window would be pure added latency.  A
        ``burst`` request (its connection has more frames already
        buffered) skips the floor: its batch keeps growing until the
        connection's pipeline drains, which triggers the flush instead.
        """
        assert self._loop is not None
        future: asyncio.Future = self._loop.create_future()
        self._pending.append(_PendingQuery(text, options,
                                           time.monotonic(),
                                           future=future))
        if len(self._pending) >= self.batch_max or \
                (self._inflight <= 1 and not burst):
            self._flush_now()
        elif self._flush_handle is None:
            self._flush_handle = self._loop.call_later(
                self.batch_window_s, self._flush_now)
        return future

    def _flush_now(self) -> None:
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        groups: dict[tuple, list[_PendingQuery]] = {}
        for item in pending:
            groups.setdefault(_option_key(item.options), []).append(item)
        for group in groups.values():
            asyncio.ensure_future(self._run_group(group))

    async def _run_group(self, group: Sequence[_PendingQuery]) -> None:
        """Evaluate one option-homogeneous batch and settle its futures."""
        queries = [item.text for item in group]
        options = group[0].options
        self.metrics.record_batch(len(queries))
        try:
            results = await self._run_in_pool(
                self._run_group_in_worker, group, queries, options)
        except Exception as exc:  # noqa: BLE001 -- settle every waiter
            for item in group:
                if not item.future.done():
                    item.future.set_exception(exc)
            return
        for item, result in zip(group, results):
            if not item.future.done():       # done = its deadline expired
                item.future.set_result(result)

    def _run_group_in_worker(self, group: Sequence[_PendingQuery],
                             queries: list, options: dict) -> list:
        """Worker-thread body: one engine call for the whole group."""
        started = time.monotonic()
        for item in group:
            self.metrics.record_stage("queue", started - item.enqueued_at)
        try:
            return self._index.query_batch(queries, **options)
        finally:
            self.metrics.record_stage("execute",
                                      time.monotonic() - started)

    def _run_batch(self, queries: list, options: dict) -> list[list[str]]:
        """Worker-thread body of an explicit ``query_batch`` request."""
        started = time.monotonic()
        try:
            return self._index.query_batch(queries, **options)
        finally:
            self.metrics.record_stage("execute",
                                      time.monotonic() - started)


class ServerThread:
    """Run a :class:`QueryServer` on a background thread (tests, CLI-free
    embedding, benchmarks).

    ::

        with ServerThread(index, batch_window_ms=2) as handle:
            client = ServiceClient(port=handle.port)
            ...

    Exiting the context drains the server (closing the index unless the
    server was built with ``close_index_on_drain=False``) and joins the
    thread.
    """

    def __init__(self, index: Any, **server_options: Any) -> None:
        self.server = QueryServer(index, **server_options)
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(target=self._main,
                                        name="repro-server", daemon=True)

    def _main(self) -> None:
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        try:
            await self.server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            raise
        self._ready.set()
        await self.server.serve_until_drained()

    def start(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait(timeout=10)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._ready.is_set():
            raise RuntimeError("server failed to start within 10s")
        return self

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def http_port(self) -> int | None:
        return self.server.http_port

    def stop(self, timeout: float = 30.0) -> None:
        self.server.request_drain()
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError("server thread failed to drain in time")

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

"""Blocking client for the query service.

:class:`ServiceClient` speaks the length-prefixed binary protocol of
:mod:`repro.server.protocol` over one TCP connection: versioned frames
carrying a request id.  Queries are parsed client-side and shipped as
structural atom arrays, so the server never parses text; responses
decode through the packed-id fast path.  Because every response is
tagged, the connection can be **pipelined**: :meth:`submit` sends a
request without waiting, :meth:`drain` collects every outstanding
response, and :meth:`query_pipelined` keeps a bounded window of requests
in flight -- this is what lets the server's micro-batcher coalesce a
single client's burst into one engine call.  A request the wire cannot
express (unknown op, unparseable query text, missing field) raises
:class:`~repro.server.protocol.ProtocolError` here, before anything is
sent.

Server-reported errors surface as :class:`ServiceError` with the
protocol error code (``overloaded``, ``timeout``, ...) preserved so
callers can branch on it -- e.g. retry on ``overloaded``, give up on
``bad_request``.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Sequence

from .protocol import (
    ProtocolError,
    decode_response_body,
    encode_request_binary,
    recv_frame_bytes,
)

__all__ = ["ServiceClient", "ServiceError"]

#: Default bound on outstanding pipelined requests per connection.
DEFAULT_PIPELINE_WINDOW = 32

#: Connection-level failures worth a transparent reconnect: the server
#: restarted, a proxy dropped the connection, or the connect raced a
#: listener coming up.  Timeouts are *not* here -- a timeout may mean
#: the request is still executing, and retrying it would double-apply.
_TRANSIENT_ERRORS = (ConnectionRefusedError, ConnectionResetError,
                     ConnectionAbortedError, BrokenPipeError)


def _is_transient(exc: BaseException) -> bool:
    if isinstance(exc, _TRANSIENT_ERRORS):
        return True
    # recv_frame_bytes folds an EOF mid-frame into ProtocolError; a
    # clean close between frames surfaces as "server closed ...".
    return isinstance(exc, ProtocolError) and "closed" in str(exc)


class ServiceError(Exception):
    """A response with ``ok: false``; ``code`` is the protocol code."""

    def __init__(self, code: str, message: str = "") -> None:
        super().__init__(f"{code}: {message}" if message else code)
        self.code = code
        self.message = message


class ServiceClient:
    """One blocking connection to a running query server.

    Usable as a context manager::

        with ServiceClient(port=handle.port) as client:
            hits = client.query("{a, {b, c}}")

    Pipelined::

        ids = [client.submit({"op": "query", "query": q})
               for q in queries]
        results = client.drain()            # {request_id: result}
        answers = [results[i] for i in ids]
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 connect_timeout: float = 5.0,
                 io_timeout: float | None = 60.0,
                 retries: int = 0,
                 retry_backoff_s: float = 0.05,
                 retry_max_backoff_s: float = 2.0) -> None:
        #: Transparent reconnect budget on *transient* connection
        #: errors (refused connect, reset mid-frame).  Off by default:
        #: a replayed ``insert`` is not idempotent, so opting in is the
        #: caller asserting the workload tolerates at-least-once.  The
        #: pipelined :meth:`drain` path retries regardless (see there).
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        self.retry_max_backoff_s = retry_max_backoff_s
        self._host = host
        self._port = port
        self._connect_timeout = connect_timeout
        self._io_timeout = io_timeout
        self._next_id = 1
        #: request id -> encoded frame, kept until its response arrives
        #: so a reconnect can replay the in-flight window verbatim.
        self._outstanding: dict[int, bytes] = {}
        #: Prepared-query cache: text -> encoded nested-set section,
        #: so repeated queries skip the parse + atom-table work.
        self._query_cache: dict[str, bytes] = {}
        self._sock: socket.socket | None = None
        self._connect(attempts=self.retries)

    # -- plumbing ----------------------------------------------------------

    def _connect(self, attempts: int = 0) -> None:
        """(Re)open the TCP connection, with capped exponential backoff."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        backoff = self.retry_backoff_s
        for attempt in range(attempts + 1):
            try:
                self._sock = socket.create_connection(
                    (self._host, self._port),
                    timeout=self._connect_timeout)
                break
            except _TRANSIENT_ERRORS:
                if attempt == attempts:
                    raise
                time.sleep(backoff)
                backoff = min(backoff * 2, self.retry_max_backoff_s)
        assert self._sock is not None
        self._sock.settimeout(self._io_timeout)
        # One small frame per request: batching happens server-side, so
        # trade throughput-by-coalescing-on-the-wire for latency.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _reconnect_and_replay(self, attempts: int) -> None:
        """Reconnect and resend every outstanding frame, in id order;
        responses then arrive tagged as if the connection had never
        dropped."""
        self._connect(attempts=attempts)
        for request_id in sorted(self._outstanding):
            self._sock.sendall(self._outstanding[request_id])

    def _unwrap(self, response: dict) -> Any:
        """The result of a decoded response, or its error raised."""
        if not response["ok"]:
            raise ServiceError(response["error"], response["message"])
        return response["result"]

    def _encode(self, request: dict) -> tuple[int, bytes]:
        """Number ``request``, encode its frame, book it as outstanding."""
        request_id = self._next_id
        try:
            frame = encode_request_binary(
                request, request_id, query_cache=self._query_cache)
        except (ValueError, TypeError, KeyError) as exc:
            raise ProtocolError(
                f"request cannot be encoded: {exc!r}") from exc
        self._next_id += 1
        self._outstanding[request_id] = frame
        return request_id, frame

    def _recv_response(self) -> tuple[int, Any]:
        """Read one tagged response; returns ``(request_id, response)``."""
        body = recv_frame_bytes(self._sock)
        if body is None:
            raise ProtocolError("server closed the connection")
        request_id, response = decode_response_body(body)
        if request_id not in self._outstanding:
            raise ProtocolError(
                f"response for unknown request id {request_id}")
        del self._outstanding[request_id]
        return request_id, response

    def call(self, request: dict) -> Any:
        """Send one request, return the ``result`` of an ok response."""
        if self._outstanding:
            raise ProtocolError(
                f"{len(self._outstanding)} pipelined request(s) "
                "outstanding; drain() before a synchronous call")
        sent, frame = self._encode(request)     # the only one outstanding
        _request_id, response = self._roundtrip(frame, sent)
        return self._unwrap(response)

    def _roundtrip(self, frame: bytes, sent: int) -> tuple[int, Any]:
        """Send + receive one frame, reconnecting on transient failures."""
        attempts = self.retries
        backoff = self.retry_backoff_s
        need_send = True
        while True:
            try:
                if need_send:
                    self._sock.sendall(frame)
                    need_send = False
                return self._recv_response()
            except Exception as exc:
                if attempts <= 0 or not _is_transient(exc):
                    self._outstanding.pop(sent, None)
                    raise
                attempts -= 1
                time.sleep(backoff)
                backoff = min(backoff * 2, self.retry_max_backoff_s)
                self._reconnect_and_replay(0)
                need_send = False  # the replay resent it

    # -- pipelining --------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """How many submitted requests have no response yet."""
        return len(self._outstanding)

    def submit(self, request: dict) -> int:
        """Send one request without waiting; returns its request id.

        Many submits may be outstanding at once -- the server processes
        them concurrently and the micro-batcher coalesces the burst.
        Collect results with :meth:`drain` (all of them) or
        :meth:`next_response` (one at a time, completion order).
        """
        request_id, frame = self._encode(request)
        try:
            self._sock.sendall(frame)
        except BaseException:
            del self._outstanding[request_id]
            raise
        return request_id

    def next_response(self) -> tuple[int, Any]:
        """Block for the next response: ``(request_id, result)``.

        Responses arrive in *completion* order, not submission order.
        Raises :class:`ServiceError` for an error response (the request
        id it settles is consumed either way).
        """
        if not self._outstanding:
            raise ProtocolError("no requests outstanding")
        request_id, response = self._recv_response()
        return request_id, self._unwrap(response)

    def drain(self) -> dict[int, Any]:
        """Collect every outstanding response, keyed by request id.

        Reads until the pipeline is empty.  If any response is an
        error, the first one is raised *after* all outstanding
        responses have been read, so the connection stays usable.

        A drain retries transient connection failures even when
        ``retries`` is 0: every outstanding request kept its encoded
        frame, so a reconnect can replay the in-flight window verbatim
        and the drain completes instead of stranding the pipeline.
        """
        results: dict[int, Any] = {}
        first_error: ServiceError | None = None
        attempts = max(self.retries, 1)
        backoff = self.retry_backoff_s
        while self._outstanding:
            try:
                request_id, response = self._recv_response()
            except Exception as exc:
                if attempts <= 0 or not _is_transient(exc):
                    raise
                attempts -= 1
                time.sleep(backoff)
                backoff = min(backoff * 2, self.retry_max_backoff_s)
                self._reconnect_and_replay(0)
                continue
            try:
                results[request_id] = self._unwrap(response)
            except ServiceError as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return results

    def query_pipelined(self, queries: Sequence[object], *,
                        window: int = DEFAULT_PIPELINE_WINDOW,
                        timeout_ms: float | None = None,
                        **options: Any) -> list[list[str]]:
        """Evaluate many queries with up to ``window`` in flight.

        Unlike :meth:`query_batch` (one giant frame, one giant
        response) this streams individual requests and lets the
        *server* choose the coalescing -- the shape that matches mixed
        traffic, and the fast path for a single busy client.  Results
        come back in input order.
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        results: dict[int, list[str]] = {}
        order: list[int] = []
        for query in queries:
            while len(self._outstanding) >= window:
                request_id, result = self.next_response()
                results[request_id] = result
            request: dict[str, Any] = {"op": "query", "query": query}
            if options:
                request["options"] = options
            if timeout_ms is not None:
                request["timeout_ms"] = timeout_ms
            order.append(self.submit(request))
        results.update(self.drain())
        return [results[request_id] for request_id in order]

    # -- operations --------------------------------------------------------

    def ping(self) -> str:
        return self.call({"op": "ping"})

    def query(self, query: object, *, timeout_ms: float | None = None,
              **options: Any) -> list[str]:
        """Evaluate one containment query; returns matching record keys."""
        request: dict[str, Any] = {"op": "query", "query": query}
        if options:
            request["options"] = options
        if timeout_ms is not None:
            request["timeout_ms"] = timeout_ms
        return self.call(request)

    def query_batch(self, queries: Sequence[object], *,
                    timeout_ms: float | None = None,
                    **options: Any) -> list[list[str]]:
        """Evaluate many queries in one round trip (one engine batch)."""
        request: dict[str, Any] = {"op": "query_batch",
                                   "queries": list(queries)}
        if options:
            request["options"] = options
        if timeout_ms is not None:
            request["timeout_ms"] = timeout_ms
        return self.call(request)

    def insert(self, key: str, value: str, *,
               timeout_ms: float | None = None) -> int:
        """Insert one record; returns its ordinal in the index."""
        request: dict[str, Any] = {"op": "insert", "key": key,
                                   "value": value}
        if timeout_ms is not None:
            request["timeout_ms"] = timeout_ms
        return self.call(request)["ordinal"]

    def delete(self, key: str, *,
               timeout_ms: float | None = None) -> bool:
        """Tombstone one record; True if the key existed."""
        request: dict[str, Any] = {"op": "delete", "key": key}
        if timeout_ms is not None:
            request["timeout_ms"] = timeout_ms
        return self.call(request)["deleted"]

    def ingest(self, records: "Sequence[tuple[str, str]]", *,
               timeout_ms: float | None = None) -> dict:
        """Enqueue records for streaming ingest (returns before commit).

        The server batches accepted records into write-ahead-log commit
        groups off the query path; the response carries the ingestor's
        cumulative counters, not a completion acknowledgment.
        """
        request: dict[str, Any] = {
            "op": "ingest",
            "records": [[key, value] for key, value in records],
        }
        if timeout_ms is not None:
            request["timeout_ms"] = timeout_ms
        return self.call(request)

    def stats(self) -> dict:
        """Server counters plus engine counters, one consistent snapshot."""
        return self.call({"op": "stats"})

    def shutdown(self) -> dict:
        """Ask the server to drain gracefully; returns its acknowledgment."""
        return self.call({"op": "shutdown"})

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._sock is None:
            return
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

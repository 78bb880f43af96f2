"""Replication over the wire: repl_* ops, roles, routing, and retry.

Runs a real primary/replica pair of :class:`ServerThread` instances on
loopback and drives the same stack the ``serve --replicate-from`` CLI
wires up: bootstrap over ``repl_bootstrap``/``repl_pages``/``repl_done``,
background tailing over ``repl_fetch``, the replica's ``read_only``
write fence, role/term/lag in ``stats`` and on the HTTP gateway, and
``promote`` flipping the role live.  Also covers the client-side
satellites: binary codec round trips for the five new ops and
:class:`ServiceClient`'s opt-in transparent reconnect.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.bench.workloads import generate_dataset
from repro.core.engine import NestedSetIndex
from repro.replication import (ReplicaSetClient, ReplicaTailer,
                               ReplicationManager, bootstrap_from_primary)
from repro.server import ServerThread, ServiceClient, ServiceError
from repro.server.protocol import (ProtocolError, decode_request_body,
                                   encode_request_binary, validate_request)


def _corpus(size: int = 40):
    return list(generate_dataset("uniform-wide", size, seed=7))


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _wait_caught_up(pair, timeout: float = 15.0) -> dict:
    """Wait until the replica applied everything the primary committed.

    ``lag_groups == 0`` alone is not enough: it reflects the primary's
    log end *as of the tailer's last fetch*, which may predate commits
    made just now.  Compare against the primary's live log instead.
    """
    target = pair.primary.base_store.pager.wal.last_seq
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        lag = pair.tailer.lag()
        if lag["status"] == "tailing" and lag["applied_seq"] >= target:
            return lag
        time.sleep(0.02)
    raise AssertionError(f"replica never caught up: {pair.tailer.lag()}")


# ---------------------------------------------------------------------------
# Binary codec for the replication ops
# ---------------------------------------------------------------------------


class TestReplicationProtocol:
    def _roundtrip(self, request: dict) -> dict:
        frame = encode_request_binary(request, 11)
        return decode_request_body(frame[4:]).payload

    def test_payloads_survive_binary_roundtrip(self) -> None:
        for request in (
                {"op": "repl_bootstrap", "replica_id": "r-1"},
                {"op": "repl_pages", "session": "tok", "start_page": 0,
                 "count": 512},
                {"op": "repl_done", "session": "tok"},
                {"op": "repl_fetch", "replica_id": "r-1", "after_seq": 9,
                 "max_groups": 32, "wait_ms": 100},
                {"op": "promote"},
        ):
            assert self._roundtrip(dict(request)) == request

    def test_fetch_defaults_applied_on_encode(self) -> None:
        payload = self._roundtrip({"op": "repl_fetch",
                                   "replica_id": "r", "after_seq": 0})
        assert payload["max_groups"] == 256
        assert payload["wait_ms"] == 0

    def test_validate_rejects_bad_fields(self) -> None:
        for bad in (
                {"op": "repl_bootstrap"},
                {"op": "repl_pages", "session": "t", "start_page": -1,
                 "count": 1},
                {"op": "repl_pages", "session": "t", "start_page": 0,
                 "count": True},
                {"op": "repl_done"},
                {"op": "repl_fetch", "replica_id": "r",
                 "after_seq": "nope"},
        ):
            with pytest.raises(ProtocolError):
                validate_request(bad)

    def test_validate_accepts_fetch_defaults(self) -> None:
        validate_request({"op": "repl_fetch", "replica_id": "r",
                          "after_seq": 0})
        validate_request({"op": "promote"})


# ---------------------------------------------------------------------------
# Primary/replica pair end to end
# ---------------------------------------------------------------------------


class _Pair:
    """A served primary + bootstrapped, tailing, served replica."""

    def __init__(self, tmp_path) -> None:
        self.primary_path = str(tmp_path / "primary.db")
        self.replica_path = str(tmp_path / "replica.db")
        NestedSetIndex.build(_corpus(), storage="diskhash",
                             path=self.primary_path).close()
        self.primary = NestedSetIndex.open("diskhash", self.primary_path)
        self.primary_handle = ServerThread(
            self.primary, close_index_on_drain=False, http_port=0,
            replication=ReplicationManager.as_primary(self.primary),
            batch_window_ms=1).start()
        self.primary_client = ServiceClient(port=self.primary_handle.port)

        boot = bootstrap_from_primary(self.primary_client.call,
                                      self.replica_path, "r1")
        self.replica = NestedSetIndex.open("diskhash", self.replica_path)
        self.replica.base_store.pager.adopt_version(boot["version"])
        self.tail_client = ServiceClient(port=self.primary_handle.port)
        self.tailer = ReplicaTailer(
            self.replica, self.tail_client.call, replica_id="r1",
            primary_address=f"127.0.0.1:{self.primary_handle.port}",
            poll_wait_ms=50).start()
        self.replica_handle = ServerThread(
            self.replica, close_index_on_drain=False, http_port=0,
            replication=ReplicationManager.as_replica(self.replica,
                                                      self.tailer),
            batch_window_ms=1).start()
        self.replica_client = ServiceClient(port=self.replica_handle.port)

    def close(self) -> None:
        self.tailer.stop()
        for client in (self.replica_client, self.primary_client,
                       self.tail_client):
            client.close()
        self.replica_handle.stop()
        self.primary_handle.stop()
        self.replica.close()
        self.primary.close()


@pytest.fixture
def pair(tmp_path):
    stack = _Pair(tmp_path)
    try:
        yield stack
    finally:
        stack.close()


def _http(port: int, method: str, path: str, payload=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestReplicatedService:
    def test_replica_tails_and_answers_identically(self, pair) -> None:
        for i in range(12):
            pair.primary_client.insert(f"new{i}",
                                       "{fresh, {tier, t%d}}" % (i % 3))
        pair.primary_client.delete(_corpus()[0][0])
        _wait_caught_up(pair)

        queries = ["{fresh}", "{fresh, {tier}}", "{fresh, {tier, t1}}"]
        for query in queries:
            expected = pair.primary_client.query(query)
            assert pair.replica_client.query(query) == expected
            assert sorted(expected), f"empty probe {query!r}"

        pstats = pair.primary_client.stats()["server"]
        assert pstats["role"] == "primary"
        assert "r1" in pstats["replication"]["shipping"]["followers"]
        rstats = pair.replica_client.stats()["server"]
        assert rstats["role"] == "replica"
        assert rstats["term"] == pstats["term"]
        assert rstats["replica_lag"]["lag_groups"] == 0
        assert rstats["replication"]["primary"].endswith(
            str(pair.primary_handle.port))
        # The metrics scoreboard absorbed the same view.
        snap = pair.replica_handle.server.metrics.snapshot()
        assert snap["replication"]["role"] == "replica"

    def test_gateway_reports_role_term_lag(self, pair) -> None:
        _wait_caught_up(pair)
        status, body = _http(pair.primary_handle.http_port, "GET", "/ping")
        assert status == 200
        assert (body["role"], body["term"]) == ("primary", 0)
        assert body["replica_lag"] is None
        status, body = _http(pair.replica_handle.http_port, "GET", "/ping")
        assert status == 200
        assert body["role"] == "replica"
        assert body["replica_lag"]["lag_groups"] == 0
        status, body = _http(pair.replica_handle.http_port, "GET",
                             "/stats")
        assert status == 200 and body["role"] == "replica"

    def test_replica_rejects_writes_naming_primary(self, pair) -> None:
        for request in (
                {"op": "insert", "key": "x", "value": "{a}"},
                {"op": "delete", "key": "x"},
                {"op": "ingest", "records": [["x", "{a}"]]},
        ):
            with pytest.raises(ServiceError) as excinfo:
                pair.replica_client.call(request)
            assert excinfo.value.code == "read_only"
            assert str(pair.primary_handle.port) in excinfo.value.message
        status, body = _http(pair.replica_handle.http_port, "POST",
                             "/insert", {"key": "x", "value": "{a}"})
        assert status == 403
        assert body["error"] == "read_only"

    def test_promote_flips_role_and_accepts_writes(self, pair) -> None:
        pair.primary_client.insert("pre", "{promo, {a}}")
        _wait_caught_up(pair)
        result = pair.replica_client.call({"op": "promote"})
        assert result["promoted"] is True
        assert (result["role"], result["term"]) == ("primary", 1)
        # Promotion is idempotent: a second call reports, not re-fences.
        again = pair.replica_client.call({"op": "promote"})
        assert again["promoted"] is False and again["term"] == 1
        pair.replica_client.insert("post", "{promo, {b}}")
        assert pair.replica_client.query("{promo}") == ["post", "pre"]
        stats = pair.replica_client.stats()["server"]
        assert (stats["role"], stats["term"]) == ("primary", 1)

    def test_replica_set_client_routes_and_fails_over(self, pair) -> None:
        pair.primary_client.insert("routed", "{routed, {a}}")
        _wait_caught_up(pair)
        endpoints = [f"127.0.0.1:{pair.primary_handle.port}",
                     f"127.0.0.1:{pair.replica_handle.port}"]
        with ReplicaSetClient(endpoints, max_staleness_s=30.0) as client:
            assert client.query("{routed}") == ["routed"]
            roles = {e["role"] for e in client.endpoints()}
            assert roles == {"primary", "replica"}
            # Writes land on the primary even when the replica is listed
            # first in the read rotation.
            client.insert("routed2", "{routed, {b}}")
            _wait_caught_up(pair)
            assert client.query("{routed}") == ["routed", "routed2"]
            # Failover: the primary dies, an operator promotes the
            # replica, and the next write discovers the new primary.
            pair.primary_handle.stop()
            promoted = client.promote(endpoints[1])
            assert promoted["role"] == "primary"
            client.insert("routed3", "{routed, {c}}")
            assert sorted(pair.replica.query("{routed}")) \
                == ["routed", "routed2", "routed3"]

    def test_unreplicated_server_rejects_repl_ops(self, tmp_path) -> None:
        index = NestedSetIndex.build(_corpus())
        with ServerThread(index, close_index_on_drain=False) as handle:
            with ServiceClient(port=handle.port) as client:
                with pytest.raises(ServiceError, match="not enabled"):
                    client.call({"op": "repl_bootstrap",
                                 "replica_id": "r"})
                stats = client.stats()["server"]
                assert "role" not in stats
        index.close()


# ---------------------------------------------------------------------------
# ServiceClient transparent reconnect (opt-in)
# ---------------------------------------------------------------------------


class TestClientRetry:
    def test_no_retry_by_default(self) -> None:
        with pytest.raises(OSError):
            ServiceClient(port=_free_port())

    def test_connect_retries_until_listener_appears(self) -> None:
        port = _free_port()
        index = NestedSetIndex.build(_corpus(12))
        holder: dict[str, ServerThread] = {}

        def late_start() -> None:
            time.sleep(0.4)
            holder["handle"] = ServerThread(
                index, port=port, close_index_on_drain=False).start()

        thread = threading.Thread(target=late_start)
        thread.start()
        try:
            client = ServiceClient(port=port, retries=8,
                                   retry_backoff_s=0.1)
            assert client.ping() == "pong"
            client.close()
        finally:
            thread.join()
            holder["handle"].stop()
            index.close()

    def test_call_survives_server_restart(self) -> None:
        port = _free_port()
        index = NestedSetIndex.build(_corpus(12))
        handle = ServerThread(index, port=port,
                              close_index_on_drain=False).start()
        client = ServiceClient(port=port, retries=8, retry_backoff_s=0.05)
        try:
            assert client.ping() == "pong"
            handle.stop()
            handle = ServerThread(index, port=port,
                                  close_index_on_drain=False).start()
            assert client.ping() == "pong", "reconnect did not happen"
            assert client.query_batch(["{a}"]) is not None
        finally:
            client.close()
            handle.stop()
            index.close()

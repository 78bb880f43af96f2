"""End-to-end tests of the concurrent query service.

Each test runs a real :class:`~repro.server.ServerThread` on a loopback
port and talks to it through the blocking client -- the same stack the
CLI, the benchmark, and the CI smoke job use.  The headline property is
ISSUE 5's acceptance bar: answers served to concurrent clients are
byte-identical to sequential in-process evaluation, including while
inserts and deletes interleave.
"""

from __future__ import annotations

import http.client
import json
import socket
import struct
import threading
import time

import pytest

from repro.bench.workloads import generate_dataset
from repro.core.engine import NestedSetIndex
from repro.server import ServerThread, ServiceClient, ServiceError
from repro.server.protocol import ProtocolError, decode_response_body, \
    recv_frame_bytes


def _corpus(size: int = 120):
    return list(generate_dataset("uniform-wide", size, seed=7))


def _query_mix(records, n: int = 24) -> list[str]:
    """Queries with non-trivial answers: subsets of real records."""
    queries = []
    for i, (_, value) in enumerate(records):
        if i >= n:
            break
        atoms = sorted(value.atoms)[:2]
        queries.append("{%s}" % ", ".join(atoms))
    return queries


@pytest.fixture
def memory_index():
    index = NestedSetIndex.build(_corpus())
    yield index
    index.close()


class TestServing:
    def test_query_matches_in_process(self, memory_index) -> None:
        records = _corpus()
        queries = _query_mix(records)
        expected = [memory_index.query(q) for q in queries]
        with ServerThread(memory_index, batch_window_ms=1,
                          close_index_on_drain=False) as handle:
            with ServiceClient(port=handle.port) as client:
                assert client.ping() == "pong"
                served = [client.query(q) for q in queries]
        assert served == expected

    def test_query_options_forwarded(self, memory_index) -> None:
        records = _corpus()
        query = _query_mix(records, n=1)[0]
        expected = memory_index.query(query, algorithm="topdown",
                                      mode="anywhere")
        with ServerThread(memory_index,
                          close_index_on_drain=False) as handle:
            with ServiceClient(port=handle.port) as client:
                served = client.query(query, algorithm="topdown",
                                      mode="anywhere")
        assert served == expected

    def test_query_batch_round_trip(self, memory_index) -> None:
        queries = _query_mix(_corpus())
        expected = memory_index.query_batch(queries)
        with ServerThread(memory_index,
                          close_index_on_drain=False) as handle:
            with ServiceClient(port=handle.port) as client:
                assert client.query_batch(queries) == expected

    def test_sixteen_concurrent_clients_identical(self,
                                                  memory_index) -> None:
        queries = _query_mix(_corpus())
        expected = [memory_index.query(q) for q in queries]
        errors: list[BaseException] = []

        with ServerThread(memory_index, batch_window_ms=2,
                          close_index_on_drain=False) as handle:
            def worker() -> None:
                try:
                    with ServiceClient(port=handle.port) as client:
                        for _ in range(3):
                            got = [client.query(q) for q in queries]
                            assert got == expected
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=worker)
                       for _ in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = handle.server.metrics.snapshot()
        assert not errors
        # 16 clients x 3 rounds x len(queries) singles went through the
        # batcher; under concurrency at least some must have coalesced.
        assert stats["batches"] >= 1
        assert stats["batched_queries"] == 16 * 3 * len(queries)

    def test_concurrent_reads_with_interleaved_writes(self) -> None:
        """Served answers under mutation match in-process truth."""
        index = NestedSetIndex.build(_corpus(80))
        probe = "{__probe__}"
        errors: list[BaseException] = []
        stop = threading.Event()

        with ServerThread(index, batch_window_ms=1,
                          close_index_on_drain=False) as handle:
            def reader() -> None:
                try:
                    with ServiceClient(port=handle.port) as client:
                        while not stop.is_set():
                            hits = client.query(probe)
                            # Every answer is a sorted prefix-consistent
                            # snapshot: only ever probe keys, sorted.
                            assert hits == sorted(hits)
                            assert all(h.startswith("probe")
                                       for h in hits)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            readers = [threading.Thread(target=reader) for _ in range(8)]
            for t in readers:
                t.start()
            with ServiceClient(port=handle.port) as writer:
                for i in range(10):
                    writer.insert(f"probe{i:02d}",
                                  "{__probe__, x%d}" % i)
                for i in range(0, 10, 2):
                    assert writer.delete(f"probe{i:02d}") is True
            stop.set()
            for t in readers:
                t.join()
            with ServiceClient(port=handle.port) as client:
                final = client.query(probe)
        assert not errors
        # In-process ground truth after the same mutation sequence.
        assert final == index.query(probe)
        assert final == [f"probe{i:02d}" for i in range(1, 10, 2)]
        index.close()


class TestAdmissionControl:
    def test_overload_rejection(self, memory_index) -> None:
        gate = threading.Event()
        original = memory_index.query

        def slow_query(query, **options):
            gate.wait(timeout=10)
            return original(query, **options)

        memory_index.query = slow_query
        try:
            with ServerThread(memory_index, max_inflight=2,
                              batch_window_ms=0,
                              close_index_on_drain=False) as handle:
                blocked = [ServiceClient(port=handle.port)
                           for _ in range(2)]
                try:
                    for client in blocked:
                        # Fire without reading: each holds one
                        # in-flight slot while the gate is shut.
                        client.submit({"op": "query", "query": "{a}"})
                    deadline = time.monotonic() + 5
                    with ServiceClient(port=handle.port) as extra:
                        while time.monotonic() < deadline:
                            try:
                                extra.query("{a}", timeout_ms=300)
                            except ServiceError as exc:
                                if exc.code == "timeout":
                                    continue  # raced the slot holders
                                assert exc.code == "overloaded"
                                break
                            time.sleep(0.01)
                        else:
                            pytest.fail("no overload rejection seen")
                        # Health checks still answered under overload.
                        assert extra.ping() == "pong"
                    gate.set()
                    for client in blocked:
                        client.drain()
                finally:
                    gate.set()
                    for client in blocked:
                        client.close()
                assert handle.server.metrics.snapshot()[
                    "rejected_overload"] >= 1
        finally:
            memory_index.query = original

    def test_timeout_deadline(self, memory_index) -> None:
        original = memory_index.query

        def slow_query(query, **options):
            time.sleep(0.4)
            return original(query, **options)

        memory_index.query = slow_query
        try:
            with ServerThread(memory_index, batch_window_ms=0,
                              close_index_on_drain=False) as handle:
                with ServiceClient(port=handle.port) as client:
                    with pytest.raises(ServiceError) as excinfo:
                        client.query("{a}", timeout_ms=50)
                    assert excinfo.value.code == "timeout"
                assert handle.server.metrics.snapshot()["timeouts"] == 1
        finally:
            memory_index.query = original

    def test_bad_requests_answered_not_fatal(self, memory_index) -> None:
        with ServerThread(memory_index,
                          close_index_on_drain=False) as handle:
            with ServiceClient(port=handle.port) as client:
                for unknown in ({"volume": 11}, {"planner": "text"}):
                    with pytest.raises(ServiceError) as excinfo:
                        client.query("{a}", **unknown)
                    assert excinfo.value.code == "bad_request"
                    with pytest.raises(ServiceError) as excinfo:
                        client.query_batch(["{a}"], **unknown)
                    assert excinfo.value.code == "bad_request"
                with pytest.raises(ServiceError) as excinfo:
                    client.query("{a}", algorithm="no-such")
                assert excinfo.value.code == "internal"
                # What the wire cannot carry is refused client-side,
                # before anything is sent.
                with pytest.raises(ProtocolError, match="unknown op"):
                    client.call({"op": "evaporate"})
                with pytest.raises(ProtocolError, match="encoded"):
                    client.call({"op": "query", "query": "{unclosed"})
                with pytest.raises(ProtocolError, match="encoded"):
                    client.submit({"op": "insert", "key": "k"})
                # The connection survived all of them.
                assert client.outstanding == 0
                assert client.ping() == "pong"


class TestDrain:
    def test_drain_checkpoints_wal(self, tmp_path) -> None:
        path = str(tmp_path / "served.idx")
        NestedSetIndex.build(_corpus(40), storage="diskhash",
                             path=path).close()
        index = NestedSetIndex.open("diskhash", path)
        with ServerThread(index) as handle:  # closes index on drain
            with ServiceClient(port=handle.port) as client:
                client.insert("fresh", "{fresh_atom, {nested}}")
                assert client.query("{fresh_atom}") == ["fresh"]
                client.shutdown()
        # Drained server closed the index: reopening must replay
        # nothing and still see the insert.
        with NestedSetIndex.open("diskhash", path) as reopened:
            wal = reopened.stats()["wal"]
            assert wal["pending_groups"] == 0
            assert wal["recovered_on_open"] == 0
            assert reopened.query("{fresh_atom}") == ["fresh"]

    def test_requests_after_shutdown_rejected(self, memory_index) -> None:
        with ServerThread(memory_index,
                          close_index_on_drain=False) as handle:
            port = handle.port
            with ServiceClient(port=port) as client:
                client.shutdown()
            # The listener stops during drain; either the connection is
            # refused or an early-enough frame gets `shutting_down`.
            try:
                with ServiceClient(port=port,
                                   connect_timeout=0.2) as late:
                    late.query("{a}")
            except (ServiceError, OSError) as exc:
                if isinstance(exc, ServiceError):
                    assert exc.code == "shutting_down"


class TestIngest:
    def test_ingest_round_trip_and_stats(self, memory_index) -> None:
        """The ``ingest`` op: accepted asynchronously, durable shortly
        after, and accounted for in the ``stats`` surface."""
        records = [(f"ing{i:02d}", "{__ingested__, t%d}" % i)
                   for i in range(40)]
        expected = sorted(key for key, _value in records)
        with ServerThread(memory_index, batch_window_ms=1,
                          close_index_on_drain=False) as handle:
            with ServiceClient(port=handle.port) as client:
                reply = client.ingest(records)
                assert reply["accepted"] == len(records)
                # Ingest is asynchronous (that is its point): queries
                # keep being served while the batcher commits groups.
                deadline = time.time() + 30
                while time.time() < deadline:
                    if client.query("{__ingested__}") == expected:
                        break
                    time.sleep(0.02)
                assert client.query("{__ingested__}") == expected

                server = client.stats()["server"]
                assert server["ingest_records"] == len(records)
                assert 1 <= server["ingest_groups_committed"] \
                    <= len(records)
                assert server["ingest_errors"] == 0
                # The MVCC surface: a committed version exists, and no
                # reader pin is stuck (queries pin transiently).
                assert server["snapshot_version"] is not None
                assert server["snapshot_version"] >= 1
                assert "oldest_pinned_version" in server

    def test_ingest_drains_before_shutdown(self, memory_index) -> None:
        """Drain closes the ingestor first: accepted records are durable
        by the time shutdown acknowledges."""
        records = [(f"drain{i}", "{__drained__}") for i in range(24)]
        with ServerThread(memory_index,
                          close_index_on_drain=False) as handle:
            with ServiceClient(port=handle.port) as client:
                client.ingest(records)
                client.shutdown()
        assert memory_index.query("{__drained__}") == \
            sorted(key for key, _value in records)


class TestBinaryWire:
    """The binary wire serves answers byte-identical to the text
    interface's (JSON over the HTTP gateway)."""

    def test_binary_matches_json_and_in_process(self,
                                                memory_index) -> None:
        records = _corpus()
        queries = _query_mix(records)
        expected = [memory_index.query(q) for q in queries]
        with ServerThread(memory_index, batch_window_ms=1, http_port=0,
                          close_index_on_drain=False) as handle:
            with ServiceClient(port=handle.port) as binary:
                served_binary = [binary.query(q) for q in queries]
            conn = http.client.HTTPConnection(
                "127.0.0.1", handle.http_port, timeout=10)
            try:
                served_json = []
                for query in queries:
                    conn.request("POST", "/query",
                                 body=json.dumps({"query": query}))
                    served_json.append(
                        json.loads(conn.getresponse().read())["result"])
            finally:
                conn.close()
        assert served_binary == expected
        assert served_json == expected

    @pytest.mark.parametrize("payload", [
        b'{"op":"ping"}',                   # the retired JSON frame
        b"\xb2\x01\x00\x01\x00",            # off-by-one magic
        b"\x00\x01\x02\x03",                # any other first byte
        b"",
    ], ids=["json", "magic", "zero", "empty"])
    def test_hostile_first_byte_is_answered_and_closed(
            self, memory_index, payload) -> None:
        with ServerThread(memory_index,
                          close_index_on_drain=False) as handle:
            with socket.create_connection(("127.0.0.1", handle.port),
                                          timeout=5) as sock:
                sock.sendall(struct.pack("!I", len(payload)) + payload)
                request_id, response = decode_response_body(
                    recv_frame_bytes(sock))
                assert request_id == 0
                assert (response["ok"], response["error"]) == \
                    (False, "bad_request")
                assert recv_frame_bytes(sock) is None       # closed
            # the listener is unharmed
            with ServiceClient(port=handle.port) as client:
                assert client.ping() == "pong"
            assert handle.server.metrics.snapshot()[
                "errors_by_code"]["bad_request"] >= 1

    def test_batch_over_binary(self, memory_index) -> None:
        records = _corpus()
        queries = _query_mix(records, n=12)
        expected = [memory_index.query(q) for q in queries]
        with ServerThread(memory_index, batch_window_ms=0,
                          close_index_on_drain=False) as handle:
            with ServiceClient(port=handle.port) as client:
                assert client.query_batch(queries) == expected


class TestPipelining:
    def test_submit_drain_matches_in_process(self, memory_index) -> None:
        records = _corpus()
        queries = _query_mix(records)
        expected = [memory_index.query(q) for q in queries]
        with ServerThread(memory_index, batch_window_ms=2,
                          close_index_on_drain=False) as handle:
            with ServiceClient(port=handle.port) as client:
                ids = [client.submit({"op": "query", "query": q})
                       for q in queries]
                assert client.outstanding == len(queries)
                results = client.drain()
                assert client.outstanding == 0
        assert [results[i] for i in ids] == expected

    def test_query_pipelined_matches_in_process(self,
                                                memory_index) -> None:
        records = _corpus()
        queries = _query_mix(records) * 3  # > default window
        expected = [memory_index.query(q) for q in queries]
        with ServerThread(memory_index, batch_window_ms=2,
                          close_index_on_drain=False) as handle:
            with ServiceClient(port=handle.port) as client:
                assert client.query_pipelined(queries,
                                              window=8) == expected
                # The burst coalesced into fewer engine calls.
                server = client.stats()["server"]
                assert server["batches"] >= 1

    def test_responses_arrive_out_of_order(self, memory_index) -> None:
        """A slow query must not head-of-line-block a fast one."""
        gate = threading.Event()
        original = memory_index.query

        def gated_query(query, **options):
            atoms = getattr(query, "atoms", frozenset())
            if "__slow__" in atoms:
                gate.wait(timeout=10)
            return original(query, **options)

        memory_index.query = gated_query
        try:
            with ServerThread(memory_index, batch_window_ms=0,
                              close_index_on_drain=False) as handle:
                with ServiceClient(port=handle.port) as client:
                    slow = client.submit({"op": "query",
                                          "query": "{__slow__}"})
                    fast = client.submit({"op": "query",
                                          "query": "{a}"})
                    first_id, _result = client.next_response()
                    assert first_id == fast
                    gate.set()
                    second_id, _result = client.next_response()
                    assert second_id == slow
        finally:
            gate.set()
            memory_index.query = original

    def test_drain_surfaces_first_error_after_reading_all(
            self, memory_index) -> None:
        with ServerThread(memory_index, batch_window_ms=0,
                          close_index_on_drain=False) as handle:
            with ServiceClient(port=handle.port) as client:
                ok_id = client.submit({"op": "query", "query": "{a}"})
                client.submit({"op": "query", "query": "{b}",
                               "options": {"algorithm": "no-such"}})
                with pytest.raises(ServiceError):
                    client.drain()
                # The pipeline is empty and the connection usable.
                assert client.outstanding == 0
                assert client.ping() == "pong"
                assert ok_id >= 1


class TestAdaptiveWindow:
    def test_single_inflight_skips_the_window(self, memory_index) -> None:
        """Regression: with one request in flight the micro-batcher
        must dispatch immediately, not sleep out the window."""
        with ServerThread(memory_index, batch_window_ms=250,
                          close_index_on_drain=False) as handle:
            with ServiceClient(port=handle.port) as client:
                client.ping()  # connection warm-up outside the clock
                started = time.monotonic()
                for _ in range(3):
                    client.query("{a}")
                elapsed = time.monotonic() - started
        # Three sequential queries under a 250 ms window would take
        # >= 750 ms without the floor; the bound leaves slack for CI.
        assert elapsed < 0.5, f"window tax not bypassed: {elapsed:.3f}s"

    def test_pipelined_burst_still_coalesces(self, memory_index) -> None:
        records = _corpus()
        queries = _query_mix(records) * 2
        with ServerThread(memory_index, batch_window_ms=5,
                          close_index_on_drain=False) as handle:
            with ServiceClient(port=handle.port) as client:
                client.query_pipelined(queries, window=16)
                server = client.stats()["server"]
        assert server["batches"] >= 1
        assert server["coalesce_ratio"] > 1.0

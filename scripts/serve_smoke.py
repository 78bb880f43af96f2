"""CI smoke test for the query service: serve, mutate, drain, reopen.

Exercises the full serving stack the way an operator would:

1. generate a collection and build a disk index,
2. start ``nestcontain serve`` (with its HTTP gateway) as a real
   subprocess,
3. run a mixed workload (concurrent queries racing inserts and a
   delete) through the blocking client, asserting *exact* answers,
4. hit the same server over the binary wire, a pipelined submit/drain
   burst, and one HTTP-gateway request, and assert byte-identical
   answers to an in-process open,
5. drain the server via the ``shutdown`` op and wait for a clean exit,
6. reopen the index: the insert must be durable and the write-ahead
   log must have nothing to replay (the drain checkpointed it).

Exit status 0 means every step held.  Run from the repo root::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.engine import NestedSetIndex  # noqa: E402
from repro.data.io import save_collection_file  # noqa: E402
from repro.bench.workloads import generate_dataset  # noqa: E402
from repro.server import ServiceClient  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as workdir:
        collection = os.path.join(workdir, "smoke.nsets")
        index_path = os.path.join(workdir, "smoke.idx")
        records = list(generate_dataset("uniform-wide", 150, seed=5))
        save_collection_file(records, collection)

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        run = [sys.executable, "-m", "repro.cli"]
        subprocess.run(run + ["index", collection, "-o", index_path],
                       check=True, env=env)

        server = subprocess.Popen(
            run + ["serve", index_path, "--port", "0",
                   "--http-port", "0",
                   "--batch-window-ms", "1", "--workers", "4"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        try:
            banner = server.stdout.readline()
            match = re.search(r":(\d+) \(", banner)
            assert match, f"no port in server banner: {banner!r}"
            port = int(match.group(1))
            gateway_banner = server.stdout.readline()
            gw_match = re.search(r":(\d+)\s*$", gateway_banner)
            assert gw_match, ("no port in gateway banner: "
                              f"{gateway_banner!r}")
            http_port = int(gw_match.group(1))
            print(f"serve_smoke: server up on port {port}, "
                  f"http gateway on {http_port}")

            # Ground truth from a separate in-process open (read-only).
            with NestedSetIndex.open("diskhash", index_path) as truth:
                probe = "{%s}" % sorted(records[0][1].atoms)[0]
                expected = truth.query(probe)
            assert expected, "probe query must have matches"

            errors: list[BaseException] = []

            def reader() -> None:
                try:
                    with ServiceClient(port=port) as client:
                        for _ in range(30):
                            got = client.query(probe)
                            assert got[:len(expected)] == expected, (
                                f"served {got!r} lost {expected!r}")
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            readers = [threading.Thread(target=reader)
                       for _ in range(6)]
            for thread in readers:
                thread.start()
            with ServiceClient(port=port) as writer:
                for i in range(5):
                    value = "{__smoke__, %s}" % (
                        sorted(records[0][1].atoms)[0])
                    writer.insert(f"smoke{i}", value)
                assert writer.delete("smoke0") is True
                smoke_hits = writer.query("{__smoke__}")
            for thread in readers:
                thread.join()
            assert not errors, errors[:1]
            assert smoke_hits == [f"smoke{i}" for i in range(1, 5)], (
                f"mutations not visible: {smoke_hits!r}")
            print("serve_smoke: mixed workload exact "
                  f"({len(readers)} readers, 5 inserts, 1 delete)")

            # Every wire, same answers.  Ground truth re-read after the
            # mutations above so all paths chase the same snapshot.
            with NestedSetIndex.open("diskhash", index_path) as truth:
                probes = [probe, "{__smoke__}"]
                wire_truth = [truth.query(q) for q in probes]
            with ServiceClient(port=port) as binary_client:
                assert [binary_client.query(q)
                        for q in probes] == wire_truth
                ids = [binary_client.submit({"op": "query", "query": q})
                       for q in probes for _ in range(4)]
                drained = binary_client.drain()
                assert [drained[i] for i in ids] == \
                    [t for t in wire_truth for _ in range(4)]
                assert binary_client.query_pipelined(
                    probes * 4, window=4) == wire_truth * 4
            for query, expected_hits in zip(probes, wire_truth):
                body = json.dumps({"query": query}).encode("utf-8")
                http_request = urllib.request.Request(
                    f"http://127.0.0.1:{http_port}/query", data=body,
                    method="POST")
                with urllib.request.urlopen(http_request,
                                            timeout=10) as reply:
                    payload = json.load(reply)
                assert payload["ok"] and \
                    payload["result"] == expected_hits, payload
            print("serve_smoke: binary, pipelined and http "
                  "answers identical to in-process")

            with ServiceClient(port=port) as client:
                stats = client.stats()["server"]
                assert stats["requests_total"] > 0
                client.shutdown()
            server.wait(timeout=30)
            assert server.returncode == 0, server.stdout.read()
            print("serve_smoke: drained cleanly")
        finally:
            if server.poll() is None:
                server.kill()

        with NestedSetIndex.open("diskhash", index_path) as reopened:
            wal = reopened.stats()["wal"]
            assert wal["pending_groups"] == 0, wal
            assert wal["recovered_on_open"] == 0, wal
            hits = reopened.query("{__smoke__}")
            assert hits == [f"smoke{i}" for i in range(1, 5)], hits
        print("serve_smoke: reopen clean (WAL checkpointed, "
              "mutations durable)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

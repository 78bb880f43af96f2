"""Replica side: bootstrap from a primary snapshot, then tail its log.

``bootstrap_from_primary`` drives the three-step snapshot protocol (see
:mod:`.shipper`) against a running primary and leaves on disk everything
a replica open needs: the store file (a page-level copy pinned at one
MVCC version), an empty write-ahead log, and a replication sidecar
carrying the primary's next sequence number and term -- so the replica's
:class:`~repro.storage.wal.WriteAheadLog` opens straight into the
primary's sequence space.

:class:`ReplicaTailer` then runs the replay loop on a background
thread: long-poll ``repl_fetch`` (each fetch acks the durable apply
horizon), parse the raw group run with the WAL's own parser, and replay
each group through :meth:`Pager.apply_replicated_group` bracketed by the
engine's ``note_replicated_apply`` / ``finish_replicated_apply`` hooks
-- the same cache-epoch discipline a local commit follows, so snapshot
reads on the replica stay consistent mid-replay.

Fencing: every shipped group carries the term it was committed under.
A group with a term *lower* than the replica's own is a message from a
deposed primary and stops the tailer (``stale_primary``); a *higher*
term is adopted durably.  Promotion replays whatever the local log
holds (the tailer applies every group the moment it is fetched, so the
log end is always applied), bumps the term, and the replica's log --
which carries the primary's exact stamps -- becomes a shippable source
itself.
"""

from __future__ import annotations

import base64
import os
import threading
import time

from ..storage.errors import CorruptionError
from ..storage.pager import wal_path
from ..storage.wal import WriteAheadLog, sidecar_path, split_label, \
    write_sidecar

#: Default long-poll window of one tail fetch (milliseconds).
DEFAULT_POLL_WAIT_MS = 500

#: Backoff bounds while the primary is unreachable.
_RETRY_BACKOFF_S = 0.1
_RETRY_MAX_BACKOFF_S = 2.0


def bootstrap_from_primary(call, dest_path: str,
                           replica_id: str) -> dict[str, object]:
    """Copy a primary's snapshot into ``dest_path``; returns the geometry.

    ``call`` is a request function (``ServiceClient.call``) bound to the
    primary.  On return the store file, a fresh WAL and the replication
    sidecar are on disk; open the store and hand it to a
    :class:`ReplicaTailer` starting after ``result["next_seq"] - 1``.
    """
    boot = call({"op": "repl_bootstrap", "replica_id": replica_id})
    session = boot["session"]
    n_pages = int(boot["n_pages"])
    page_size = int(boot["page_size"])
    try:
        with open(dest_path, "wb") as handle:
            page = 0
            while page < n_pages:
                chunk = call({"op": "repl_pages", "session": session,
                              "start_page": page,
                              "count": n_pages - page})
                data = base64.b64decode(chunk["data"])
                if chunk["start_page"] != page or \
                        len(data) != chunk["count"] * page_size:
                    raise CorruptionError(
                        "bootstrap page run out of sequence")
                handle.write(data)
                page += int(chunk["count"])
            handle.flush()
            os.fsync(handle.fileno())
    finally:
        call({"op": "repl_done", "session": session})
    log_path = wal_path(dest_path)
    if os.path.exists(log_path):
        os.remove(log_path)
    write_sidecar(sidecar_path(log_path), int(boot["next_seq"]),
                  int(boot["term"]))
    return boot


class ReplicaTailer:
    """Background replay loop keeping one replica index in sync."""

    def __init__(self, index, call, *, replica_id: str,
                 primary_address: str,
                 poll_wait_ms: int = DEFAULT_POLL_WAIT_MS,
                 max_groups: int = 256) -> None:
        store = index.base_store
        pager = getattr(store, "pager", None)
        if pager is None:
            raise ValueError("a replica needs a disk-backed store")
        self._index = index
        self._store = store
        self._pager = pager
        self._log: WriteAheadLog = pager.wal
        self._call = call
        self.replica_id = replica_id
        self.primary_address = primary_address
        self.poll_wait_ms = poll_wait_ms
        self.max_groups = max_groups
        #: Durable apply horizon; starts at whatever the local log holds.
        self.applied_seq = self._log.last_seq
        #: Primary's log end as of the last successful fetch.
        self.end_seq = self.applied_seq
        #: Primary's wall clock at its most recent commit (its report).
        self.last_primary_commit_at: float | None = None
        self.last_fetch_at: float | None = None
        self.status = "starting"       # starting|tailing|behind|
        #                                stale_primary|stopped|error
        self.error: str | None = None
        self.groups_applied = 0
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-replica-tail")

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ReplicaTailer":
        self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=timeout)

    # -- the loop -----------------------------------------------------------

    def _run(self) -> None:
        backoff = _RETRY_BACKOFF_S
        while not self._stop.is_set():
            try:
                reply = self._call({
                    "op": "repl_fetch",
                    "replica_id": self.replica_id,
                    "after_seq": self.applied_seq,
                    "max_groups": self.max_groups,
                    "wait_ms": self.poll_wait_ms,
                })
            except Exception as exc:  # noqa: BLE001 -- primary may be down
                self.status = "error"
                self.error = f"{type(exc).__name__}: {exc}"
                if self._stop.wait(backoff):
                    break
                backoff = min(backoff * 2, _RETRY_MAX_BACKOFF_S)
                continue
            backoff = _RETRY_BACKOFF_S
            self.last_fetch_at = time.time()
            if reply.get("status") == "behind":
                # The primary truncated past our horizon: this replica
                # needs a fresh bootstrap (operator restarts it).
                self.status = "behind"
                self.error = (f"log truncated past seq {self.applied_seq} "
                              f"(primary base_seq {reply['base_seq']}); "
                              "re-bootstrap required")
                return
            try:
                self._apply_reply(reply)
            except _StaleTermError as exc:
                self.status = "stale_primary"
                self.error = str(exc)
                return
            self.status = "tailing"
            self.error = None
        self.status = "stopped"

    def _apply_reply(self, reply: dict) -> None:
        count = int(reply.get("count", 0))
        self.end_seq = int(reply["end_seq"])
        commit_at = reply.get("last_commit_at")
        if commit_at is not None:
            self.last_primary_commit_at = float(commit_at)
        if count == 0:
            return
        data = base64.b64decode(reply["data"])
        pos = 0
        applied_any = False
        for _ in range(count):
            parsed = WriteAheadLog._parse_group(data, pos)
            if parsed is None:
                raise CorruptionError("torn group in shipped run")
            label, records, pos = parsed
            if self._apply_group(label, records):
                applied_any = True
        if applied_any:
            # One metadata refresh per shipped run, not per group:
            # the pager already re-absorbed its header, this re-reads
            # the store-level meta and the engine-level config.
            self._store.reload_meta()
            self._index.finish_replicated_apply()
            with self._lock:
                self.groups_applied += count

    def _apply_group(self, label: bytes, records: list[bytes]) -> bool:
        version, seq, term, _label = split_label(label)
        if seq is None or term is None:
            raise CorruptionError("shipped group without a seq stamp")
        if version is None:
            raise CorruptionError("shipped group without a version stamp")
        if term < self._log.term:
            raise _StaleTermError(
                f"group seq {seq} carries term {term} < local term "
                f"{self._log.term}; the primary was deposed")
        if term > self._log.term:
            self._log.adopt_term(term)
        if seq <= self.applied_seq:
            return False    # bootstrap overlap: already in the snapshot
        if seq != self.applied_seq + 1:
            raise CorruptionError(
                f"sequence gap: expected {self.applied_seq + 1}, "
                f"got {seq}")
        self._index.note_replicated_apply(version)
        self._pager.apply_replicated_group(label, records, version=version)
        self.applied_seq = seq
        return True

    # -- promotion ----------------------------------------------------------

    def promote(self) -> int:
        """Stop tailing and fence: returns the new (bumped) term.

        Every fetched group is already applied (the loop never buffers),
        so "replay to the log end" holds by construction; the term bump
        is durable before this returns, so any group later arriving
        from the old primary fails the fence.
        """
        self.stop()
        return self._log.bump_term()

    # -- introspection ------------------------------------------------------

    def lag(self) -> dict[str, object]:
        """``{"lag_groups", "lag_seconds"}`` as of the last fetch."""
        lag_groups = max(0, self.end_seq - self.applied_seq)
        if lag_groups == 0:
            lag_seconds = 0.0
        elif self.last_primary_commit_at is not None:
            lag_seconds = max(0.0, time.time()
                              - self.last_primary_commit_at)
        else:
            lag_seconds = float("inf")
        return {"lag_groups": lag_groups, "lag_seconds": lag_seconds,
                "applied_seq": self.applied_seq, "end_seq": self.end_seq,
                "status": self.status, "error": self.error}


class _StaleTermError(Exception):
    """A shipped group carried a term below the replica's own."""

"""Replication log semantics and promotion-safety crash sweep.

Two layers of coverage:

1. :class:`~repro.storage.wal.WriteAheadLog` sequencing tests -- durable
   sequence numbering across checkpoints and reopens, stamp-over-sidecar
   dominance, ack-gated truncation with the retention override, raw
   group shipping, and term persistence.

2. A ship -> replay -> promote crash sweep.  A primary index feeds a
   replica through the in-process :class:`ReplicationSource` /
   :class:`ReplicaTailer` pair (no sockets: the tailer's ``call`` is a
   local dispatcher), and every replica-side durability event during
   replay+promotion is a crash point.  After each injected crash the
   replica is reopened (running WAL recovery), resumes tailing from its
   durable horizon, promotes, and must answer byte-identically to the
   primary -- proving no committed group is ever lost and the fencing
   term always lands.
"""

from __future__ import annotations

import json
import os
import struct

import pytest

from repro.core.engine import NestedSetIndex
from repro.core.invfile import InvertedFile
from repro.replication import ReplicaTailer, ReplicationSource
from repro.replication.applier import bootstrap_from_primary
from repro.storage import CorruptionError, CrashError, FaultPlan, inject
from repro.storage.faults import drop_store
from repro.storage.pager import Pager, wal_path
from repro.storage.wal import (WriteAheadLog, read_sidecar, sidecar_path,
                               split_label, stamp_label, write_sidecar)
from tests.conftest import document_frequencies

BACKENDS = ("diskhash",)

RECORDS = [
    ("tim", "{USA, {UK, {cheese, {A, motorbike}}}}"),
    ("sue", "{USA, UK, {A, cheese}}"),
    ("ann", "{fr, {de, {A}}}"),
    ("bob", "{USA, {de, wine}}"),
    ("cat", "{UK, {wine, {B}}}"),
    ("dan", "{fr, cheese}"),
    ("eve", "{de, {USA, {B, motorbike}}}"),
    ("fox", "{wine, {cheese}}"),
]

#: Mutations shipped to the replica after bootstrap: six inserts and a
#: delete, each one commit group.
MUTATIONS = [("insert", f"new{i}", "{USA, {novel, {A, c%d}}}" % (i % 3))
             for i in range(6)] + [("delete", "bob", None)]

QUERIES = ("{USA}", "{A}", "{UK, {A}}", "{USA, {novel}}", "{de}")


# ---------------------------------------------------------------------------
# Log sequencing unit tests
# ---------------------------------------------------------------------------


class TestReplicationLog:
    def _log(self, tmp_path, **kwargs) -> WriteAheadLog:
        return WriteAheadLog(str(tmp_path / "log"), create=True, **kwargs)

    def test_commit_stamps_sequence_and_term(self, tmp_path) -> None:
        log = self._log(tmp_path)
        log.commit(b"alpha", [b"r1"], version=7)
        log.commit(b"beta", [b"r2", b"r3"], version=8)
        assert (log.base_seq, log.next_seq, log.last_seq) == (1, 3, 2)
        seen = []
        for _pos, label, records, _next in log.iter_groups():
            version, seq, term, _label = split_label(label)
            seen.append((version, seq, term, records))
        assert seen == [(7, 1, 0, [b"r1"]), (8, 2, 0, [b"r2", b"r3"])]
        log.close()

    def test_sequence_continues_across_checkpoint_and_reopen(
            self, tmp_path) -> None:
        path = str(tmp_path / "log")
        log = WriteAheadLog(path, create=True)
        for i in range(3):
            log.commit(b"g%d" % i, [b"x"], version=i + 1)
        log.checkpoint()
        assert log.pending_groups == 0
        assert (log.base_seq, log.next_seq) == (4, 4)
        log.commit(b"after", [b"y"], version=4)
        assert log.last_seq == 4
        log.close()

        log = WriteAheadLog(path)
        # Reopen: the stamped group on disk carries seq 4 forward.
        assert (log.base_seq, log.last_seq, log.next_seq) == (4, 4, 5)
        log.close()

    def test_stamps_dominate_sidecar_floor(self, tmp_path) -> None:
        path = str(tmp_path / "log")
        log = WriteAheadLog(path, create=True)
        for i in range(3):
            log.commit(b"g%d" % i, [b"x"], version=i + 1)
        log.close()
        # Simulate the crash window where the sidecar was written ahead
        # of a truncate that never happened: floor says 100, but groups
        # 1..3 are still on disk and their stamps are authoritative.
        write_sidecar(sidecar_path(path), 100, 0)
        log = WriteAheadLog(path)
        assert (log.base_seq, log.next_seq) == (1, 4)
        log.close()

    def test_checkpoint_gated_on_follower_acks(self, tmp_path) -> None:
        log = self._log(tmp_path)
        for i in range(4):
            log.commit(b"g%d" % i, [b"x" * 32], version=i + 1)
        log.register_follower("r1", 1)
        log.checkpoint()
        assert log.pending_groups == 4, "truncated under a laggard"
        assert log.checkpoints_deferred == 1
        log.ack("r1", log.last_seq)
        log.checkpoint()
        assert log.pending_groups == 0
        assert read_sidecar(sidecar_path(log.path)) == (5, 0)
        log.close()

    def test_retention_window_overrides_laggard(self, tmp_path) -> None:
        log = self._log(tmp_path, retain_bytes=64)
        for i in range(4):
            log.commit(b"g%d" % i, [b"x" * 64], version=i + 1)
        log.register_follower("slow", 0)
        assert log.size > log.retain_bytes
        log.checkpoint()
        assert log.pending_groups == 0, "retention window did not override"
        with pytest.raises(LookupError):
            log.read_raw_groups(1)
        log.close()

    def test_ack_never_regresses(self, tmp_path) -> None:
        log = self._log(tmp_path)
        log.register_follower("r1", 5)
        log.ack("r1", 3)
        assert log.followers() == {"r1": 5}
        log.ack("r1", 9)
        assert log.min_acked() == 9
        log.forget_follower("r1")
        assert log.min_acked() is None
        log.close()

    def test_read_raw_groups_roundtrip(self, tmp_path) -> None:
        log = self._log(tmp_path)
        for i in range(5):
            log.commit(b"lbl%d" % i, [b"rec%d" % i], version=i + 1)
        first, count, data = log.read_raw_groups(2, max_groups=2)
        assert (first, count) == (2, 2)
        pos, labels = 0, []
        for _ in range(count):
            label, records, pos = WriteAheadLog._parse_group(data, pos)
            seq = split_label(label)[1]
            labels.append((seq, records))
        assert pos == len(data)
        assert labels == [(2, [b"rec1"]), (3, [b"rec2"])]
        # Past the end: empty run, not an error.
        assert log.read_raw_groups(6) == (6, 0, b"")
        # A byte cap below two groups still ships at least one.
        _first, count, _data = log.read_raw_groups(1, max_bytes=1)
        assert count == 1
        log.close()

    def test_term_persists_and_adopts_forward_only(self, tmp_path) -> None:
        path = str(tmp_path / "log")
        log = WriteAheadLog(path, create=True)
        assert log.bump_term() == 1
        log.adopt_term(5)
        assert log.term == 5
        log.adopt_term(3)            # never backwards
        assert log.term == 5
        log.commit(b"fenced", [b"x"], version=1)
        log.close()
        log = WriteAheadLog(path)
        assert log.term == 5
        assert split_label(next(log.iter_groups())[1])[2] == 5
        log.close()

    def test_on_commit_hook_reports_last_seq(self, tmp_path) -> None:
        log = self._log(tmp_path)
        seen: list[int] = []
        log.on_commit = seen.append
        log.commit(b"a", [b"x"], version=1)
        log.commit(b"b", [b"y"], version=2)
        assert seen == [1, 2]
        log.close()


class TestWalStreaming:
    """Offset-based group iteration (shared by recovery and tailing)."""

    def test_iter_groups_resumes_from_offset(self, tmp_path) -> None:
        path = str(tmp_path / "log")
        wal = WriteAheadLog(path, create=True)
        for i in range(3):
            wal.commit(b"g%d" % i, [b"rec%d" % i], version=i + 1)
        full = list(wal.iter_groups())
        assert [split_label(label)[3] for _p, label, _r, _n in full] \
            == [b"g0", b"g1", b"g2"]
        resume_at = full[0][3]       # next_offset of the first group
        tail = list(wal.iter_groups(resume_at))
        assert [split_label(label)[3] for _p, label, _r, _n in tail] \
            == [b"g1", b"g2"]
        assert tail == full[1:]
        wal.close()

    def test_iter_groups_stops_at_torn_tail(self, tmp_path) -> None:
        path = str(tmp_path / "log")
        wal = WriteAheadLog(path, create=True)
        wal.commit(b"whole", [b"x"], version=1)
        wal.commit(b"torn", [b"y"], version=2)
        wal.close()
        with open(path, "rb") as handle:
            raw = handle.read()
        with open(path, "wb") as handle:
            handle.write(raw[:-4])
        wal = WriteAheadLog(path)
        assert [split_label(label)[3]
                for _p, label, _r, _n in wal.iter_groups()] == [b"whole"]
        wal.close()


class TestEarlierLogs:
    """Logs and labels written before every store logged one sequence."""

    def test_split_label_reads_both_earlier_layouts(self) -> None:
        version = b"@" + struct.pack("<Q", 9)
        seq_term = b"R" + struct.pack("<QQ", 4, 2)
        # A plain store's log stamped the version alone; a served one
        # put the seq and term behind it, the layout stamp_label writes.
        assert split_label(version + b"insert") == (9, None, None, b"insert")
        assert split_label(version + seq_term + b"insert") \
            == (9, 4, 2, b"insert")
        assert stamp_label(9, 4, 2, b"insert") == version + seq_term \
            + b"insert"
        assert split_label(b"insert") == (None, None, None, b"insert")

    def test_version_only_groups_recover_and_number_from_the_sidecar(
            self, tmp_path) -> None:
        path = str(tmp_path / "f.pg")
        pager = Pager(path, page_size=256, create=True)
        page = pager.allocate()
        pager.write(page, b"base")
        pager.close()
        log = WriteAheadLog(wal_path(path))
        for version, text in ((1, b"one"), (2, b"two")):
            log.append_stamped(
                b"@" + struct.pack("<Q", version) + b"txn",
                [struct.pack("<Q", page) + text.ljust(256, b"\0")])
        log.close()
        write_sidecar(sidecar_path(wal_path(path)), 40, 3)

        pager = Pager(path)
        assert (pager.recovered_groups, pager.version) == (2, 2)
        assert pager.read(page).startswith(b"two")
        # The two replayed groups took seqs 40 and 41.
        assert read_sidecar(sidecar_path(wal_path(path))) == (42, 3)
        pager.begin(b"txn")
        pager.write(page, b"three")
        pager.commit()
        (_pos, label, _records, _next), = pager.wal.iter_groups()
        assert split_label(label) == (3, 42, 3, b"txn")
        pager.close()


# ---------------------------------------------------------------------------
# Ship -> replay -> promote crash sweep
# ---------------------------------------------------------------------------


def _local_call(source: ReplicationSource):
    """Dispatch replication requests straight onto a source (no wire)."""
    def call(request: dict) -> dict:
        op = request["op"]
        if op == "repl_bootstrap":
            return source.bootstrap(request["replica_id"])
        if op == "repl_pages":
            return source.pages(request["session"], request["start_page"],
                                request["count"])
        if op == "repl_done":
            return source.done(request["session"])
        if op == "repl_fetch":
            return source.fetch(request["replica_id"],
                                request["after_seq"],
                                max_groups=request.get("max_groups", 256))
        raise AssertionError(f"unexpected op {op!r}")
    return call


def _tail_to_end(tailer: ReplicaTailer, call) -> None:
    """Synchronous tail: fetch-apply until the primary's log end."""
    while True:
        reply = call({"op": "repl_fetch", "replica_id": "crash-sweep",
                      "after_seq": tailer.applied_seq, "max_groups": 3})
        assert reply["status"] == "ok", reply
        tailer._apply_reply(reply)
        if reply["count"] == 0 and tailer.applied_seq >= reply["end_seq"]:
            break


def _replay_and_promote(replica, call) -> ReplicaTailer:
    """Synchronous tail: fetch-apply to the log end, then promote."""
    tailer = ReplicaTailer(replica, call, replica_id="crash-sweep",
                           primary_address="in-process")
    _tail_to_end(tailer, call)
    tailer.promote()
    return tailer


def _answers(index) -> bytes:
    """Canonical byte serialization of every probe query's answer."""
    return json.dumps({q: sorted(index.query(q)) for q in QUERIES},
                      sort_keys=True).encode("ascii")


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _restore_replica(path: str, store_bytes: bytes,
                     sidecar_bytes: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(store_bytes)
    log = wal_path(path)
    if os.path.exists(log):
        os.remove(log)
    with open(sidecar_path(log), "wb") as handle:
        handle.write(sidecar_bytes)


def _sweep_points(total: int, limit: int = 20) -> list[int]:
    if total <= limit:
        return list(range(1, total + 1))
    stride = (total + limit - 1) // limit
    points = list(range(1, total + 1, stride))
    if points[-1] != total:
        points.append(total)
    return points


@pytest.mark.parametrize("storage", BACKENDS)
@pytest.mark.parametrize("shards", [1, 4])
def test_promotion_crash_sweep(tmp_path, storage, shards) -> None:
    primary_path = str(tmp_path / "primary.db")
    replica_path = str(tmp_path / "replica.db")
    NestedSetIndex.build(list(RECORDS), storage=storage, path=primary_path,
                         shards=shards).close()
    primary = NestedSetIndex.open(storage, primary_path)
    try:
        source = ReplicationSource(primary)
        call = _local_call(source)
        bootstrap_from_primary(call, replica_path, "crash-sweep")
        # Commit the mutation stream on the primary *after* the snapshot
        # so every group must arrive via shipping.
        for op, key, value in MUTATIONS:
            if op == "insert":
                primary.insert(key, value)
            else:
                primary.delete(key)
        primary_log = primary.base_store.pager.wal
        primary_last = primary_log.last_seq
        assert primary_last - (primary_log.base_seq - 1) >= len(MUTATIONS)
        expected = _answers(primary)

        pre_store = _read(replica_path)
        pre_sidecar = _read(sidecar_path(wal_path(replica_path)))

        # Clean run under a counting plan: learn the number of replica-
        # side durability events and prove basic parity.
        plan = FaultPlan()
        with inject(plan):
            replica = NestedSetIndex.open(storage, replica_path)
            plan.arm()
            tailer = _replay_and_promote(replica, call)
            plan.disarm()
            assert tailer.applied_seq == primary_last
            assert _answers(replica) == expected
            replica.close()
        total = plan.events
        assert total >= 3, "replay produced suspiciously few events"

        crashes = 0
        for point in _sweep_points(total):
            _restore_replica(replica_path, pre_store, pre_sidecar)
            crash_plan = FaultPlan(crash_at=point, tear_bytes=3)
            with inject(crash_plan):
                replica = NestedSetIndex.open(storage, replica_path)
                crash_plan.arm()
                try:
                    _replay_and_promote(replica, call)
                    crash_plan.disarm()
                    replica.close()
                    crashed = False
                except CrashError:
                    crash_plan.disarm()
                    drop_store(replica.base_store)
                    crashed = True
            if not crashed:
                continue
            crashes += 1
            # Reopen (recovery), resume tailing from the durable
            # horizon, promote -- nothing committed may be lost.
            replica = NestedSetIndex.open(storage, replica_path)
            tailer = _replay_and_promote(replica, call)
            log = replica.base_store.pager.wal
            assert tailer.applied_seq == primary_last, \
                f"crash point {point}: lost committed groups"
            assert log.term == primary_log.term + 1, \
                f"crash point {point}: promotion term did not land"
            assert _answers(replica) == expected, \
                f"crash point {point}: promoted replica diverged"
            replica.close()
        assert crashes > 0, "sweep never crashed; plan miscounted events"
    finally:
        primary.close()


@pytest.mark.parametrize("storage", BACKENDS)
@pytest.mark.parametrize("shards", [1, 4])
def test_any_reopened_index_is_a_replication_source(tmp_path, storage,
                                                    shards) -> None:
    """An index opened with no option ships: bootstrap a replica, tail
    one insert, promote."""
    primary_path = str(tmp_path / "primary.db")
    replica_path = str(tmp_path / "replica.db")
    NestedSetIndex.build(list(RECORDS), storage=storage, path=primary_path,
                         shards=shards).close()
    primary = NestedSetIndex.open(storage, primary_path)
    try:
        call = _local_call(ReplicationSource(primary))
        bootstrap_from_primary(call, replica_path, "r1")
        replica = NestedSetIndex.open(storage, replica_path)
        primary.insert("new", "{USA, {novel}}")
        tailer = _replay_and_promote(replica, call)
        assert tailer.applied_seq == primary.base_store.pager.wal.last_seq
        assert replica.base_store.pager.wal.term == 1
        assert sorted(replica.query("{USA, {novel}}")) == ["new"]
        assert _answers(replica) == _answers(primary)
        replica.close()
    finally:
        primary.close()


@pytest.mark.parametrize("storage", BACKENDS)
def test_promoted_replica_continues_sequence(tmp_path, storage) -> None:
    """After promotion the replica's log extends the primary's numbering."""
    primary_path = str(tmp_path / "primary.db")
    replica_path = str(tmp_path / "replica.db")
    NestedSetIndex.build(list(RECORDS), storage=storage,
                         path=primary_path).close()
    primary = NestedSetIndex.open(storage, primary_path)
    try:
        source = ReplicationSource(primary)
        call = _local_call(source)
        bootstrap_from_primary(call, replica_path, "r1")
        for op, key, value in MUTATIONS:
            if op == "insert":
                primary.insert(key, value)
            else:
                primary.delete(key)
        primary_last = primary.base_store.pager.wal.last_seq
        replica = NestedSetIndex.open(storage, replica_path)
        tailer = _replay_and_promote(replica, call)
        assert tailer.applied_seq == primary_last
        replica.insert("post-promote", "{USA, {fresh}}")
        log = replica.base_store.pager.wal
        assert log.last_seq == primary_last + 1
        assert log.term == 1
        # The new group is stamped with the bumped term: a fetch from
        # the old primary's lineage would fail the fence.
        _first, count, data = log.read_raw_groups(primary_last + 1)
        assert count == 1
        label, _records, _pos = WriteAheadLog._parse_group(data, 0)
        assert split_label(label)[1:3] == (primary_last + 1, 1)
        assert sorted(replica.query("{USA, {fresh}}")) == ["post-promote"]
        replica.close()
    finally:
        primary.close()


@pytest.mark.parametrize("storage", BACKENDS)
def test_group_without_a_version_stamp_is_refused(tmp_path, storage) -> None:
    """Regression: a shipped group carrying its seq and term but no
    version stamp was applied.  Its epoch bump then named no version a
    pinned reader could compare against, and the replica's store
    version never advanced.  It is refused like a missing seq."""
    primary_path = str(tmp_path / "primary.db")
    replica_path = str(tmp_path / "replica.db")
    NestedSetIndex.build(list(RECORDS), storage=storage,
                         path=primary_path).close()
    primary = NestedSetIndex.open(storage, primary_path)
    try:
        call = _local_call(ReplicationSource(primary))
        bootstrap_from_primary(call, replica_path, "r1")
        replica = NestedSetIndex.open(storage, replica_path)
        tailer = ReplicaTailer(replica, call, replica_id="crash-sweep",
                               primary_address="in-process")
        primary.insert("new", "{USA, {novel}}")
        log = primary.base_store.pager.wal
        _first, count, data = log.read_raw_groups(log.last_seq)
        assert count == 1
        label, records, _pos = WriteAheadLog._parse_group(data, 0)
        unversioned = label[9:]          # strip "@" and the u64 version
        applied = tailer.applied_seq
        version = replica.base_store.current_version()
        with pytest.raises(CorruptionError, match="version stamp"):
            tailer._apply_group(unversioned, records)
        assert (tailer.applied_seq, replica.base_store.current_version()) == \
            (applied, version)
        _tail_to_end(tailer, call)
        assert _answers(replica) == _answers(primary)
        replica.close()
    finally:
        primary.close()


@pytest.mark.parametrize("storage", BACKENDS)
def test_snapshot_mid_replay_keeps_the_shipped_header(tmp_path,
                                                      storage) -> None:
    """A reader pinning between a group's apply and the run's
    ``reload_meta`` must not write the table's stale in-memory root and
    count back over the header the group shipped."""
    primary_path = str(tmp_path / "primary.db")
    replica_path = str(tmp_path / "replica.db")
    NestedSetIndex.build(list(RECORDS), storage=storage,
                         path=primary_path).close()
    primary = NestedSetIndex.open(storage, primary_path)
    try:
        call = _local_call(ReplicationSource(primary))
        bootstrap_from_primary(call, replica_path, "r1")
        replica = NestedSetIndex.open(storage, replica_path)
        tailer = ReplicaTailer(replica, call, replica_id="crash-sweep",
                               primary_address="in-process")
        _tail_to_end(tailer, call)
        primary.insert("new", "{USA, {novel}}")
        log = primary.base_store.pager.wal
        _first, count, data = log.read_raw_groups(log.last_seq)
        assert count == 1
        label, records, _pos = WriteAheadLog._parse_group(data, 0)
        store = replica.base_store
        assert tailer._apply_group(label, records)
        expected = primary.base_store.pager.meta
        assert store.pager.meta == expected
        view = store.snapshot()
        try:
            assert store.pager.meta == expected
            assert len(view) == len(primary.base_store)
            assert sum(1 for _ in view.items()) == len(view)
        finally:
            view.close()
        store.reload_meta()
        replica.finish_replicated_apply()
        assert len(store) == len(primary.base_store)
        assert _answers(replica) == _answers(primary)
        replica.close()
    finally:
        primary.close()


@pytest.mark.parametrize("storage", BACKENDS)
def test_replica_frequencies_follow_the_delta_log(tmp_path, storage) -> None:
    """Statistics deltas and folds ship inside their commit groups: a
    replica that tailed logged commits and folds reports the primary's
    frequencies byte for byte, and keeps them exact once promoted."""
    primary_path = str(tmp_path / "primary.db")
    replica_path = str(tmp_path / "replica.db")
    NestedSetIndex.build(list(RECORDS), storage=storage,
                         path=primary_path).close()
    primary = NestedSetIndex.open(storage, primary_path)

    def tables(index) -> bytes:
        ifile = index.inverted_file
        return repr((ifile.frequencies(), ifile.live_frequencies(),
                     sorted(ifile.dead_counts.items()))).encode("utf-8")

    try:
        call = _local_call(ReplicationSource(primary))
        bootstrap_from_primary(call, replica_path, "r1")
        replica = NestedSetIndex.open(storage, replica_path)
        tailer = ReplicaTailer(replica, call, replica_id="crash-sweep",
                               primary_address="in-process")
        live = dict(RECORDS)
        dead = {}
        logged = folds = 0
        # MUTATIONS ends on a fold (the delete); the two extra inserts
        # leave the replica reading a pending log.
        extra = [("insert", f"late{i}", "{fr, {late}}") for i in range(2)]
        for batch in (MUTATIONS, extra):
            for op, key, value in batch:
                if op == "insert":
                    primary.insert(key, value)
                    live[key] = value
                else:
                    primary.delete(key)
                    dead[key] = live.pop(key)
                if primary.inverted_file._delta_pairs:
                    logged += 1
                else:
                    folds += 1
            _tail_to_end(tailer, call)
            assert tables(replica) == tables(primary)
            # The replica's live table was read before this batch
            # landed: the apply must have dropped it.
            fresh = InvertedFile(replica.inverted_file.store)
            assert replica.inverted_file.frequencies() == \
                fresh.frequencies()
            assert replica.inverted_file.live_frequencies() == \
                fresh.live_frequencies()
            assert dict(replica.inverted_file.frequencies()) == \
                document_frequencies(list(live.values()) +
                                     list(dead.values()))
        assert logged >= 5 and folds >= 1
        assert replica.inverted_file._n_freq_deltas == len(extra)

        tailer.promote()
        replica.insert("post-promote", "{USA, {late}}")
        live["post-promote"] = "{USA, {late}}"
        assert dict(replica.inverted_file.frequencies()) == \
            document_frequencies(list(live.values()) + list(dead.values()))
        assert dict(replica.inverted_file.live_frequencies()) == \
            document_frequencies(live.values())
        replica.close()
    finally:
        primary.close()

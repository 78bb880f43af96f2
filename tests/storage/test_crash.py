"""Crash-consistency sweep: every injected crash point recovers cleanly.

For each mutation (insert / delete / compact) on the disk hash table,
and each layout (monolithic / 4-shard), the harness:

1. builds a small index and snapshots its file bytes (PRE);
2. runs the mutation once cleanly under a *counting* fault plan to learn
   the total number of durability events N and snapshot the result
   (POST);
3. for each crash point ``n`` in 1..N, restores PRE, re-runs the
   mutation with an injected crash (torn fatal write) at event ``n``,
   reopens the index -- which runs WAL recovery -- and asserts the
   recovered file is byte-equivalent to PRE or POST, answers queries
   accordingly, and reports the document frequencies (raw and live)
   recomputed from the records of that same image -- the statistics
   delta travels in the mutation's own commit group, also when the
   commit folds the log into the base tables.

Insert and delete sweep every crash point; compact (hundreds of events,
all on the *fresh* store) strides through a bounded sample.
"""

from __future__ import annotations

import os

import pytest

from repro.core.engine import NestedSetIndex
from repro.storage import CrashError, FaultPlan, inject
from repro.storage.faults import drop_store
from repro.storage.pager import wal_path
from tests.conftest import document_frequencies, reported_frequencies

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
QUERY = "{USA}"
NEW_KEY, NEW_VALUE = "gil", "{USA, {novel, {A}}}"
DEAD_KEY = "bob"


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _restore(path: str, data: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(data)
    wal = wal_path(path)
    if os.path.exists(wal):
        os.remove(wal)


def _build(path: str, storage: str, shards: int) -> None:
    index = NestedSetIndex.build(
        list(RECORDS), storage=storage, path=path, shards=shards)
    index.close()


def _open(path: str, storage: str):
    return NestedSetIndex.open(storage, path)


def _mutate(index, op: str) -> None:
    if op == "insert":
        index.insert(NEW_KEY, NEW_VALUE)
    elif op == "delete":
        assert index.delete(DEAD_KEY)
    else:
        raise AssertionError(op)


def _reference_answer(records) -> list[str]:
    """Ground-truth answer to ``QUERY`` from a memory-backed index."""
    index = NestedSetIndex.build(list(records))
    try:
        return index.query(QUERY)
    finally:
        index.close()


def _expected_results(op: str) -> tuple[list[str], list[str]]:
    """(pre-image, post-image) answers to ``QUERY``."""
    pre = _reference_answer(RECORDS)
    if op == "insert":
        post = _reference_answer(RECORDS + [(NEW_KEY, NEW_VALUE)])
    else:
        post = _reference_answer([(key, value) for key, value in RECORDS
                                  if key != DEAD_KEY])
    return pre, post


def _expected_frequencies(records, dead: tuple[str, ...] = ()
                          ) -> tuple[dict, dict]:
    """(raw, live) frequencies recomputed from ``records``, of which
    the keys in ``dead`` are tombstoned."""
    return (document_frequencies(value for _key, value in records),
            document_frequencies(value for key, value in records
                                 if key not in dead))


def _sweep_points(total: int, limit: int = 48) -> list[int]:
    if total <= limit:
        return list(range(1, total + 1))
    stride = (total + limit - 1) // limit
    points = list(range(1, total + 1, stride))
    if points[-1] != total:
        points.append(total)
    return points


def _count_events(path: str, storage: str, run) -> FaultPlan:
    """Run ``run(index)`` cleanly under a counting plan."""
    plan = FaultPlan()
    with inject(plan):
        index = _open(path, storage)
        plan.arm()
        run(index)
        plan.disarm()
        index.close()
    return plan


def _crash_at(path: str, storage: str, run, n: int) -> bool:
    """Re-run ``run`` with a crash at event ``n``; True if it fired."""
    plan = FaultPlan(crash_at=n, tear_bytes=3)
    with inject(plan):
        index = _open(path, storage)
        plan.arm()
        try:
            run(index)
            plan.disarm()
            index.close()
            return False
        except CrashError:
            plan.disarm()
            drop_store(index.base_store)
            return True


@pytest.mark.parametrize("storage", BACKENDS)
@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("op", ["insert", "delete"])
def test_crash_sweep_mutations(tmp_path, storage, shards, op) -> None:
    path = str(tmp_path / "idx.db")
    _build(path, storage, shards)
    pre = _read(path)
    pre_answer, post_answer = _expected_results(op)
    pre_df = _expected_frequencies(RECORDS)
    post_df = _expected_frequencies(RECORDS + [(NEW_KEY, NEW_VALUE)]) \
        if op == "insert" else _expected_frequencies(RECORDS, (DEAD_KEY,))

    plan = _count_events(path, storage, lambda index: _mutate(index, op))
    post = _read(path)
    total = plan.events
    assert total >= 3, "mutation produced suspiciously few events"
    assert post != pre

    for n in _sweep_points(total):
        _restore(path, pre)
        crashed = _crash_at(path, storage,
                            lambda index: _mutate(index, op), n)
        assert crashed, f"crash point {n} of {total} never fired"

        recovered = _open(path, storage)
        answer = recovered.query(QUERY)
        frequencies = reported_frequencies(recovered)
        recovered.close()
        final = _read(path)
        assert final in (pre, post), \
            f"{storage}/{shards}-shard {op}: crash at event {n} left " \
            f"bytes equal to neither image"
        assert answer == (pre_answer if final == pre else post_answer), \
            f"{storage}/{shards}-shard {op}: wrong answer after crash " \
            f"at event {n}"
        assert frequencies == (pre_df if final == pre else post_df), \
            f"{storage}/{shards}-shard {op}: frequencies of neither " \
            f"image after crash at event {n}"


#: Inserted one by one before the fold sweep: with the three dead pairs
#: of ``DEAD_KEY`` the log holds nine pairs against the collection's
#: nine atoms, so the next insert's three pairs tip it over the base and
#: that commit is the fold.
WARMUP = [("w0", "{USA, UK}"), ("w1", "{fr, de}"), ("w2", "{A, B}")]


@pytest.mark.parametrize("storage", BACKENDS)
def test_crash_sweep_fold(tmp_path, storage) -> None:
    """A crash inside the commit that folds the delta log: recovery
    lands on the log (pre) or on the folded tables (post), and the
    merged frequencies are those of that image's records."""
    path = str(tmp_path / "idx.db")
    _build(path, storage, shards=1)
    index = _open(path, storage)
    for key, value in WARMUP:
        index.insert(key, value)
    index.delete(DEAD_KEY)
    assert index.inverted_file._n_freq_deltas == len(WARMUP)
    assert index.inverted_file._n_dead_deltas == 1
    index.close()
    pre = _read(path)
    records = RECORDS + WARMUP
    pre_df = _expected_frequencies(records, (DEAD_KEY,))
    post_df = _expected_frequencies(records + [(NEW_KEY, NEW_VALUE)],
                                    (DEAD_KEY,))

    def run_insert(index) -> None:
        index.insert(NEW_KEY, NEW_VALUE)
        ifile = index.inverted_file
        assert ifile._n_freq_deltas == ifile._n_dead_deltas == 0  # folded

    total = _count_events(path, storage, run_insert).events
    post = _read(path)
    seen = set()
    for n in _sweep_points(total):
        _restore(path, pre)
        assert _crash_at(path, storage, run_insert, n)
        recovered = _open(path, storage)
        frequencies = reported_frequencies(recovered)
        recovered.close()
        final = _read(path)
        assert final in (pre, post), f"{storage}: crash at event {n}"
        assert frequencies == (pre_df if final == pre else post_df), \
            f"{storage}: frequencies of neither image at event {n}"
        seen.add(final == post)
    assert seen == {False, True}


@pytest.mark.parametrize("storage", BACKENDS)
def test_crash_sweep_group_across_a_list_block(tmp_path, storage) -> None:
    """One ``insert_batch`` group whose records take a posting list from
    125 to 131 postings: the 128-posting tail block is filled by a
    splice and the rest starts a second block, all in one commit --
    recovery lands on the list as it was or on both blocks."""
    base = [(f"b{i:03d}", "{hot, {x%d}}" % (i % 9)) for i in range(125)]
    group = [(f"g{i}", "{hot, {fresh%d, {deep}}}" % i) for i in range(6)]
    path = str(tmp_path / "idx.db")
    NestedSetIndex.build(base, storage=storage, path=path).close()
    pre = _read(path)
    pre_keys = sorted(key for key, _value in base)
    post_keys = sorted(pre_keys + [key for key, _value in group])
    pre_df = _expected_frequencies(base)
    post_df = _expected_frequencies(base + group)

    def run_group(index) -> None:
        index.insert_batch(group)
        blocks = index.inverted_file.postings("hot").header.blocks
        assert [info.count for info in blocks] == [128, 3]

    total = _count_events(path, storage, run_group).events
    post = _read(path)
    seen = set()
    for n in _sweep_points(total):
        _restore(path, pre)
        assert _crash_at(path, storage, run_group, n)
        recovered = _open(path, storage)
        answer = recovered.query("{hot}")
        frequencies = reported_frequencies(recovered)
        recovered.close()
        final = _read(path)
        assert final in (pre, post), f"{storage}: crash at event {n}"
        assert answer == (pre_keys if final == pre else post_keys), \
            f"{storage}: wrong answer after crash at event {n}"
        assert frequencies == (pre_df if final == pre else post_df), \
            f"{storage}: frequencies of neither image at event {n}"
        seen.add(final == post)
    assert seen == {False, True}


@pytest.mark.parametrize("storage", BACKENDS)
@pytest.mark.parametrize("shards", [1, 4])
def test_crash_sweep_compact(tmp_path, storage, shards) -> None:
    """Crashes during compact never touch the original index.

    Compaction rebuilds into a *fresh* store; the manifest (sharded) or
    the caller-side swap (monolithic) happens only after the rebuild, so
    the original file must stay byte-identical through every crash
    point.  When the fresh store did come up sharded, its manifest was
    the last write -- it must answer queries completely.
    """
    path = str(tmp_path / "idx.db")
    fresh_path = str(tmp_path / "fresh.db")
    _build(path, storage, shards)
    # Tombstone one record so compact has something to drop.
    index = _open(path, storage)
    assert index.delete(DEAD_KEY)
    index.close()
    pre = _read(path)
    pre_answer = _reference_answer([(key, value) for key, value in RECORDS
                                    if key != DEAD_KEY])

    def run_compact(index) -> None:
        index.compact(storage=storage, path=fresh_path)

    plan = _count_events(path, storage, run_compact)
    total = plan.events
    assert total > 0
    for stale in (fresh_path, wal_path(fresh_path)):
        if os.path.exists(stale):
            os.remove(stale)

    for n in _sweep_points(total):
        _restore(path, pre)
        for stale in (fresh_path, wal_path(fresh_path)):
            if os.path.exists(stale):
                os.remove(stale)
        crashed = _crash_at(path, storage, run_compact, n)
        assert crashed, f"crash point {n} of {total} never fired"

        assert _read(path) == pre, \
            f"{storage}/{shards}-shard compact: crash at event {n} " \
            f"mutated the original index"
        recovered = _open(path, storage)
        assert recovered.query(QUERY) == pre_answer
        recovered.close()

        if shards > 1 and os.path.exists(fresh_path):
            # Manifest-last: if the fresh store opens as a sharded
            # index at all, it must be complete and correct.
            try:
                fresh = _open(fresh_path, storage)
            except Exception:
                continue
            try:
                assert fresh.query(QUERY) == pre_answer
            finally:
                fresh.close()


@pytest.mark.parametrize("storage", BACKENDS)
def test_failed_fsync_surfaces_and_preserves_index(tmp_path,
                                                   storage) -> None:
    """A lying device fails the commit fsync: the caller sees an error
    and the on-disk index recovers to pre or post, never in between."""
    path = str(tmp_path / "idx.db")
    _build(path, storage, shards=1)
    pre = _read(path)

    plan = FaultPlan(fail_fsync=True)
    with inject(plan):
        index = _open(path, storage)
        plan.arm()
        with pytest.raises(CrashError):
            index.insert(NEW_KEY, NEW_VALUE)
        plan.disarm()
        drop_store(index.base_store)

    pre_answer = _reference_answer(RECORDS)
    post_answer = _reference_answer(RECORDS + [(NEW_KEY, NEW_VALUE)])
    recovered = _open(path, storage)
    answer = recovered.query(QUERY)
    recovered.close()
    assert answer in (pre_answer, post_answer)
    del pre  # the byte images are exercised by the sweep tests above

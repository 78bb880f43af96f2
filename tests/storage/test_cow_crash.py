"""COW commit crash sweep: pinned readers vs crashes mid-commit.

The MVCC commit protocol copies a dirty page's pre-image into version
history before overwriting it whenever a reader has a version pinned
(copy-on-write at commit).  This sweep crashes inside exactly those
commits -- an ingest-style ``insert_batch`` WAL group with a reader
pinned *before* the mutation -- and asserts the two halves of the
contract, on the disk hash table at both layouts:

* the pinned reader never sees a torn page: its answer right after the
  crash is byte-for-byte the answer it pinned;
* recovery lands on a committed version: reopening runs WAL recovery
  and the file is byte-equivalent to the pre- or post-image, never a
  mix -- and its document frequencies are the ones recomputed from that
  image's records (the batch's statistics delta is part of the group).
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
]
QUERY = "{USA}"
#: The ingest batch commits as ONE WAL group; every record matches
#: ``QUERY`` so a torn commit would change the answer visibly.
BATCH = [(f"gil{i}", "{USA, {novel%d, {A}}}" % i) for i in range(4)]


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _restore(path: str, data: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(data)
    wal = wal_path(path)
    if os.path.exists(wal):
        os.remove(wal)


def _open(path: str, storage: str):
    return NestedSetIndex.open(storage, path)


def _reference_answer(records) -> list[str]:
    index = NestedSetIndex.build(list(records))
    try:
        return index.query(QUERY)
    finally:
        index.close()


def _sweep_points(total: int, limit: int = 40) -> list[int]:
    if total <= limit:
        return list(range(1, total + 1))
    stride = (total + limit - 1) // limit
    points = list(range(1, total + 1, stride))
    if points[-1] != total:
        points.append(total)
    return points


def _count_events(path: str, storage: str) -> int:
    """One clean pinned-reader ingest run under a counting plan."""
    plan = FaultPlan()
    with inject(plan):
        index = _open(path, storage)
        with index.snapshot():
            plan.arm()
            index.insert_batch(BATCH)
            plan.disarm()
        index.close()
    return plan.events


def _crash_with_pinned_reader(path: str, storage: str, n: int,
                              pre_answer: list) -> bool:
    """Crash at event ``n`` of a COW commit; returns True if it fired.

    A reader pins the pre-mutation version first, so the commit must
    copy pre-images of every page it dirties; after the (torn) crash
    the pinned reader re-asks its query and must get its pinned answer.
    """
    plan = FaultPlan(crash_at=n, tear_bytes=3)
    with inject(plan):
        index = _open(path, storage)
        pinned = index.snapshot()
        assert pinned.query(QUERY) == pre_answer
        plan.arm()
        try:
            index.insert_batch(BATCH)
            plan.disarm()
            fired = False
        except CrashError:
            plan.disarm()
            fired = True
            # No torn page reaches the pinned reader: COW pre-images
            # shield its version from the half-applied commit.
            assert pinned.query(QUERY) == pre_answer, \
                f"pinned reader saw a torn state at event {n}"
        pinned.close()
        if fired:
            drop_store(index.base_store)
        else:
            index.close()
    return fired


@pytest.mark.parametrize("storage", BACKENDS)
@pytest.mark.parametrize("shards", [1, 4])
def test_cow_commit_crash_sweep(tmp_path, storage, shards) -> None:
    path = str(tmp_path / "idx.db")
    NestedSetIndex.build(list(RECORDS), storage=storage, path=path,
                         shards=shards).close()
    pre = _read(path)
    pre_answer = _reference_answer(RECORDS)
    post_answer = _reference_answer(RECORDS + BATCH)
    pre_df = document_frequencies(value for _key, value in RECORDS)
    post_df = document_frequencies(value for _key, value in RECORDS + BATCH)

    total = _count_events(path, storage)
    post = _read(path)
    assert total >= 3, "COW commit produced suspiciously few events"
    assert post != pre

    fired_any = False
    for n in _sweep_points(total):
        _restore(path, pre)
        fired = _crash_with_pinned_reader(path, storage, n, pre_answer)
        assert fired, f"crash point {n} of {total} never fired"
        fired_any = True

        recovered = _open(path, storage)
        answer = recovered.query(QUERY)
        frequencies, _live = reported_frequencies(recovered)
        recovered.close()
        final = _read(path)
        assert final in (pre, post), \
            f"{storage}/{shards}-shard: crash at event {n} recovered " \
            f"to neither the pre- nor the post-commit image"
        assert answer == (pre_answer if final == pre else post_answer), \
            f"{storage}/{shards}-shard: wrong answer after crash at " \
            f"event {n}"
        assert frequencies == (pre_df if final == pre else post_df), \
            f"{storage}/{shards}-shard: frequencies of neither image " \
            f"after crash at event {n}"
    assert fired_any

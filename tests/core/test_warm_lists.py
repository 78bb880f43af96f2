"""Warm posting lists never touch the store.

A list lookup goes to the block cache's directory entry under
``(token, epoch floor)`` first: a cached skip directory
hands the list out with no store access (its value is read on the first
block the block cache misses), and an atom the store lacked answers
empty from its absent marker.  Only a cold key fetches the value.

What makes that safe is that a ``(token, epoch)`` key names one stored
value: writers bump the tokens they touch before their commit lands, a
replica's replay bumps every token, a compact starts a fresh block
cache, and a standalone file invalidates by token.  The tests hold
readers across each of those and compare against a reader that has
never seen the atom.  The last two tests hold the frequency policy's
pinned lists across snapshots: a pinned directory holds no loader, so
every snapshot reads a list's value through its own store.

Needs no hypothesis (it runs in the crash-consistency CI job).
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.cache import BlockCache
from repro.core.engine import NestedSetIndex
from repro.core.invfile import InvertedFile
from repro.core.matchspec import QuerySpec
from repro.core.model import NestedSet
from repro.core.naive import reference_query
from repro.core.updates import IndexWriter, UpdateError

RECORDS = [(f"r{i:02d}",
            f"{{hub, a{i % 5}, {{mid, b{i % 3}, {{low, c{i % 7}}}}}}}")
           for i in range(40)]
QUERIES = ["{hub}", "{a1, {mid}}", "{hub, {b2, {c3}}}", "{a4, {low}}",
           "{mid}", "{hub, {mid, {low, c6}}}", "{nowhere}"]
FRESH = "{fresh}"


def _atom_gets(monkeypatch, views) -> list[bytes]:
    """Record every store get of a posting-list key the views make."""
    seen: list[bytes] = []
    for view in views:
        store = view.inverted_file.store
        get = store.get

        def spy(key, _get=get):
            if key.startswith(b"A:"):
                seen.append(key)
            return _get(key)
        monkeypatch.setattr(store, "get", spy)
    return seen


def _counters(index) -> tuple[int, int]:
    partitions = index.stats()["shards"]["partitions"]
    return (sum(part["list_fetches"] for part in partitions),
            sum(part["directory_hits"] for part in partitions))


@pytest.mark.parametrize("shards", [1, 4])
def test_warm_query_reads_no_list_value(monkeypatch, shards) -> None:
    with NestedSetIndex.build(RECORDS, shards=shards) as index, \
            index.snapshot() as held:
        expected = [held.query(query) for query in QUERIES]    # cold
        fetches, hits = _counters(index)
        assert fetches > 0
        gets = _atom_gets(monkeypatch, held.views)
        store_gets = index.stats()["store"]["gets"]
        assert [held.query(query) for query in QUERIES] == expected
        assert gets == []
        assert index.stats()["store"]["gets"] == store_gets
        warm_fetches, warm_hits = _counters(index)
        assert warm_fetches == fetches and warm_hits > hits
        # The counters merge over partitions into the index totals.
        assert index.stats()["index"]["list_fetches"] == fetches
        explained = held.explain(QUERIES[2])
        assert explained.list_fetches == 0
        assert explained.directory_hits > 0
        assert "list_fetches=0  directory_hits=" in explained.render()


def test_warm_list_reads_its_value_on_a_block_miss() -> None:
    """A list handed out over a cached directory fetches its value once
    a block it needs has left the block cache, and answers the same."""
    with NestedSetIndex.build(RECORDS, block_size=4) as index, \
            index.snapshot() as held:
        ifile = held.views[0].inverted_file
        cold = list(ifile.postings("hub"))
        fetches = ifile.stats.list_fetches
        ifile.block_cache._blocks.clear()       # directories stay
        warm = ifile.postings("hub")
        assert ifile.stats.list_fetches == fetches
        assert list(warm) == cold
        assert ifile.stats.list_fetches == fetches + 1


@pytest.mark.parametrize("shards", [1, 4])
def test_absent_marker_is_scoped_to_the_version(shards) -> None:
    with NestedSetIndex.build(RECORDS, shards=shards) as index:
        before = index.snapshot()
        assert index.query(FRESH) == before.query(FRESH) == []
        fetches, _hits = _counters(index)
        assert before.query(FRESH) == []        # the marker answers
        assert _counters(index)[0] == fetches
        index.insert("new", FRESH)
        with index.snapshot() as after:
            assert after.query(FRESH) == ["new"]
        assert index.query(FRESH) == ["new"]
        assert before.query(FRESH) == []
        before.close()


def _refused_group(index) -> list[tuple[str, str]]:
    """A group whose first record introduces the fresh atom and whose
    last repeats a live key -- routed, on a partitioned index, to a
    partition written after the fresh record's, so the fresh list is
    written (and its epoch bumped) before the group is refused."""
    home = index.policy.shard_of("new", index.n_shards)
    live = next(key for key, _text in RECORDS
                if index.n_shards == 1
                or index.policy.shard_of(key, index.n_shards) != home)
    return [("new", FRESH), (live, "{hub}")]


@pytest.mark.parametrize("shards", [1, 4])
def test_absent_marker_survives_a_refused_group(shards) -> None:
    with NestedSetIndex.build(RECORDS, shards=shards) as index:
        held = index.snapshot()
        assert index.query(FRESH) == []
        with pytest.raises(UpdateError):
            index.insert_batch(_refused_group(index))
        assert index.query(FRESH) == held.query(FRESH) == []
        index.insert("late", FRESH)
        assert index.query(FRESH) == ["late"]
        assert held.query(FRESH) == []
        assert index.query("{hub}") == held.query("{hub}")
        held.close()


def test_readers_racing_inserts_of_new_atoms() -> None:
    """Readers keep asking for the atom the writer is about to add
    (caching its absent marker at their version) while the writer adds
    one new atom per commit: every answer is the one of the reader's
    pinned version."""
    n_new = 40
    errors: list[str] = []
    stop = threading.Event()
    with NestedSetIndex.build(RECORDS, shards=2) as index:
        def reader() -> None:
            while not stop.is_set():
                with index.snapshot() as snap:
                    seen = snap.n_records - len(RECORDS)
                    for k in (seen - 1, seen):
                        want = [f"new{k:02d}"] if 0 <= k < seen else []
                        got = snap.query(f"{{fresh{k}}}")
                        if got != want:
                            errors.append(f"{k} at {seen}: {got}")
                index.query(f"{{fresh{seen + 1}}}")     # the shared pin

        threads = [threading.Thread(target=reader) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for k in range(n_new):
                index.insert(f"new{k:02d}", f"{{hub, fresh{k}}}")
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert all(index.query(f"{{fresh{k}}}") == [f"new{k:02d}"]
                   for k in range(n_new))


def test_absent_marker_across_compact() -> None:
    with NestedSetIndex.build(RECORDS) as index:
        assert index.query(FRESH) == []
        held = index.snapshot()
        index.insert("new", FRESH)
        index.compact()
        assert index.query(FRESH) == ["new"]
        assert held.query(FRESH) == []
        held.close()
        # The atom's list is gone from the rebuilt generation.
        assert index.delete("new")
        index.compact()
        assert index.query(FRESH) == []
        index.insert("again", FRESH)
        assert index.query(FRESH) == ["again"]


def test_absent_marker_on_a_replica(tmp_path) -> None:
    from repro.replication import ReplicaTailer, ReplicationLog, \
        ReplicationSource
    from repro.replication.applier import bootstrap_from_primary
    from tests.storage.test_replication import _local_call, _tail_to_end

    primary_path = str(tmp_path / "primary.db")
    replica_path = str(tmp_path / "replica.db")
    NestedSetIndex.build(RECORDS, storage="diskhash",
                         path=primary_path).close()
    primary = NestedSetIndex.open("diskhash", primary_path,
                                  wal_factory=ReplicationLog)
    try:
        call = _local_call(ReplicationSource(primary))
        bootstrap_from_primary(call, replica_path, "r1")
        replica = NestedSetIndex.open("diskhash", replica_path,
                                      wal_factory=ReplicationLog)
        tailer = ReplicaTailer(replica, call, replica_id="crash-sweep",
                               primary_address="in-process")
        hub = replica.query("{hub}")
        assert replica.query(FRESH) == []
        held = replica.snapshot()
        primary.insert("new", "{hub, fresh}")
        _tail_to_end(tailer, call)
        assert replica.query(FRESH) == ["new"]
        assert replica.query("{hub}") == sorted(hub + ["new"])
        assert held.query(FRESH) == []
        assert held.query("{hub}") == hub
        held.close()
        replica.close()
    finally:
        primary.close()


def test_standalone_file_invalidates_by_token() -> None:
    records = [(key, NestedSet.parse(text)) for key, text in RECORDS]
    ifile = InvertedFile.build(records)
    assert not ifile.postings("fresh")
    assert ifile.list_length("fresh") == 0
    hub = len(ifile.postings("hub"))
    fetches = ifile.stats.list_fetches
    assert ifile.list_length("hub") == hub          # warm
    assert not ifile.postings("fresh")              # the marker
    assert ifile.stats.list_fetches == fetches
    IndexWriter(ifile).insert("new", NestedSet.parse("{hub, fresh}"))
    assert [p for p, _children in ifile.postings("fresh")] == \
        [ifile.n_nodes - 1]
    assert ifile.list_length("hub") == hub + 1


def test_kept_list_outlives_its_snapshot() -> None:
    """Pinned lists outlive the snapshot they were read under, while
    the others churn through a one-block LRU and decode again, out of
    bytes each snapshot reads for itself."""
    records = [(key, NestedSet.parse(text)) for key, text in RECORDS]
    expected = [reference_query(records, NestedSet.parse(query),
                                QuerySpec()) for query in QUERIES]
    with NestedSetIndex.build(RECORDS, block_size=4) as index:
        index.shards[0].inverted_file.block_cache = BlockCache(budget=1)
        index.set_cache("frequency", budget=3)
        for run in ("explain", "query", "query"):
            answers = []
            for query in QUERIES:
                with index.snapshot() as snap:
                    # EXPLAIN looks each atom's length up before the
                    # algorithm asks for its list, which is then handed
                    # out over the directory the lookup left.
                    answers.append(snap.explain(query).matches
                                   if run == "explain" else
                                   snap.query(query))
            assert answers == expected
        assert index.stats()["cache"]["hits"] > 0


def test_kept_list_owns_its_bytes() -> None:
    """A list handed out over a directory cached by an earlier snapshot,
    pinned or not, reads its value through the snapshot at hand: a
    later snapshot galloping into blocks the first one never touched
    must not reach back into the first snapshot's (closed) store."""
    for policy in ("frequency", "lru"):
        with NestedSetIndex.build(RECORDS, block_size=4) as index:
            index.shards[0].inverted_file.block_cache = BlockCache(budget=16)

            def query(text: str) -> list[str]:
                with index.snapshot() as snap:
                    return snap.query(text, algorithm="topdown")

            a1 = query("{hub, a1}")             # warms blocks, directories
            index.set_cache(policy)
            assert query("{hub, a1}") == a1     # over the kept directories
            # "a2" reaches two blocks of the hub list "a1" did not.
            assert query("{hub, a2}") == [key for key, _text in RECORDS
                                          if int(key[1:]) % 5 == 2]
            assert index.stats()["cache"]["hits"] > 0

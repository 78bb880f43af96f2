"""Cache and batch-memo correctness across index mutations.

The regression these tests pin: a query evaluated *after* a delete must
never surface a tombstoned record from a stale cache entry, and inserts
must become visible immediately.  The index's one cache is the block
cache (directories and blocks of posting lists, core/cache.py), and the
epoch rules are the only way an entry is scoped: a key leads with
``(token, epoch)``, an insert bumps the epochs of the tokens it touches
(so only the owning partition's lists of those tokens go cold), and a
delete bumps none (posting bytes are unchanged; tombstones are read
from the reader's own pinned store).  Every check runs on one partition
and on four."""

from __future__ import annotations

import pytest

from repro.core.engine import NestedSetIndex
from repro.core.shard import shard_of
from repro.core.updates import IndexWriter, UpdateError

RECORDS = [(f"r{i}", "{hub, leaf%d}".replace("%d", str(i % 4)))
           for i in range(16)]


def _list_fetches(index: NestedSetIndex) -> list[int]:
    """Store reads of a list value, per partition."""
    return [part["list_fetches"]
            for part in index.stats()["shards"]["partitions"]]


def _check_delete_never_stale(shards: int) -> None:
    index = NestedSetIndex.build(RECORDS, shards=shards)
    assert "r3" in index.query("{hub}")
    assert "r3" in index.query("{hub}")          # warm
    warm = _list_fetches(index)
    index.delete("r3")
    assert "r3" not in index.query("{hub}")
    # A delete changes no posting bytes, so no epoch moved: the answer
    # dropped the record although every list was served warm.
    assert _list_fetches(index) == warm
    assert "r3" not in index.query("{hub}")


def _check_compact(shards: int) -> None:
    index = NestedSetIndex.build(RECORDS, shards=shards)
    index.delete("r2")
    expected = index.query("{hub}")
    index.compact()
    # A fresh generation: fresh block cache, fresh epochs.
    assert index.query("{hub}") == expected
    assert index.query("{hub}") == expected      # warm post-compact
    index.insert("fresh", "{hub}")
    assert index.query("{hub}") == sorted(expected + ["fresh"])


def _check_batch_memo_never_stale(shards: int) -> None:
    # The shared-subquery memo lives in a per-call execution context,
    # so a batch after a mutation can never reuse pre-mutation node
    # sets; this pins that property.
    index = NestedSetIndex.build(RECORDS, shards=shards)
    queries = ["{hub}", "{hub, leaf1}", "{hub}"]
    index.query_batch(queries, share_subqueries=True)
    index.delete("r1")
    for result in index.query_batch(queries, share_subqueries=True):
        assert "r1" not in result
    index.insert("fresh", "{hub, leaf1}")
    for result in index.query_batch(queries, share_subqueries=True):
        assert "fresh" in result


def _check_pinned_repopulation(shards: int) -> None:
    index = NestedSetIndex.build(RECORDS, shards=shards, cache="lru")
    with index.snapshot() as pinned:
        assert "r3" in pinned.query("{hub}")
        index.delete("r3")
        index.insert("fresh", "{hub}")
        # The pinned reader re-runs *after* the mutations: every
        # list/block entry it re-populates lands under its own
        # pre-mutation epochs...
        assert "r3" in pinned.query("{hub}")
        assert "fresh" not in pinned.query("{hub}")
        # ...so live readers never see the dead record or miss the new
        # one, no matter how the two interleave.
        live = index.query("{hub}")
        assert "r3" not in live and "fresh" in live
        assert pinned.query("{hub}") == [key for key, _ in sorted(RECORDS)]
    live = index.query("{hub}")
    assert "r3" not in live and "fresh" in live


class TestMonolithicInvalidation:
    def test_delete_never_served_from_cache(self) -> None:
        _check_delete_never_stale(shards=1)

    def test_insert_visible_after_cached_query(self) -> None:
        index = NestedSetIndex.build(RECORDS)
        index.query("{hub}")
        index.query("{hub}")
        index.insert("fresh", "{hub}")
        assert "fresh" in index.query("{hub}")

    def test_compact_invalidates(self) -> None:
        _check_compact(shards=1)

    def test_batch_memo_never_stale(self) -> None:
        _check_batch_memo_never_stale(shards=1)


class TestShardedPartialInvalidation:
    def test_only_owning_shard_entries_go_stale(self) -> None:
        index = NestedSetIndex.build(RECORDS, shards=4)
        index.query("{hub}")
        index.query("{hub}")                     # warm: every partition
        warm = _list_fetches(index)

        index.insert("fresh", "{hub}")
        result = index.query("{hub}")
        assert "fresh" in result                 # and answers are correct
        assert sorted(result) == result
        # Mutation locality: the insert bumped the owner's epoch of
        # "hub" alone, so the three untouched partitions answered from
        # their still-valid lists, and the owner from the list its
        # commit carried forward to the new epoch: none read the value.
        owner = shard_of("fresh", index.n_shards)
        assert _list_fetches(index) == warm
        version = index.base_store.current_version()
        assert [part._epochs.floor("s:hub", version)
                for part in index.shards] == [
            int(shard_no == owner) for shard_no in range(index.n_shards)]

    def test_sharded_delete_never_served_from_cache(self) -> None:
        _check_delete_never_stale(shards=4)

    def test_sharded_compact_with_cache(self) -> None:
        _check_compact(shards=4)

    def test_sharded_batch_memo_never_stale(self) -> None:
        _check_batch_memo_never_stale(shards=4)


class TestStaleRepopulationRaces:
    """The check-then-act race the epoch scheme closes.

    A reader that decoded an entry *before* a mutation landed may admit
    it to a shared cache *after* the mutation's invalidation already
    ran -- the classic check-then-act window.  Scoped keys make that
    late admission unreachable to post-mutation readers instead of
    poisonous.
    """

    def test_block_cache_stale_readmission_unreachable(self) -> None:
        from repro.core.cache import BlockCache
        cache = BlockCache(budget=8)
        stale = object()
        # An epoch-0 reader decoded block 0 of "tok"'s posting list...
        cache.admit((("tok", 0), 0), stale)
        # ...an update lands, and the slow reader re-admits its block.
        cache.admit((("tok", 0), 0), stale)
        # A post-update reader runs at epoch 1: the stale entry cannot
        # hit it -- while the old-epoch reader itself, for whom the
        # block is still correct, keeps hitting it.
        assert cache.get((("tok", 1), 0)) is None
        assert cache.get((("tok", 0), 0)) is stale

    def test_pinned_reader_repopulation_cannot_poison_live(self) -> None:
        _check_pinned_repopulation(shards=1)

    def test_sharded_pinned_repopulation_cannot_poison_live(self) -> None:
        _check_pinned_repopulation(shards=4)


class TestRecordsDuringAGroup:
    """``records()`` -- and ``self_join``, which walks it -- from inside
    an open commit group.  A hook in the writer stands in for a second
    thread: the group has numbered its records (``insert`` advanced the
    writer's record count) and then put them, all before it commits.
    ``records()`` reads one pinned version, so it yields exactly the
    records committed before the group, whether the group lands or is
    refused."""

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("refused", [False, True])
    def test_records_inside_a_group_yield_the_committed_records(
            self, monkeypatch, shards, refused) -> None:
        from repro.core.join import self_join
        records = [(f"r{i}", f"{{hub, a{i}}}") for i in range(10)]
        index = NestedSetIndex.build(records, shards=shards)
        committed = sorted(key for key, _ in records)
        seen: list[list[str]] = []

        def read_records() -> None:
            seen.append(sorted(key for key, _ in index.records()))

        def hook(method: str, *, join: bool = False) -> None:
            original = getattr(IndexWriter, method)

            def hooked(writer, *args, **kwargs):
                read_records()
                result = original(writer, *args, **kwargs)
                read_records()
                if join:
                    seen.append(sorted({key for key, _ in
                                        self_join(index).pairs}))
                return result
            monkeypatch.setattr(IndexWriter, method, hooked)

        hook("insert")
        hook("_append_group", join=True)
        group = [(f"b{i}", "{hub, b}") for i in range(6)]
        if refused:
            # a key the index holds, in another partition than the
            # group's first record, so some partition puts its slice
            first = shard_of(group[0][0], shards)
            group.append(next((key, tree) for key, tree in records
                              if shards == 1
                              or shard_of(key, shards) != first))
            with pytest.raises(UpdateError):
                index.insert_batch(group)
        else:
            index.insert_batch(group)
        monkeypatch.undo()
        assert seen and all(keys == committed for keys in seen)
        if not refused:
            committed = sorted(committed + [key for key, _ in group])
        assert sorted(key for key, _ in index.records()) == committed
        assert index.stats()["mvcc"]["open_snapshots"] == 0
        index.close()

    def test_a_closed_iteration_releases_its_pin(self) -> None:
        index = NestedSetIndex.build(RECORDS, shards=4)
        walk = index.records()
        next(walk)
        assert index.stats()["mvcc"]["open_snapshots"] == 1
        walk.close()
        assert index.stats()["mvcc"]["open_snapshots"] == 0
        index.close()


class TestLiveReadsDuringAGroup:
    """A read through a partition's writer file
    (``index.shards[p].inverted_file``) may run while a commit
    group has put its lists but not yet bumped their epochs; the store
    then already holds the group's uncommitted values."""

    def test_a_live_read_inside_a_refused_group_poisons_no_key(
            self, monkeypatch) -> None:
        """A 4-partition group refused by a duplicate key, with every
        live file read between the puts and the epoch bump: the lists
        read there are the group's, so none may be left under a key a
        later reader uses -- every later query answers as before."""
        records = [(f"r{i}", f"{{hub, a{i}}}") for i in range(10)]
        index = NestedSetIndex.build(records, shards=4)
        invalidate = IndexWriter._invalidate

        def read_live_first(writer, touched):
            for part in index.shards:
                part.inverted_file.postings("hub").entries
            invalidate(writer, touched)

        monkeypatch.setattr(IndexWriter, "_invalidate", read_live_first)
        group = [(f"b{i}", "{hub, b}") for i in range(6)]
        first = shard_of(group[0][0], 4)
        group.append(next((key, tree) for key, tree in records
                          if shard_of(key, 4) != first))
        with pytest.raises(UpdateError):
            index.insert_batch(group)
        monkeypatch.undo()
        assert index.query("{hub}") == sorted(key for key, _ in records)
        assert index.query("{hub, a3}") == ["r3"]
        index.close()

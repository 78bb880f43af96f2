"""Result-cache and batch-memo correctness across index mutations.

The regression these tests pin: a query evaluated *after* a delete must
never surface a tombstoned record from a stale cache entry, and inserts
must become visible immediately.  Under MVCC the cache achieves that by
*version scoping* rather than invalidation -- a mutation opens a fresh
key space and the stale entries simply become unreachable to new
readers.  For the sharded index the same contract holds shard-wise --
and only the mutated shard's entries go stale (mutation locality is the
sharded layout's headline advantage on mixed workloads)."""

from __future__ import annotations

from repro.core.engine import NestedSetIndex
from repro.core.shard import shard_of

RECORDS = [(f"r{i}", "{hub, leaf%d}".replace("%d", str(i % 4)))
           for i in range(16)]


class TestMonolithicInvalidation:
    def test_delete_never_served_from_cache(self) -> None:
        index = NestedSetIndex.build(RECORDS)
        cache = index.enable_result_cache()
        assert "r3" in index.query("{hub}")
        assert "r3" in index.query("{hub}")          # cached
        assert cache.stats.hits == 1
        index.delete("r3")
        result = index.query("{hub}")
        assert "r3" not in result                    # not from stale cache
        # Version scoping, not invalidation: the pre-delete entry stays
        # in the LRU (unreachable to new readers) and the post-delete
        # answer was freshly computed, then cached under the new scope.
        assert cache.stats.misses == 2
        assert "r3" not in index.query("{hub}")
        assert cache.stats.hits == 2

    def test_insert_visible_after_cached_query(self) -> None:
        index = NestedSetIndex.build(RECORDS)
        index.enable_result_cache()
        index.query("{hub}")
        index.query("{hub}")
        index.insert("fresh", "{hub}")
        assert "fresh" in index.query("{hub}")

    def test_compact_invalidates(self) -> None:
        index = NestedSetIndex.build(RECORDS)
        index.enable_result_cache()
        index.delete("r0")
        expected = index.query("{hub}")
        index.compact()
        assert index.query("{hub}") == expected

    def test_batch_memo_never_stale(self) -> None:
        # The shared-subquery memo lives in a per-call execution context,
        # so a batch after a mutation can never reuse pre-mutation node
        # sets; this pins that property.
        index = NestedSetIndex.build(RECORDS)
        queries = ["{hub}", "{hub, leaf1}"]
        index.query_batch(queries, share_subqueries=True)
        index.delete("r1")
        for result in index.query_batch(queries, share_subqueries=True):
            assert "r1" not in result


class TestShardedPartialInvalidation:
    def test_only_owning_shard_entries_go_stale(self) -> None:
        index = NestedSetIndex.build(RECORDS, shards=4)
        cache = index.enable_result_cache()
        index.query("{hub}")
        index.query("{hub}")                     # warm: one entry per shard
        assert cache.stats.hits == 4

        index.insert("fresh", "{hub}")
        result = index.query("{hub}")
        assert "fresh" in result                 # and answers are correct
        assert sorted(result) == result
        # Mutation locality: the three untouched shards answered from
        # their still-valid entries; only the owner's scope moved, so
        # only the owner recomputed.  Nothing was invalidated.
        assert cache.stats.hits == 7
        assert cache.stats.invalidations == 0

        owner = shard_of("fresh", index.n_shards)
        per_shard_hits = [engine.result_cache.stats.hits
                          for engine in index.shards]
        for shard_no, hits in enumerate(per_shard_hits):
            assert hits == (1 if shard_no == owner else 2)

    def test_sharded_delete_never_served_from_cache(self) -> None:
        index = NestedSetIndex.build(RECORDS, shards=3)
        cache = index.enable_result_cache()
        assert "r5" in index.query("{hub}")
        index.query("{hub}")
        assert cache.stats.hits >= 1
        index.delete("r5")
        assert "r5" not in index.query("{hub}")

    def test_aggregate_cache_view(self) -> None:
        index = NestedSetIndex.build(RECORDS, shards=3)
        cache = index.enable_result_cache()
        index.query("{hub}")
        index.query("{hub}")
        assert len(cache) == 3                   # one entry per shard
        assert cache.stats.hits == 3             # second run all-hit
        cache.invalidate_all()
        assert len(cache) == 0
        index.disable_result_cache()
        assert index.result_cache is None
        assert all(engine.result_cache is None for engine in index.shards)

    def test_sharded_compact_with_cache(self) -> None:
        index = NestedSetIndex.build(RECORDS, shards=3)
        index.enable_result_cache()
        index.delete("r2")
        expected = index.query("{hub}")
        index.compact()
        assert index.query("{hub}") == expected
        assert index.query("{hub}") == expected  # cached post-compact


class TestStaleRepopulationRaces:
    """The check-then-act race the epoch scheme closes.

    A reader that decoded (or computed) an entry *before* a delete
    landed may admit it to a shared cache *after* the delete's
    invalidation already ran -- the classic check-then-act window.
    Scoped keys make that late admission unreachable to post-delete
    readers instead of poisonous.
    """

    def test_block_cache_stale_readmission_unreachable(self) -> None:
        from repro.core.cache import BlockCache
        cache = BlockCache(budget=8)
        stale = object()
        # An epoch-0 reader decoded block 0 of "tok"'s posting list...
        cache.admit((("tok", 0), 0), stale)
        # ...a delete invalidates every epoch of the token (check)...
        cache.invalidate({"tok"})
        assert cache.get((("tok", 0), 0)) is None
        # ...and the slow reader re-admits its stale block (act).
        cache.admit((("tok", 0), 0), stale)
        # A post-delete reader runs at epoch 1: the stale entry cannot
        # hit it -- while the old-epoch reader itself, for whom the
        # block is still correct, keeps hitting it.
        assert cache.get((("tok", 1), 0)) is None
        assert cache.get((("tok", 0), 0)) is stale

    def test_pinned_reader_repopulation_cannot_poison_live(self) -> None:
        index = NestedSetIndex.build(RECORDS, cache="lru")
        index.enable_result_cache()
        with index.snapshot() as pinned:
            assert "r3" in pinned.query("{hub}")
            index.delete("r3")
            # The pinned reader re-runs *after* the delete: every
            # result/list/block entry it re-populates lands under its
            # own pre-delete scope...
            assert "r3" in pinned.query("{hub}")
            # ...so live readers never see the dead record, no matter
            # how the two interleave.
            assert "r3" not in index.query("{hub}")
            assert "r3" in pinned.query("{hub}")
        assert "r3" not in index.query("{hub}")

    def test_sharded_pinned_repopulation_cannot_poison_live(self) -> None:
        index = NestedSetIndex.build(RECORDS, shards=3, cache="lru")
        index.enable_result_cache()
        with index.snapshot() as pinned:
            assert "r3" in pinned.query("{hub}")
            index.delete("r3")
            assert "r3" in pinned.query("{hub}")
            assert "r3" not in index.query("{hub}")
            assert "r3" in pinned.query("{hub}")
        assert "r3" not in index.query("{hub}")

"""One facade over N >= 1 partitions: the whole public surface, walked
at 1 and 4 partitions over a memory and a disk store, against the naive
oracle -- the partition count is an input, not a second class."""

from __future__ import annotations

import pytest

from repro.core.bottomup import bottomup_match_nodes
from repro.core.engine import NestedSetIndex
from repro.core.invfile import InvertedFile
from repro.core.matchspec import QuerySpec
from repro.core.naive import hom_join_pairs, reference_query
from repro.core.observe import ExplainResult, MergedExplainResult
from repro.core.shard import MANIFEST_KEY, ShardError, write_manifest
from repro.storage import MemoryKVStore, NamespacedStore
from tests.conftest import document_frequencies

from .test_equivalence_matrix import _corpus, _queries

RECORDS = _corpus(31)
EXTRA = [(f"x{i}", tree) for i, (_key, tree) in enumerate(_corpus(32, n=6))]
QUERIES = _queries(131, n=6)
VICTIM = RECORDS[3][0]


def _check_reads(reader, model) -> None:
    """``reader`` (an index, or a snapshot of one) answers from exactly
    the records of ``model``."""
    expected = [reference_query(model, query) for query in QUERIES]
    assert [reader.query(query) for query in QUERIES] == expected
    assert reader.query_batch(QUERIES) == expected
    assert reader.query_batch(QUERIES, share_subqueries=False,
                              algorithm="topdown") == expected
    keyed = [(f"q{i}", query) for i, query in enumerate(QUERIES)]
    assert reader.containment_join(keyed) == hom_join_pairs(keyed, model)
    for query, matches in zip(QUERIES, expected):
        assert set(map(tuple, reader.self_check(query).values())) == \
            {tuple(matches)}
        assert reader.explain(query, algorithm="naive").matches == matches
    spec = QuerySpec(join="overlap", epsilon=2, mode="anywhere")
    assert reader.query(QUERIES[0], join="overlap", epsilon=2,
                        mode="anywhere", workers=3) == \
        reference_query(model, QUERIES[0], spec)
    assert reader.n_records >= len(model)       # tombstones keep ordinals


@pytest.mark.parametrize("storage", ["memory", "diskhash"])
@pytest.mark.parametrize("shards", [1, 4])
def test_public_surface_agrees_with_the_oracle(tmp_path, shards,
                                               storage) -> None:
    path = None if storage == "memory" else str(tmp_path / "a.idx")
    index = NestedSetIndex.build(RECORDS, storage=storage, path=path,
                                 shards=shards, workers=2, bloom="flat")
    assert (index.n_shards, index.workers) == (shards, 2)
    assert len(index.shards) == shards and index.policy.name == "hash"

    # -- the stored layout is a function of the partition count ----------
    if storage == "memory":
        keys = [key for key, _value in index.base_store.items()]
        namespaces = {key[:key.index(b":") + 1] for key in keys
                      if key[:1] == b"x"}
        if shards == 1:
            assert not namespaces and MANIFEST_KEY not in keys
        else:
            assert namespaces == {b"x%d:" % i for i in range(shards)}
            assert keys[-1] == MANIFEST_KEY     # written last
            assert all(key[:key.index(b":") + 1] in namespaces
                       for key in keys[:-1])

    # -- reads, live and pinned, across every kind of mutation -----------
    model = list(RECORDS)
    held = index.snapshot()
    assert (held.n_records, held.version) == \
        (len(RECORDS), index.base_store.current_version())
    _check_reads(index, model)
    _check_reads(held, model)
    result = index.explain(QUERIES[0])
    assert isinstance(result, ExplainResult if shards == 1
                      else MergedExplainResult)

    index.insert_batch(EXTRA[:4])
    index.insert(*EXTRA[4])
    assert index.delete(VICTIM) and not index.delete(VICTIM)
    now = [record for record in model + EXTRA[:5] if record[0] != VICTIM]
    _check_reads(index, now)
    _check_reads(held, model)                   # still the old version
    assert held.n_records == len(RECORDS)

    # -- statistics ------------------------------------------------------
    trees = [tree for _key, tree in now]
    assert dict(index.frequencies()) == document_frequencies(
        tree for _key, tree in model + EXTRA[:5])
    collection = index.collection_stats()
    assert collection.n_records == len(now)
    live = document_frequencies(trees)
    assert all(collection.document_frequency(atom) == df
               for atom, df in live.items())
    stats = index.stats()
    journaled = index.base_store.wal_info() is not None
    assert journaled == (storage == "diskhash")
    assert set(stats) == {"index", "cache", "store", "shards", "mvcc"} \
        | ({"wal"} if journaled else set())
    assert stats["index"]["records"] == index.n_records == len(model) + 5
    assert stats["shards"]["count"] == shards
    assert stats["shards"]["exec"]["queries"] == index.counters.queries > 0
    assert stats["mvcc"]["open_snapshots"] >= 1         # ``held``
    index.reset_stats()
    assert index.counters.queries == 0
    assert index.stats()["index"]["postings_requests"] == 0

    # -- caches ------------------------------------------------------------
    index.set_cache("lru")
    assert index.stats()["cache"]["policy"] == "lru"
    cache = index.enable_result_cache()
    _check_reads(index, now)
    _check_reads(index, now)
    assert cache.stats.hits > 0
    assert cache.stats.hits == index.result_cache.stats.hits == \
        sum(part.result_cache.stats.hits for part in index.shards)
    index.disable_result_cache()
    assert index.result_cache is None
    assert all(part.result_cache is None for part in index.shards)

    # -- what is partition-local is defined for one partition only -------
    if shards == 1:
        assert index.match_nodes(QUERIES[0]) == bottomup_match_nodes(
            QUERIES[0], index.inverted_file)
        assert held.match_nodes(QUERIES[0]) == \
            bottomup_match_nodes(QUERIES[0], held.views[0].inverted_file)
    else:
        for partition_local in (lambda: index.match_nodes(QUERIES[0]),
                                lambda: held.match_nodes(QUERIES[0]),
                                lambda: index.inverted_file):
            with pytest.raises(ShardError):
                partition_local()

    # -- compact: a fresh store, options forwarded, old pins honoured ----
    index.compact(storage="diskhash", path=str(tmp_path / "b.idx"),
                  n_buckets=64)
    assert index.n_records == len(now)          # tombstone dropped
    assert index.query(QUERIES[1], algorithm="naive", use_bloom=True) == \
        reference_query(now, QUERIES[1])        # filters rebuilt too
    assert dict(index.frequencies()) == live
    _check_reads(index, now)
    _check_reads(held, model)                   # the retired generation
    assert index.stats()["mvcc"]["retired_generations"] == 1
    held.close()
    held.close()                                # idempotent
    assert index.stats()["mvcc"]["retired_generations"] == 0
    index.insert(*EXTRA[5])
    _check_reads(index, now + EXTRA[5:])
    index.close()

    reopened = NestedSetIndex.open("diskhash", str(tmp_path / "b.idx"))
    assert reopened.n_shards == shards
    _check_reads(reopened, now + EXTRA[5:])
    reopened.close()


def test_one_shard_behind_a_manifest_opens_like_any_other() -> None:
    """A store whose manifest names one namespace (what a one-shard
    build used to write) needs no code of its own."""
    base = MemoryKVStore()
    InvertedFile.build(RECORDS, store=NamespacedStore(base, b"x0:"))
    write_manifest(base, 1, "hash")
    index = NestedSetIndex.from_store(base)
    assert index.n_shards == 1
    assert index.inverted_file.store is not index.base_store
    _check_reads(index, RECORDS)
    index.insert(*EXTRA[0])
    with index.snapshot() as held:
        assert index.delete(VICTIM)
        _check_reads(held, RECORDS + EXTRA[:1])
    _check_reads(index, [record for record in RECORDS + EXTRA[:1]
                         if record[0] != VICTIM])
    assert all(key == MANIFEST_KEY or key.startswith(b"x0:")
               for key, _value in base.items())
    index.close()



@pytest.mark.parametrize("shards", [1, 4])
def test_reset_stats_zeroes_the_shared_store(shards) -> None:
    """``stats()["store"]`` counts the base store every partition reads
    through; ``reset_stats`` zeroes it at any partition count."""
    with NestedSetIndex.build(RECORDS, shards=shards) as index:
        for query in QUERIES:
            index.query(query)
        stats = index.stats()
        assert stats["store"]["gets"] > 0
        assert stats["index"]["list_fetches"] > 0
        index.reset_stats()
        stats = index.stats()
        assert stats["store"]["gets"] == 0
        assert stats["index"]["list_fetches"] == 0
        assert all(part == {"list_fetches": 0, "directory_hits": 0}
                   for part in stats["shards"]["partitions"])

"""Tests for incremental index maintenance (insert / delete / compact)."""

from __future__ import annotations

import random

import pytest

from repro.core.checker import assert_healthy, check_index
from repro.core.engine import NestedSetIndex
from repro.core.invfile import InvertedFile
from repro.core.matchspec import QuerySpec
from repro.core.model import NestedSet
from repro.core.naive import reference_query
from repro.core.shard import shard_of
from repro.core.updates import IndexWriter, UpdateError
from tests.conftest import document_frequencies, random_tree, \
    reported_frequencies

N = NestedSet


def check_against(index: NestedSetIndex,
                  model: list[tuple[str, NestedSet]],
                  seed: str, trials: int = 30) -> None:
    """Every algorithm must agree with the oracle over ``model``."""
    rng = random.Random(seed)
    atoms = [f"a{i}" for i in range(12)]
    for _ in range(trials):
        query = random_tree(rng, atoms)
        expected = reference_query(model, query, QuerySpec())
        assert index.query(query) == expected
        assert index.query(query, algorithm="topdown") == expected
        assert index.query(query, algorithm="naive") == expected


class TestInsert:
    def test_insert_becomes_queryable(self, small_corpus) -> None:
        index = NestedSetIndex.build(small_corpus)
        tree = N(["a1", "freshatom"], [N(["a2"])])
        ordinal = index.insert("newbie", tree)
        assert ordinal == len(small_corpus)
        assert "newbie" in index.query(tree)
        assert index.query(N(["freshatom"])) == ["newbie"]
        check_against(index, small_corpus + [("newbie", tree)], "ins")

    def test_insert_several(self, small_corpus) -> None:
        index = NestedSetIndex.build(small_corpus)
        rng = random.Random(3)
        atoms = [f"a{i}" for i in range(12)]
        added = [(f"x{i}", random_tree(rng, atoms)) for i in range(10)]
        for key, tree in added:
            index.insert(key, tree)
        check_against(index, small_corpus + added, "many")

    def test_duplicate_key_rejected(self, small_corpus) -> None:
        # A key has one owning partition, so a repeat meets its first
        # copy there at any partition count.
        key = small_corpus[0][0]
        for shards in (1, 4):
            with pytest.raises(UpdateError):
                NestedSetIndex.build(small_corpus + [(key, N(["a1"]))],
                                     shards=shards)
            index = NestedSetIndex.build(small_corpus, shards=shards)
            with pytest.raises(UpdateError):
                index.insert(key, N(["a1"]))
            with pytest.raises(UpdateError):
                index.insert_batch([("fresh", N(["a1"])),
                                    (key, N(["a1"]))])
            with pytest.raises(UpdateError):
                index.insert_batch([("twice", N(["a1"])),
                                    ("twice", N(["a2"]))])
            assert index.n_records == len(small_corpus)
            assert index.query(N(["a1"])) == reference_query(
                small_corpus, N(["a1"]), QuerySpec())

    def test_insert_updates_counts_and_stats(self, small_corpus) -> None:
        index = NestedSetIndex.build(small_corpus)
        nodes_before = index.n_nodes
        index.insert("n1", N(["a1"], [N(["a2"])]))
        assert index.n_records == len(small_corpus) + 1
        assert index.n_nodes == nodes_before + 2
        # frequency table refreshed (engine flushes the writer)
        stats = index.collection_stats()
        df = dict(index.inverted_file.frequencies())
        assert stats.document_frequency("a1") == df["a1"]

    def test_preorder_invariants_after_insert(self, small_corpus) -> None:
        index = NestedSetIndex.build(small_corpus)
        index.insert("n1", N(["a1"], [N(["a2"], [N(["a3"])])]))
        ifile = index.inverted_file
        ordinal = ifile.ordinal_of_key("n1")
        _key, root_id, tree = ifile.record(ordinal)
        meta = ifile.meta(root_id)
        assert meta.is_root
        assert meta.max_desc - root_id + 1 == tree.internal_count

    def test_insert_into_reopened_disk_index(self, tmp_path,
                                             small_corpus) -> None:
        path = str(tmp_path / "u.idx")
        NestedSetIndex.build(small_corpus, storage="diskhash",
                             path=path).close()
        index = NestedSetIndex.open("diskhash", path)
        tree = N(["diskfresh"])
        index.insert("disk1", tree)
        index.close()
        reopened = NestedSetIndex.open("diskhash", path)
        assert reopened.query(tree) == ["disk1"]
        reopened.close()


class TestDelete:
    def test_delete_hides_record(self, small_corpus) -> None:
        index = NestedSetIndex.build(small_corpus)
        victim_key, victim_tree = small_corpus[7]
        assert index.delete(victim_key) is True
        assert victim_key not in index.query(victim_tree)
        model = [r for r in small_corpus if r[0] != victim_key]
        check_against(index, model, "del")

    def test_delete_missing(self, small_corpus) -> None:
        index = NestedSetIndex.build(small_corpus)
        assert index.delete("ghost") is False

    def test_delete_then_reinsert_key(self, small_corpus) -> None:
        index = NestedSetIndex.build(small_corpus)
        key = small_corpus[0][0]
        index.delete(key)
        tree = N(["reborn"])
        index.insert(key, tree)
        assert index.query(tree) == [key]

    def test_deleted_set_persists(self, tmp_path, small_corpus) -> None:
        path = str(tmp_path / "d.idx")
        index = NestedSetIndex.build(small_corpus, storage="diskhash",
                                     path=path)
        index.delete(small_corpus[3][0])
        index.close()
        reopened = NestedSetIndex.open("diskhash", path)
        assert small_corpus[3][0] not in \
            reopened.query(small_corpus[3][1])
        assert reopened.inverted_file.n_live_records == \
            len(small_corpus) - 1
        reopened.close()

    def test_live_record_count(self, small_corpus) -> None:
        index = NestedSetIndex.build(small_corpus)
        index.delete(small_corpus[0][0])
        index.delete(small_corpus[1][0])
        assert index.inverted_file.n_live_records == len(small_corpus) - 2

    def test_delete_invalidates_blocked_caches(self, small_corpus) -> None:
        """Regression: after a tombstone delete, queries over a
        block-compressed index must not answer from cached decodings of
        the dead record's posting lists."""
        index = NestedSetIndex.build(small_corpus, block_size=4)
        victim_key, victim_tree = small_corpus[5]
        # Warm the block cache with the victim's own atoms.
        assert victim_key in index.query(victim_tree)
        index.query(victim_tree, algorithm="topdown")
        assert index.delete(victim_key) is True
        assert victim_key not in index.query(victim_tree)
        model = [r for r in small_corpus if r[0] != victim_key]
        check_against(index, model, "blocked-del")

    def test_delete_refreshes_collection_stats(self, small_corpus) -> None:
        """Regression: the memoized collection statistics must be
        rebuilt after a delete, mirroring what insert already did."""
        index = NestedSetIndex.build(small_corpus)
        victim_key, victim_tree = small_corpus[4]
        atom = next(iter(next(victim_tree.iter_sets()).atoms))
        before = index.collection_stats()  # memoize pre-delete
        df_before = before.document_frequency(atom)
        assert df_before > 0
        assert index.delete(victim_key) is True
        after = index.collection_stats()
        assert after is not before
        assert after.n_records == before.n_records - 1
        assert after.document_frequency(atom) < df_before


class TestCompact:
    def test_compact_drops_tombstones(self, small_corpus) -> None:
        index = NestedSetIndex.build(small_corpus)
        index.delete(small_corpus[2][0])
        index.insert("extra", N(["a1", "a9"]))
        index.compact()
        model = [r for r in small_corpus if r[0] != small_corpus[2][0]]
        model.append(("extra", N(["a1", "a9"])))
        assert index.n_records == len(model)
        assert not index.inverted_file.deleted
        check_against(index, model, "compact")

    def test_compact_refreshes_frequencies(self, small_corpus) -> None:
        index = NestedSetIndex.build(small_corpus)
        before = dict(index.inverted_file.frequencies())
        # delete every record containing a1 at the root, then compact
        victims = index.query(N(["a1"]))
        for key in victims:
            index.delete(key)
        index.compact()
        after = dict(index.inverted_file.frequencies())
        assert after.get("a1", 0) < before["a1"]

    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("policy", ["lru", "frequency"])
    def test_compact_keeps_the_cache_policy_and_budget(
            self, small_corpus, policy, shards) -> None:
        def pins() -> list[int]:
            return [len(part.inverted_file.cache.pins)
                    for part in index.shards]

        index = NestedSetIndex.build(small_corpus, cache=policy,
                                     cache_budget=12, shards=shards)
        index.delete(small_corpus[2][0])
        index.compact()
        assert index.stats()["cache"]["policy"] == policy
        assert pins() == [12 // shards if policy == "frequency" else 0] \
            * shards
        query = small_corpus[0][1]
        index.reset_stats()
        assert index.query(query) == index.query(query)
        assert index.stats()["cache"]["hits"] > 0
        # a policy swapped in after the build is the one carried over
        index.set_cache("frequency", budget=9)
        index.compact()
        assert index.stats()["cache"]["policy"] == "frequency"
        assert pins() == [9 // shards] * shards
        index.set_cache("lru", budget=9)
        index.compact()
        assert index.stats()["cache"]["policy"] == "lru"
        assert pins() == [0] * shards


class TestWriterDirect:
    def test_writer_flush_idempotent(self, small_corpus) -> None:
        ifile = InvertedFile.build(small_corpus)
        writer = IndexWriter(ifile)
        writer.insert("w1", N(["a1"]))
        writer.flush()
        writer.flush()  # no-op
        assert dict(ifile.frequencies())["a1"] > 0

    def test_insert_many(self, small_corpus) -> None:
        ifile = InvertedFile.build(small_corpus)
        writer = IndexWriter(ifile)
        ordinals = writer.insert_many([("m1", N(["a1"])),
                                       ("m2", N(["a2"]))])
        assert ordinals == [len(small_corpus), len(small_corpus) + 1]

    def test_on_mutate_fires_once_per_group_before_the_commit(
            self, small_corpus) -> None:
        ifile = InvertedFile.build(small_corpus)
        store = ifile.store
        calls = []

        def version() -> int:
            return store.mvcc_info()["snapshot_version"]

        writer = IndexWriter(ifile, on_mutate=lambda tokens:
                             calls.append((tokens, version())))
        before = version()
        writer.insert_many([("m1", N(["a1", "x"], [N(["y"])])),
                            ("m2", N(["a1", 7])), ("m3", N())])
        # One call, the union of the group's tokens, and the group not
        # yet committed when it came.
        assert calls == [({"s:a1", "s:x", "s:y", "i:7"}, before)]
        assert version() == before + 1
        writer.insert("m4", N())            # no atom at all: still a call
        assert calls[1:] == [(set(), before + 1)]
        # A delete changes no posting list: it commits, and no call comes.
        writer.delete("m1")
        assert version() == before + 3
        assert calls[2:] == []


class TestFailedBatch:
    """Regression: an ``insert_batch`` that raises part-way (here a
    duplicate key as the last record of the batch -- of a stored record,
    then of a record of the same batch, which only the writer's group
    buffer knows) aborts the store transaction, and must leave the live
    objects where the store is.  They used to stay advanced -- counters,
    the writer's pending buffers -- and the next insert failed with
    ``metadata block 0 has 51 bytes, expected 68 before append`` until
    a reopen."""

    @pytest.mark.parametrize("storage, shards", [
        ("memory", 1), ("diskhash", 1), ("diskhash", 4)])
    def test_failed_batch_leaves_the_index_as_it_found_it(
            self, tmp_path, storage, shards) -> None:
        path = None if storage == "memory" else str(tmp_path / "idx")
        records = [(f"r{i}", N([f"a{i % 5}", "common"], [N([f"n{i}"])]))
                   for i in range(12)]
        index = NestedSetIndex.build(records, storage=storage, path=path,
                                     shards=shards)
        fresh = [(f"f{i}", N(["common", f"fresh{i}"], [N([], [N(["deep"])])]))
                 for i in range(8)]
        def batch_ending_in(duplicate):
            # The shard that will refuse comes last, so on 4 shards the
            # slices of other shards are complete when the group aborts.
            last = shard_of(duplicate[0], shards)
            return sorted(fresh, key=lambda record: shard_of(
                record[0], shards) == last) + [duplicate]

        def state(idx):
            return (idx.query(N(["common"])),
                    [idx.query(N([f"fresh{i}"])) for i in range(8)],
                    idx.query(N(["dup"])), idx.query(N(["deep"])),
                    [(engine.inverted_file.n_records,
                      engine.inverted_file.n_nodes,
                      engine.inverted_file.frequencies())
                     for engine in idx.shards])

        before = state(index)
        assert before[0] == sorted(key for key, _tree in records)
        for duplicate in (("r3", N(["dup"])), ("f0", N(["dup"]))):
            with pytest.raises(UpdateError):
                index.insert_batch(batch_ending_in(duplicate))
            # Pages are read right after the abort: what the store
            # remembers of the pages the group touched must not show.
            assert state(index) == before
            for engine in index.shards:
                writer = engine._index_writer()
                assert not (writer._postings or writer._records
                            or writer._meta or writer._pending_all
                            or writer._pending_zero)

        def insert_and_check(idx, key, atom):
            idx.insert(key, N(["common", atom]))
            assert idx.query(N([atom])) == [key]
            assert key in idx.query(N(["common"]))
            for engine in idx.shards:
                assert_healthy(engine.inverted_file)

        insert_and_check(index, "after", "fresh0")
        assert index.insert_batch(fresh[:2])    # the same records, now fine
        assert index.query(N(["fresh1"])) == ["f1"]
        if path is not None:
            index.close()
            index = NestedSetIndex.open(storage, path)
            assert index.query(N(["fresh0"])) == ["after", "f0"]
            assert index.query(N(["dup"])) == []
            insert_and_check(index, "reopened", "fresh7")
        index.close()


class TestAbortedDelete:
    """Regression: a ``delete`` whose store call raises aborts the store
    transaction, and must leave the live objects where the store is.
    The tombstone, the dead counts and the writer's pending dead-count
    delta used to stay: the record remained answerable only until the
    next successful delete wrote the phantom ordinal out with its own,
    the phantom's atoms counted dead twice."""

    #: Where the store call fails: (store method, key prefix).  The
    #: tombstone set and the dead-count delta reach the store in the
    #: group's one ``put_many``.
    FAULTS = {"keymap": ("delete", b"K:"),
              "tombstones": ("put_many", b"M:deleted"),
              "statistics": ("put_many", b"M:dead")}

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("storage", ["memory", "diskhash"])
    @pytest.mark.parametrize("shards", [1, 4])
    def test_aborted_delete_leaves_the_index_as_it_found_it(
            self, tmp_path, shards, storage, fault) -> None:
        path = None if storage == "memory" else str(tmp_path / "idx")
        records = [(f"r{i:02d}", N(["a", f"b{i % 3}"], [N([f"n{i}"])]))
                   for i in range(12)]
        index = NestedSetIndex.build(records, storage=storage, path=path,
                                     shards=shards)
        # The next delete on the partition of the aborted one is the one
        # that would write its leftovers out.
        home = shard_of("r00", shards)
        neighbour = next(key for key, _tree in records[1:] if
                         shard_of(key, shards) == home)

        def state(idx):
            return (idx.query(N(["a"])), idx.n_records,
                    reported_frequencies(idx),
                    [check_index(part.inverted_file) for part in idx.shards])

        before = state(index)
        assert before[0] == [key for key, _tree in records]
        store = index.shards[home].inverted_file.store
        method, prefix = self.FAULTS[fault]
        original = getattr(store, method)
        fired = []

        def failing(arg):
            keys = [key for key, _value in arg] if method == "put_many" \
                else [arg]
            if any(key.startswith(prefix) for key in keys) and not fired:
                fired.append(keys)
                raise OSError("injected store failure")
            return original(arg)

        setattr(store, method, failing)
        with pytest.raises(OSError):
            index.delete("r00")
        assert fired
        assert state(index) == before

        assert index.delete(neighbour)      # removes it, and only it
        live = [record for record in records if record[0] != neighbour]
        after = ([key for key, _tree in live], len(records),
                 (document_frequencies(tree for _key, tree in records),
                  document_frequencies(tree for _key, tree in live)),
                 [[]] * shards)
        assert state(index) == after
        if path is not None:
            index.close()
            index = NestedSetIndex.open(storage, path)
            assert state(index) == after
        index.close()

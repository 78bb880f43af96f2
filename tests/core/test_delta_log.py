"""The statistics delta log: exact at every step, bounded work per commit.

``IndexWriter.flush`` appends a commit's ``(atom, +df)`` / ``(atom,
+dead)`` pairs to the delta logs of ``M:freq`` / ``M:dead`` and folds
them back into the base tables once they outgrow the base.  These tests
hold the merged view to the records themselves through folds and
reopens, bound a commit's written bytes independently of the vocabulary,
and open an index the previous on-disk layout wrote.

No hypothesis: the crash-consistency CI job runs this module.
"""

from __future__ import annotations

import base64
import threading
import zlib

import pytest

from repro.core.checker import assert_healthy
from repro.core.engine import NestedSetIndex
from repro.core.invfile import _FREQ_KEY, InvertedFile, atom_token, delta_key
from repro.core.model import NestedSet
from repro.core.shard import shard_of
from repro.core.updates import IndexWriter, UpdateError
from repro.storage.kvstore import MemoryKVStore
from tests.conftest import document_frequencies


def ranked(df: dict) -> list:
    """``(-df, token)`` order, as ``frequencies()`` promises."""
    return sorted(df.items(),
                  key=lambda item: (-item[1], atom_token(item[0])))


def assert_exact(ifile: InvertedFile, live: dict, dead: dict) -> None:
    """Both frequency views equal the recomputed ones, order included."""
    trees = list(live.values())
    assert ifile.frequencies() == ranked(
        document_frequencies(trees + list(dead.values())))
    assert ifile.live_frequencies() == ranked(document_frequencies(trees))


@pytest.mark.parametrize("storage", ["memory", "diskhash"])
def test_merged_view_is_exact_across_folds(tmp_path, storage) -> None:
    """Single inserts and deletes on a two-atom base: the log fills and
    folds repeatedly, and the merged view equals the recomputed
    frequencies after every commit -- so in particular on both sides of
    every fold -- and after a reopen with a log pending."""
    path = None if storage == "memory" else str(tmp_path / "idx.db")
    live = {"seed": "{a, b}"}
    dead: dict = {}
    index = NestedSetIndex.build(list(live.items()), storage=storage,
                                 path=path)
    folds = logged = 0

    def committed() -> None:
        nonlocal folds, logged
        ifile = index.inverted_file
        assert_exact(ifile, live, dead)
        if ifile._delta_pairs == 0:
            folds += 1
            assert ifile._n_freq_deltas == ifile._n_dead_deltas == 0
        else:
            logged += 1

    for i in range(40):
        # Mostly old atoms, sometimes a new one: the base grows slowly,
        # so the log has to outgrow it again and again.
        key, value = f"r{i}", "{a, {b, n%d}}" % (i // 4)
        index.insert(key, value)
        live[key] = value
        committed()
        if i % 5 == 4:
            victim = f"r{i - 2}"
            assert index.delete(victim)
            dead[victim] = live.pop(victim)
            committed()
        if path is not None and i % 7 == 6:
            index.close()
            index = NestedSetIndex.open(storage, path)
            assert_exact(index.inverted_file, live, dead)
    assert folds >= 2 and logged >= 2
    assert_healthy(index.inverted_file)
    index.close()


def assert_as_reopened(index) -> None:
    """Every partition's frequency views equal those of an inverted
    file freshly opened over its store, order included."""
    for partition in index._partitions:
        ifile = partition.inverted_file
        fresh = InvertedFile(ifile.store)
        assert ifile.frequencies() == fresh.frequencies()
        assert ifile.live_frequencies() == fresh.live_frequencies()


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("storage", ["memory", "diskhash"])
def test_kept_table_ranks_as_a_fresh_open(tmp_path, storage,
                                          shards) -> None:
    """The frequency table a live inverted file keeps in memory, and
    its writer keeps current, ranks as a fresh open of the store does
    after every insert, delete, fold, refused group and reopen.  Atoms
    first seen after the base overtake the base's own: ``z`` outgrows
    ``b``, and ``0new`` ties with ``b`` and ranks before it by token --
    so a fold that kept its table in insertion order would show."""
    path = None if storage == "memory" else str(tmp_path / "idx.db")
    index = NestedSetIndex.build(
        [(f"s{i}", "{a, b, {a, c}}") for i in range(8)],
        storage=storage, path=path, shards=shards)
    assert_as_reopened(index)
    folds = logged = refused = 0
    for i in range(30):
        key = f"r{i}"
        index.insert(key, "{0new, b}" if i % 3 == 0 else "{a, z, {z}}")
        owner = index._partitions[shard_of(key, shards)].inverted_file
        assert owner._df is not None        # carried, not re-read
        if owner._delta_pairs:
            logged += 1
        else:
            folds += 1
        assert_as_reopened(index)
        if i % 4 == 3:
            assert index.delete(f"r{i - 1}")
            assert_as_reopened(index)
        if i % 5 == 4:
            # The fresh key's partition writes its slice before the
            # repeated key's partition refuses the group.
            fresh = next(f"x{i}-{n}" for n in range(100)
                         if shards == 1 or shard_of(f"x{i}-{n}", shards)
                         != shard_of("s0", shards))
            with pytest.raises(UpdateError):
                index.insert_batch([(fresh, "{z, q}"), ("s0", "{a}")])
            refused += 1
            assert_as_reopened(index)
        if path is not None and i % 7 == 6:
            index.close()
            index = NestedSetIndex.open(storage, path)
            assert_as_reopened(index)
    assert folds >= 2 and logged >= 2 and refused >= 2
    if shards == 1:
        assert_healthy(index.inverted_file)
    index.close()


def test_a_load_racing_a_commit_publishes_no_stale_table() -> None:
    """A reader decoding the frequency table while a commit logs its
    delta: the commit waits for the load and then updates the loaded
    table, so no reader publishes a table the commit has passed."""
    ifile = InvertedFile.build(
        [(f"s{i}", NestedSet.parse("{a, b%d}" % i)) for i in range(20)])
    writer = IndexWriter(ifile)
    writer.insert("r0", "{a, fresh}")       # one logged delta to decode
    assert ifile._n_freq_deltas == 1
    ifile.reload_config()                   # nothing loaded yet
    store = ifile.store
    in_load, release = threading.Event(), threading.Event()

    def get(key, _get=store.get):
        if key == delta_key(_FREQ_KEY, 0) and not in_load.is_set():
            in_load.set()
            release.wait(5)
        return _get(key)

    store.get = get
    reader = threading.Thread(target=ifile.frequencies)
    reader.start()
    assert in_load.wait(5)
    committer = threading.Thread(
        target=writer.insert, args=("r1", "{a, fresh, newer}"))
    committer.start()
    committer.join(0.2)                     # it may finish only after
    release.set()
    reader.join(5)
    committer.join(5)
    del store.get
    assert ifile._n_freq_deltas == 2
    assert ifile.frequencies() == InvertedFile(store).frequencies()


def test_fold_leaves_no_delta_keys() -> None:
    """A fold deletes every log entry it merged, in the same group."""
    index = NestedSetIndex.build([("seed", "{a, b, c, d}")])
    store = index.inverted_file.store
    index.insert("r0", "{a, b}")
    index.delete("r0")
    assert any(b"+" in key for key in store.keys())
    index.insert("r1", "{a, b, c, e}")      # 2 + 2 + 4 pairs > 4: folds
    assert index.inverted_file._n_freq_deltas == 0
    assert not any(b"+" in key for key in store.keys())
    assert dict(index.inverted_file.dead_counts) == {"a": 1, "b": 1}
    index.close()


def test_deferred_flush_writes_one_delta_per_group() -> None:
    """``insert(flush_stats=False)`` + one ``flush()``: the group's
    records share one log entry and one configuration write."""
    base = [(f"s{i}", NestedSet.parse("{a%d, b%d}" % (i, i)))
            for i in range(10)]
    ifile = InvertedFile.build(base)
    writer = IndexWriter(ifile)
    with ifile.store.transaction(b"ingest"):
        for i in range(3):
            writer.insert(f"n{i}", "{a0, fresh}", flush_stats=False)
        writer.flush()
    assert ifile._n_freq_deltas == 1
    assert ifile._delta_pairs == 2
    reopened = InvertedFile(ifile.store)
    assert dict(reopened.frequencies())["fresh"] == 3
    assert dict(reopened.frequencies())["a0"] == 4
    assert reopened.n_records == 13


class CountingStore(MemoryKVStore):
    """Counts the value bytes handed to ``put``."""

    value_bytes = 0

    def put(self, key: bytes, value: bytes) -> None:
        self.value_bytes += len(value)
        super().put(key, value)


def _group_bytes(atoms_per_record: int) -> int:
    """Value bytes one 5-record insert group writes into an index of
    200 one-node records with ``atoms_per_record`` distinct atoms each."""
    store = CountingStore()
    records = [(f"s{i}", NestedSet([f"v{i}_{j}"
                                    for j in range(atoms_per_record)]))
               for i in range(200)]
    InvertedFile.build(records, store=store)
    index = NestedSetIndex.from_store(store)
    group = [(f"n{i}", "{v%d_0, v%d_1, new%d}" % (i, i, i))
             for i in range(5)]
    before = store.value_bytes
    index.insert_batch(group)
    written = store.value_bytes - before
    df = dict(index.inverted_file.frequencies())
    assert df["v0_0"] == 2 and df["new4"] == 1
    index.close()
    return written


def test_commit_writes_what_it_touches() -> None:
    """The same group costs the same bytes in a 1 000-atom and a
    20 000-atom index (with a whole-table rewrite: 27 579 against
    225 130)."""
    small = _group_bytes(5)
    large = _group_bytes(100)
    assert large <= 2 * small, (small, large)


#: A diskhash index written by the commit before the delta log existed:
#: built from tim/sue/bob, then ``insert("gil")`` (its flush rewrote
#: ``M:freq`` whole) and ``delete("bob")`` (``M:dead`` whole), closed.
#: Six-varint configuration, no delta keys.  zlib + base64.
_PARENT_WRITTEN = """
eNrt3U9vG0UYB+B3dvy3QJqGNimUitJzj5xW4mBx4BBSoUT5AG28bSOZROBCD1WkfI3e
+KjsbuwKwg1S8C7PI3mdHVn2+l3n8JvdmXn67Q/fpYjtiPvxZ/X+ICKt9or6cTcAAACA
/4O84ce3KX0Un3bkfO584Pefdvz3vudfvlMmN/Q+tzbk+3zilPIHHysBAB1ye8OOZ9cp
uRH3lIAPYGvDj+8jp+hvGf1Ln7Ot1J02UAKgZ4ZKADdm/B9//p2e1PFhxK3tWbksT15V
1bLKxWVKRVGMU0rtvf8AAABA9z2IGO00+f94v83+dfifttm//su1GAAAAOiHxxHj+23+
P5rlwWWd/MeD200HQC6K1BiMJqoEAAAA3bYbMdxq8v8spzr9DyINm/QPAAAA9MhexKjN
//Oq7QAY6QAAAACA3vksYtLm/zenZ3oAAAAAoJ/a8f/fl88WizKm0Qz4L1L9NGg2o2Yz
0RMAAAAAXfdbRH6XnpbtThP114v+pesNf3nF+531OgHpekO70zSuV/9Oxarx/XLgefWK
9SSD6XoDAAAA8I99VUfwB4dl5NenP8a9t8dHsyeP3h7v15uTV1W1rC4uLhQJAAAAOm4a
MUz7ZZP+AQAAgJ56HJG/OCxTXv5S5d32yv/VPQD1Y30HgCoBAABAt62u/9fp3zx/AAAA
0FcPI/LeYVnk5+fPh3dW4//n1ZNHzXqALv0DAAAAAAAAQCd8EzH6+qB88XP103i4LI+P
ZoNB/bRfTJbl1fj/Ii/LWaob51UaL8uz81+rRRoty+YGAWMGAAAAoAt2Iibjg/Lk/OzF
6cvBtA70l0I9AAAA9MznEdOtWbm6rp/TZUqTSMOU9AIAAABAn/J/vntY5vzydDHeWs3/
1/YFmPwPAAAA+mK1/l+d/rNiAAAAQE9tRUyLg3JeLarX1TwVKgIAAAD982XEaLfJ/8/m
+Wr+/9VU/2b4BwAAgM77HXC5ZOg=
"""


def test_index_written_before_the_delta_log_opens_and_updates(
        tmp_path) -> None:
    path = str(tmp_path / "parent.idx")
    with open(path, "wb") as handle:
        handle.write(zlib.decompress(base64.b64decode(_PARENT_WRITTEN)))
    live = {"tim": "{USA, {UK, {cheese}}}", "sue": "{USA, UK, {A, cheese}}",
            "gil": "{USA, {novel}}"}
    dead = {"bob": "{USA, {de, wine}}"}

    index = NestedSetIndex.open("diskhash", path)
    ifile = index.inverted_file
    assert ifile._n_freq_deltas == ifile._n_dead_deltas == 0
    assert_exact(ifile, live, dead)
    assert index.query("{USA}") == ["gil", "sue", "tim"]
    index.insert("ann", "{UK, {novel, A}}")
    live["ann"] = "{UK, {novel, A}}"
    assert index.delete("tim")
    dead["tim"] = live.pop("tim")
    assert ifile._n_freq_deltas == ifile._n_dead_deltas == 1
    assert_exact(ifile, live, dead)
    index.close()

    reopened = NestedSetIndex.open("diskhash", path)
    assert_exact(reopened.inverted_file, live, dead)
    assert reopened.query("{UK}") == ["ann", "sue"]
    assert_healthy(reopened.inverted_file)
    reopened.close()

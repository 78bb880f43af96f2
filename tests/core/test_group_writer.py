"""The group writer: what a commit group writes, and how often.

``IndexWriter.insert`` numbers and buffers; ``flush`` writes the group.
Two things are pinned here, on every store:

* **the bytes** -- the same records applied one by one, in groups of 5
  and 30, and as one group that crosses a list-block, a metadata-block
  and an ALL-block boundary leave a store whose sorted ``(key, value)``
  dump hashes to the digest recorded at the commit *before* the writer
  buffered anything (the constants below), and the grouping shows in no
  key but the statistics logs;
* **the work** -- a group puts each list it touches once, however many
  of its records touch it.

Needs no hypothesis (it runs in the crash-consistency CI job).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.checker import assert_healthy
from repro.core.engine import NestedSetIndex
from repro.core.invfile import InvertedFile, LIST_BLOCK, META_BLOCK
from repro.core.model import NestedSet
from repro.core.updates import IndexWriter, UpdateError
from repro.storage.codec import DEFAULT_BLOCK_SIZE, PACKED_FORMAT_BYTE
from repro.storage.kvstore import MemoryKVStore

N = NestedSet

STORAGES = ("memory", "diskhash")
#: list format -> build options (the digests below are keyed by it)
FORMATS = {"packed": {}}
#: grouping -> (base records, fresh records, group size; 1 = single inserts)
GROUPINGS = {
    "singles": (40, 30, 1),
    "groups-of-5": (40, 30, 5),
    "group-of-30": (40, 30, 30),
    "crossing": (680, 30, 30),
}
CASES = [(storage, fmt, grouping) for storage in STORAGES
         for fmt in FORMATS for grouping in GROUPINGS]

#: records from this ordinal on carry the atom "edge": 100 base postings
#: and 30 fresh ones, so the crossing group spills "edge" into a second
#: 128-posting block.
EDGE_FROM = 580

#: SHA-256 of the store dump, recorded at the parent commit (per-record
#: list appends), equal on every store.
PARENT_DIGESTS = {
    ("packed", "singles"):
        "3f9a9b934b837db48ba27f40bdd008107d2d11c410681563b0b3c7c503d355ac",
    ("packed", "groups-of-5"):
        "4b13b53c185a8c618dc3c468abb147514038c84a8829705f36174ab73a6fc2f4",
    ("packed", "group-of-30"):
        "3a87640cc29c0e3e10bd5b27770e25a0bb23d9434c61327de573cd276472c8af",
    ("packed", "crossing"):
        "1be4ed11f7c850d911b61b8ab564c1f8092ff6b716453d594a4fdee37072380f",
}


def record(i: int) -> tuple[str, NestedSet]:
    """Record ``i``: six nodes, shared and unique atoms, an int atom, a
    node without leaves (ZERO list) and a three-level path."""
    atoms = [f"a{i % 7}", f"b{i % 13}", "common", i]
    if i >= EDGE_FROM:
        atoms.append("edge")
    return f"r{i:04d}", N(atoms, [
        N([f"c{i % 5}"], [N([f"d{i % 11}", "deep"])]),
        N([], [N(["leafless", f"e{i % 3}"])]),
        N([f"u{i}"])])


def apply(storage: str, fmt: str, grouping: str, tmp_path):
    """Build the base, insert the fresh records in the grouping, delete
    one base and one fresh record; returns the open index."""
    n_base, n_fresh, size = GROUPINGS[grouping]
    path = None if storage == "memory" else \
        str(tmp_path / f"{storage}-{fmt}-{grouping}")
    index = NestedSetIndex.build([record(i) for i in range(n_base)],
                                 storage=storage, path=path, **FORMATS[fmt])
    fresh = [record(i) for i in range(n_base, n_base + n_fresh)]
    if size == 1:
        for key, tree in fresh:
            index.insert(key, tree)
    else:
        for start in range(0, n_fresh, size):
            index.insert_batch(fresh[start:start + size])
    assert index.delete(record(3)[0])
    assert index.delete(fresh[-1][0])
    return index


def dump(index) -> list[tuple[bytes, bytes]]:
    return sorted(index.inverted_file.store.items())


def digest(items) -> str:
    sha = hashlib.sha256()
    for key, value in items:
        sha.update(len(key).to_bytes(4, "little") + key)
        sha.update(len(value).to_bytes(4, "little") + value)
    return sha.hexdigest()


class TestBytes:
    @pytest.mark.parametrize("storage, fmt, grouping", CASES)
    def test_store_dump_equals_the_parent_commits(
            self, tmp_path, storage, fmt, grouping) -> None:
        index = apply(storage, fmt, grouping, tmp_path)
        try:
            assert digest(dump(index)) == PARENT_DIGESTS[fmt, grouping]
            assert_healthy(index.inverted_file)
        finally:
            index.close()

    def test_the_crossing_group_crosses(self, tmp_path) -> None:
        n_base, n_fresh, _size = GROUPINGS["crossing"]
        before, after = 6 * n_base, 6 * (n_base + n_fresh)
        assert before < LIST_BLOCK < after                  # ALL block
        assert before // META_BLOCK < after // META_BLOCK   # metadata block
        edge_before = n_base - EDGE_FROM
        assert edge_before < DEFAULT_BLOCK_SIZE < edge_before + n_fresh
        index = apply("memory", "packed", "crossing", tmp_path)
        assert index.n_nodes == after
        # (a delete is a tombstone: the deleted record stays listed)
        assert len(index.inverted_file.postings("edge")) == \
            edge_before + n_fresh
        formats = {raw[0] for key, raw in dump(index)
                   if key.startswith(b"A:")}
        assert formats == {PACKED_FORMAT_BYTE}
        index.close()

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("storage", STORAGES)
    def test_grouping_shows_only_in_the_statistics_logs(
            self, tmp_path, storage, fmt) -> None:
        """Single inserts and groups differ in how many ``M:freq+<i>``
        entries they logged (and when a log was folded), nowhere else."""
        def outside_the_logs(index):
            return [(key, value) for key, value in dump(index)
                    if not key.startswith((b"M:freq", b"M:dead",
                                           b"M:config"))]

        def counts(index):
            ifile = index.inverted_file
            return (ifile.n_records, ifile.n_nodes, ifile.frequencies(),
                    sorted(ifile.dead_counts.items(), key=repr))

        states = []
        for grouping in ("singles", "groups-of-5", "group-of-30"):
            index = apply(storage, fmt, grouping, tmp_path)
            states.append((outside_the_logs(index), counts(index)))
            index.close()
        assert states[0] == states[1] == states[2]


class CountingStore(MemoryKVStore):
    """Records every ``put`` as ``(key, value length)``."""

    def __init__(self) -> None:
        super().__init__()
        self.puts: list[tuple[bytes, int]] = []

    def put(self, key: bytes, value: bytes) -> None:
        self.puts.append((bytes(key), len(value)))
        super().put(key, value)


class TestWork:
    def test_one_put_per_touched_list_per_group(self) -> None:
        store = CountingStore()
        ifile = InvertedFile.build([record(i) for i in range(40)],
                                   store=store)
        writer = IndexWriter(ifile)
        group = [record(i) for i in range(40, 45)]
        touched = {atom for _key, tree in group for atom in tree.all_atoms()}
        del store.puts[:]
        for key, tree in group:
            writer.insert(key, tree, flush_stats=False)
        assert store.puts == []             # insert() only buffers
        writer.flush()
        keys = [key for key, _size in store.puts]
        assert len(keys) == len(set(keys))  # nothing is put twice
        assert sum(key.startswith(b"A:") for key in keys) == len(touched)
        for prefix, expected in ((b"L:all:", 1), (b"L:zero:", 1),
                                 (b"N:", 1), (b"R:", 5), (b"K:", 5),
                                 (b"M:config", 1)):
            assert sum(key.startswith(prefix) for key in keys) == expected
        assert writer._postings == {} and writer._records == {} \
            and writer._meta == [] and writer._pending_all == []
        assert_healthy(ifile)

    def test_a_long_list_is_put_once_per_group(self) -> None:
        """A 5-record group hands a 10 000-posting list's value to
        ``put`` once (per-record appends: five times)."""
        store = CountingStore()
        ifile = InvertedFile.build(
            [(f"h{i}", N(["hot", f"x{i % 50}"])) for i in range(10_000)],
            store=store)
        del store.puts[:]
        writer = IndexWriter(ifile)
        writer.insert_many([(f"n{i}", N(["hot", f"fresh{i}"]))
                            for i in range(5)])
        hot = [size for key, size in store.puts if key == b"A:s:hot"]
        assert len(hot) == 1 and hot[0] > 10_000
        assert len(ifile.postings("hot")) == 10_005

    def test_insert_many_is_one_group(self) -> None:
        ifile = InvertedFile.build([record(i) for i in range(10)])
        writer = IndexWriter(ifile)
        assert writer.insert_many([record(10), record(11)]) == [10, 11]
        assert ifile._n_freq_deltas <= 1    # one delta, or one fold
        assert_healthy(ifile)


class TestOneStoreCall:
    """A group reaches the disk store as one ``put_many``: its lists,
    records and metadata, its statistics delta and ``M:config``.  Only a
    fold's key deletions and a delete's ``K:`` removal are calls of
    their own (``DiskHashTable.put`` is a ``put_many`` of one pair)."""

    @pytest.fixture
    def calls(self, monkeypatch) -> list[str]:
        from repro.storage.diskhash import DiskHashTable
        calls: list[str] = []
        put_many, delete = DiskHashTable.put_many, DiskHashTable.delete

        def counted_put_many(store, pairs) -> None:
            calls.append("put_many")
            put_many(store, pairs)

        def counted_delete(store, key) -> bool:
            calls.append("delete")
            return delete(store, key)

        monkeypatch.setattr(DiskHashTable, "put_many", counted_put_many)
        monkeypatch.setattr(DiskHashTable, "delete", counted_delete)
        return calls

    def test_build_insert_and_delete(self, tmp_path, calls) -> None:
        path = str(tmp_path / "ix.dh")
        index = NestedSetIndex.build([record(i) for i in range(40)],
                                     storage="diskhash", path=path)
        assert calls == ["put_many"]
        del calls[:]
        index.insert_batch([record(i) for i in range(40, 45)])
        assert calls == ["put_many"]
        del calls[:]
        assert index.delete(record(3)[0])
        assert calls == ["delete", "put_many"]
        del calls[:]
        # Groups until one folds the logs: its deletions, then one call.
        for i in range(45, 200):
            index.insert(*record(i))
            if calls != ["put_many"]:
                break
            del calls[:]
        assert calls.count("put_many") == 1 and calls[-1] == "put_many"
        assert set(calls) == {"delete", "put_many"}
        assert_healthy(index.inverted_file)
        index.close()

    def test_bounded_build_is_one_call_per_group(self, tmp_path,
                                                 monkeypatch,
                                                 calls) -> None:
        groups: list[int] = []
        append_group = IndexWriter._append_group

        def counted(writer) -> None:
            groups.append(1)
            append_group(writer)

        monkeypatch.setattr(IndexWriter, "_append_group", counted)
        NestedSetIndex.build_external(
            [record(i) for i in range(40)], memory_budget=50,
            storage="diskhash", path=str(tmp_path / "ix.dh")).close()
        assert len(groups) > 1
        assert calls == ["put_many"] * len(groups)


class TestDuplicateInsideAGroup:
    def test_raises_before_anything_is_written(self) -> None:
        store = CountingStore()
        ifile = InvertedFile.build([record(i) for i in range(10)],
                                   store=store)
        writer = IndexWriter(ifile)
        del store.puts[:]
        writer.insert("twice", N(["a"]), flush_stats=False)
        with pytest.raises(UpdateError):
            writer.insert("twice", N(["b"]), flush_stats=False)
        assert store.puts == []
        # The first record is still the open group's; flush writes it.
        writer.flush()
        assert ifile.ordinal_of_key("twice") == 10
        assert_healthy(ifile)

    def test_delete_sees_the_open_group(self) -> None:
        ifile = InvertedFile.build([record(i) for i in range(10)])
        writer = IndexWriter(ifile)
        writer.insert("fresh", N(["a"]), flush_stats=False)
        assert writer.delete("fresh") is True
        assert ifile.ordinal_of_key("fresh") is None
        assert_healthy(ifile)

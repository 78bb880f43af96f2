"""One writer of the index layout (``repro.core.updates``).

``InvertedFile.build``, ``build_external`` and a commit group all call
one group append, and appending to a list is byte for byte encoding it
whole -- so *any* split of a record stream into consecutive groups must
leave the same store:

* written by builds alone (one group, or bounded at any budget) the
  sorted ``(key, value)`` dump is identical, statistics and
  configuration included;
* continued with ``insert_batch`` slices every layout key is still
  identical; the grouping shows only where a commit is meant to show it
  (the statistics delta log and the configuration that counts it), and
  the merged statistics are equal.

The stream has nodes without atoms (ZERO list), crosses a 4 096-posting
ALL block and several 512-entry metadata blocks, and spills the hot
lists over many posting blocks.  Needs hypothesis (it runs in the
crash-consistency CI job).
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings, \
    strategies as st

from repro.core.bulkload import build_external
from repro.core.checker import assert_healthy
from repro.core.engine import NestedSetIndex
from repro.core.invfile import InvertedFile, LIST_BLOCK, META_BLOCK
from repro.core.model import NestedSet
from repro.core.updates import IndexWriter, UpdateError, write_index
from repro.storage.codec import DEFAULT_BLOCK_SIZE
from repro.storage.kvstore import MemoryKVStore

N = NestedSet

N_RECORDS = 900
STORAGES = ("memory", "diskhash", "btree")
BLOCK_SIZES = (DEFAULT_BLOCK_SIZE, 32)
#: how the first group(s) are written: one build, or a bounded one
HEADS = ("build", 64, 1_000, 10_000)


def record(i: int) -> tuple[str, NestedSet]:
    """Record ``i``: one to seven nodes, hot and unique atoms, an int
    atom, a node without leaves and a three-level path."""
    atoms = [f"a{i % 7}", f"b{i % 13}", "common", i]
    if i % 5 == 0:
        return f"r{i:04d}", N(atoms)
    children = [N([f"c{i % 5}"], [N([f"d{i % 11}", "deep"])]),
                N([], [N(["leafless", f"e{i % 3}"])])]
    if i % 3:
        children.append(N([f"u{i}", "common"], [N([], [N(["deep"])])]))
    return f"r{i:04d}", N(atoms, children)


RECORDS = [record(i) for i in range(N_RECORDS)]
_REFERENCE: dict[int, InvertedFile] = {}


def reference(block_size: int) -> InvertedFile:
    """What a one-group build writes (memoized per block size)."""
    if block_size not in _REFERENCE:
        built = InvertedFile.build(RECORDS, block_size=block_size)
        assert built.n_nodes > LIST_BLOCK + META_BLOCK
        assert built._n_zero_blocks == 1
        _REFERENCE[block_size] = built
    return _REFERENCE[block_size]


def is_layout(key: bytes) -> bool:
    """Keys a commit group writes exactly as a build does: everything
    but the statistics tables, their delta logs and the configuration."""
    return not key.startswith(b"M:")


@st.composite
def splits(draw):
    cuts = draw(st.lists(st.integers(1, N_RECORDS - 1), max_size=4,
                         unique=True).map(sorted))
    return (draw(st.sampled_from(STORAGES)),
            draw(st.sampled_from(BLOCK_SIZES)),
            draw(st.sampled_from(HEADS)), cuts)


class TestAnySplitIsTheSameIndex:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(splits())
    # a cut on the record that crosses the ALL block, and one beside it
    @example(("diskhash", 32, 64, [706, 707]))
    @example(("btree", DEFAULT_BLOCK_SIZE, "build", [1, N_RECORDS - 1]))
    @example(("memory", 32, 10_000, []))
    def test_store_dump(self, split) -> None:
        storage, block_size, head, cuts = split
        whole = reference(block_size)
        expect = dict(whole.store.items())
        with tempfile.TemporaryDirectory() as scratch:
            path = None if storage == "memory" else \
                os.path.join(scratch, "index")
            first = RECORDS[:cuts[0]] if cuts else RECORDS
            if head == "build":
                index = NestedSetIndex.build(
                    first, storage=storage, path=path,
                    block_size=block_size)
            else:
                index = NestedSetIndex.build_external(
                    first, storage=storage, path=path,
                    block_size=block_size, memory_budget=head)
            try:
                for start, end in zip(cuts, cuts[1:] + [N_RECORDS]):
                    index.insert_batch(RECORDS[start:end])
                ifile = index.inverted_file
                got = dict(ifile.store.items())
                if not cuts:
                    assert got == expect
                layout = {key: value for key, value in got.items()
                          if is_layout(key)}
                assert layout == {key: value
                                  for key, value in expect.items()
                                  if is_layout(key)}
                assert ifile.frequencies() == whole.frequencies()
                assert (ifile.n_records, ifile.n_nodes,
                        ifile._n_all_blocks, ifile._n_zero_blocks) == \
                    (whole.n_records, whole.n_nodes,
                     whole._n_all_blocks, whole._n_zero_blocks)
                assert_healthy(ifile)
            finally:
                index.close()

    @pytest.mark.parametrize("budget", [1, 64, 1_000, 10_000])
    def test_bounded_build_is_the_build(self, budget) -> None:
        built = build_external(RECORDS, memory_budget=budget)
        assert dict(built.store.items()) == \
            dict(reference(DEFAULT_BLOCK_SIZE).store.items())


class TestBoundedBuffer:
    @pytest.mark.parametrize("budget", [1, 64, 1_000])
    def test_buffer_never_exceeds_the_budget_by_more_than_a_record(
            self, monkeypatch, budget) -> None:
        one_record = max(sum(len(node.atoms) for node in tree.iter_sets())
                         for _key, tree in RECORDS)
        seen: list[int] = []
        append_group = IndexWriter._append_group

        def spy(writer) -> None:
            resident = sum(map(len, writer._postings.values()))
            assert resident == writer._buffered
            seen.append(resident)
            append_group(writer)

        monkeypatch.setattr(IndexWriter, "_append_group", spy)
        build_external(RECORDS, memory_budget=budget)
        total = sum(seen)
        assert len(seen) > total // (budget + one_record)
        assert max(seen) <= budget + one_record
        assert all(size > budget for size in seen[:-1])


DUPLICATED = [("a", "{x, {y}}"), ("a", "{x, {z}}"), ("b", "{x}")]


class TestBuildersRefuseWhatInsertBatchRefuses:
    def test_build(self) -> None:
        with pytest.raises(UpdateError, match="'a'"):
            NestedSetIndex.build(DUPLICATED)
        store = MemoryKVStore()
        with pytest.raises(UpdateError):
            InvertedFile.build(DUPLICATED, store=store)
        assert list(store.keys()) == []         # nothing of the group

    def test_build_external(self) -> None:
        with pytest.raises(UpdateError, match="'a'"):
            NestedSetIndex.build_external(DUPLICATED, memory_budget=1)
        store = MemoryKVStore()
        with pytest.raises(UpdateError):
            write_index(DUPLICATED, store=store, memory_budget=1)
        # the first record's group was written, the refused one was not
        assert store.get(b"K:a") is not None
        assert store.get(b"K:b") is None and store.get(b"M:config") is None
        assert len([key for key in store.keys()
                    if key.startswith(b"R:")]) == 1

    def test_insert_batch(self) -> None:
        with NestedSetIndex.build([]) as index:
            with pytest.raises(UpdateError, match="'a'"):
                index.insert_batch(DUPLICATED)
            assert index.n_records == 0
            assert index.query("{x}") == []
            index.insert_batch(DUPLICATED[1:])
            assert index.query("{x}") == ["a", "b"]

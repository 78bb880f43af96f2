"""A commit carries its warm lists forward.

When an insert group appends to a list whose stored bytes are those of
the list the block cache holds at the committed version, the engine
admits, once the group has landed, under the new epoch's key a list
derived from the warm one: its directory moved by what the append
changed, its head column extended, its gallop count kept, its unchanged
decoded blocks shared and its changed ones built from the appended
entries, so its first read decodes nothing the warm one held.
A hypothesis script runs insert groups on 1 and 4 partitions -- some
refused by a duplicate key, some with snapshots pinned before them,
some followed by reads of the live files -- and after every group holds
each carried list to the list a reader would build from the store
value, every answer to the naive oracle and every pinned snapshot to
its own version.  A cached list that is not the store value is never
built on, and a live read after a refused group is never served to a
later commit's readers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import ABSENT
from repro.core.engine import NestedSetIndex, Partition
from repro.core.invfile import _atom_store_key, atom_token
from repro.core.model import NestedSet
from repro.core.naive import reference_query
from repro.core.postings import LazyPostingList, PostingList, intersect
from repro.core.shard import shard_of
from repro.core.updates import UpdateError
from repro.storage.codec import encode_blocked

#: ``fresh`` is in no built record: its key is cached absent until a
#: group brings it in.
ATOMS = ("hot", "a0", "a1", "a2", "a3", "fresh")
QUERIES = ["{hot}", "{hot, a1}", "{a0, {hot}}", "{hot, {a2, hot}}",
           "{fresh}", "{a3, {fresh}}", "{hot, {hot}}"]
#: Small blocks: the hot list spans dozens of them, so appends fill
#: tails, open fresh blocks and shift the kept ones.
BLOCK_SIZE = 4


def _tree(outer: str, inner: str) -> NestedSet:
    return NestedSet.parse(f"{{hot, {outer}, {{hot, {inner}}}}}")


BUILT = [(f"r{i:03d}", _tree(ATOMS[1 + i % 4], ATOMS[1 + (i * 3) % 4]))
         for i in range(48)]


def _keys(partition: Partition, version: int):
    """Per token, the list key a reader at ``version`` uses."""
    return {token: (token, partition._epochs.floor(token, version))
            for token in map(atom_token, ATOMS)}


def _held(index) -> list[dict]:
    """Per partition, what the block cache holds per token at the
    committed version."""
    version = index.base_store.current_version()
    return [{token: part.inverted_file.block_cache.directory(key)
             for token, key in _keys(part, version).items()}
            for part in index.shards]


def _warm(index, columns: bool) -> None:
    """Warm every list (and, with ``columns``, its head column)."""
    index.query_batch([f"{{{atom}}}" for atom in ATOMS])
    if columns:
        for held in _held(index):
            for plist in held.values():
                if isinstance(plist, LazyPostingList):
                    plist.heads_array()


def _read_live(index) -> None:
    """Read every list through each partition's live inverted file (the
    path of ``check`` and ``similar``), which leaves nothing in the
    cache, and hold it to the store value."""
    for part in index.shards:
        ifile = part.inverted_file
        for atom in ATOMS:
            raw = ifile.store.get(_atom_store_key(atom))
            got = ifile.postings(atom)
            want = () if raw is None else LazyPostingList(raw).entries
            assert tuple(got.entries) == want


def _stored_lists(index) -> list[dict]:
    """Per partition, the stored value of every list."""
    return [{atom: part.inverted_file.store.get(_atom_store_key(atom))
             for atom in ATOMS} for part in index.shards]


def _same_list(carried: LazyPostingList, raw: bytes) -> None:
    """``carried`` is what a reader would build from ``raw``: the same
    directory, block columns, head column and entries (the entries are
    read off the blocks, so ``carried`` builds no rows of its own)."""
    fresh = LazyPostingList(raw)
    assert carried.raw == raw
    assert carried.header == fresh.header
    assert carried.directory.starts == fresh.directory.starts
    assert np.array_equal(carried.directory.max_heads,
                          fresh.directory.max_heads)
    rows = []
    for number in range(fresh.n_blocks):
        mine, theirs = carried.block_data(number), fresh.block_data(number)
        assert np.array_equal(mine.heads, theirs.heads)
        assert np.array_equal(mine.counts, theirs.counts)
        assert np.array_equal(mine.children, theirs.children)
        rows.extend(mine.postings)
    assert tuple(rows) == fresh.entries
    if carried._heads_arr is not None:
        assert np.array_equal(carried._heads_arr, fresh.heads_array())


def _same_admitted(carried: LazyPostingList, raw: bytes) -> None:
    """Every block the carried list's key holds before any decode --
    shared, or built from the appended entries -- is the block a reader
    would decode from ``raw``; the changed ones are there when the
    predecessor's tail was."""
    fresh = LazyPostingList(raw)
    cache, key = carried._cache, carried._cache_key
    admitted = 0
    for number in range(carried.n_blocks):    # derives the carried list
        block = cache.get((key, number))
        if block is None:
            continue
        want = fresh.block_data(number)
        assert np.array_equal(block.heads, want.heads)
        assert np.array_equal(block.counts, want.counts)
        assert np.array_equal(block.children, want.children)
        admitted += 1
    assert admitted


def _answers(records) -> list[list[str]]:
    return [reference_query(records, NestedSet.parse(query))
            for query in QUERIES]


def _duplicate_for(index, group) -> tuple[str, NestedSet]:
    """A built record's key routed to another partition than the group's
    first record, so on 4 partitions a slice is written before the
    duplicate is refused."""
    n_shards = index.n_shards
    first = shard_of(group[0][0], n_shards)
    for key, tree in BUILT:
        if n_shards == 1 or shard_of(key, n_shards) != first:
            return key, tree
    raise AssertionError("no built key on another partition")


GROUP = st.tuples(
    st.lists(st.tuples(st.sampled_from(ATOMS[1:]), st.sampled_from(ATOMS)),
             min_size=1, max_size=6),
    st.booleans(),      # refused by a duplicate key
    st.booleans(),      # pin a snapshot before the group
    st.booleans(),      # build the warm lists' head columns first
    st.booleans(),      # read the live files after the group
)


@settings(max_examples=25, deadline=None)
@given(shards=st.sampled_from([1, 4]),
       script=st.lists(GROUP, min_size=1, max_size=5))
def test_commits_carry_warm_lists_forward(shards, script) -> None:
    index = NestedSetIndex.build(BUILT, shards=shards, block_size=BLOCK_SIZE)
    live = list(BUILT)
    pinned = []
    try:
        for number, (atoms, refused, pin, columns, live_read) \
                in enumerate(script):
            _warm(index, columns)
            if pin:
                pinned.append((index.snapshot(), _answers(live),
                               _held(index)))
            group = [(f"g{number}.{i}", _tree(outer, inner))
                     for i, (outer, inner) in enumerate(atoms)]
            before = index.base_store.current_version()
            warm = _held(index)
            if refused:
                group.append(_duplicate_for(index, group))
                with pytest.raises(UpdateError):
                    index.insert_batch(group)
                _check_aborted(index, before, warm)
            else:
                index.insert_batch(group)
                live += group
                assert index.base_store.current_version() == before + 1
                _check_carried(index, group, warm)
            if live_read:
                _read_live(index)
            assert [index.query(query) for query in QUERIES] \
                == _answers(live)
            for snap, expected, held in pinned:
                _check_pinned(snap, expected, held)
    finally:
        for snap, _expected, _held_lists in pinned:
            snap.close()
        index.close()


def _check_aborted(index, before: int, warm: list[dict]) -> None:
    """A refused group put nothing under the epochs it bumped: what the
    cache holds under a reader's key at the next version is, if
    anything, a live read's copy of the committed value, and each
    token's list at the committed epoch is still the one it held."""
    for part, held in zip(index.shards, warm):
        cache = part.inverted_file.block_cache
        old_keys = _keys(part, before)
        for token, key in _keys(part, before + 1).items():
            plist = cache.directory(key)
            if key == old_keys[token] or plist is None:
                continue
            raw = part.inverted_file.store.get(
                _atom_store_key(token.partition(":")[2]))
            assert (plist is ABSENT and raw is None) or plist.raw == raw
    for now, then in zip(_held(index), warm):
        assert all(now[token] is then[token] for token in then)


def _check_carried(index, group, warm: list[dict]) -> None:
    """Every touched list the cache held as a list was carried
    forward."""
    version = index.base_store.current_version()
    for number, (part, held) in enumerate(zip(index.shards, warm)):
        cache = part.inverted_file.block_cache
        keys = _keys(part, version)
        touched = {atom_token(atom) for key, tree in group
                   if shard_of(key, index.n_shards) == number
                   for node in tree.iter_sets() for atom in node.atoms}
        for token in touched:
            old = held[token]
            store_key = _atom_store_key(token.partition(":")[2])
            if not isinstance(old, LazyPostingList):
                continue
            carried = cache.directory(keys[token])
            assert isinstance(carried, LazyPostingList)
            assert carried is not old
            # Blocks the predecessor has cached, all but its tail, are
            # the carried list's too: the same objects.
            shared = {number: cache.get((old._cache_key, number))
                      for number in range(old.n_blocks - 1)}
            assert (carried._heads_arr is None) == (old._heads_arr is None)
            assert carried._galloped == old._galloped
            raw = part.inverted_file.store.get(store_key)
            _same_admitted(carried, raw)
            for number, block in shared.items():
                if block is not None:
                    assert cache.get((keys[token], number)) is block
            _same_list(carried, raw)


def _check_pinned(snap, expected, held: list[dict]) -> None:
    """A snapshot pinned before later commits answers as it did, from
    the lists of its own epoch."""
    assert [snap.query(query) for query in QUERIES] == expected
    for view, lists in zip(snap.views, held):
        for token, plist in lists.items():
            got = view.inverted_file.postings(token.partition(":")[2])
            if isinstance(plist, LazyPostingList):
                assert got is plist or got.raw == plist.raw
            elif plist is ABSENT:
                assert len(got) == 0


@pytest.mark.parametrize("shards", [1, 4])
def test_a_reader_that_filled_the_new_key_first_keeps_it(monkeypatch,
                                                        shards) -> None:
    """A reader at the new version that fetched the lists from the
    store before the carry keeps its entries: the carry admits nothing
    under a key already held."""
    index = NestedSetIndex.build(BUILT, shards=shards, block_size=BLOCK_SIZE)
    _warm(index, columns=True)
    filled: dict[tuple, LazyPostingList] = {}
    end_group = Partition.end_group

    def reader_first(partition, landed):
        if landed:
            number = index.shards.index(partition)
            with index.snapshot() as snap:
                ifile = snap.views[number].inverted_file
                for token, key in _keys(partition,
                                        snap.version).items():
                    plist = ifile.postings(token.partition(":")[2])
                    if isinstance(plist, LazyPostingList):
                        filled[number, key] = plist
        end_group(partition, landed)

    monkeypatch.setattr(Partition, "end_group", reader_first)
    group = [(f"n{i}", _tree("a1", "a2")) for i in range(12)]
    index.insert_batch(group)
    assert filled
    for (number, key), plist in filled.items():
        cache = index.shards[number].inverted_file.block_cache
        assert cache.directory(key) is plist
    assert [index.query(query) for query in QUERIES] \
        == _answers(BUILT + group)
    index.close()


def test_a_cold_list_carries_nothing() -> None:
    """A list the cache does not hold at the committed version is
    carried nowhere: its first reader fetches it."""
    index = NestedSetIndex.build(BUILT, block_size=BLOCK_SIZE)
    part = index.shards[0]
    index.insert_batch([("n0", _tree("a1", "a2"))])
    keys = _keys(part, index.base_store.current_version())
    assert part.inverted_file.block_cache.directory(keys["s:hot"]) is None
    index.close()


def test_a_cached_list_that_is_not_the_store_value_is_not_built_on(
) -> None:
    """The writer appends to the store value, and carries a warm list
    only when its bytes are that value: a list cached under the
    committed key with other bytes (a racing live read can leave one)
    is neither appended to nor carried."""
    index = NestedSetIndex.build(BUILT, block_size=BLOCK_SIZE)
    part = index.shards[0]
    cache = part.inverted_file.block_cache
    key = _keys(part, index.base_store.current_version())["s:hot"]
    stale = LazyPostingList(encode_blocked(
        LazyPostingList(part.inverted_file.store.get(
            _atom_store_key("hot"))).entries[:-3], BLOCK_SIZE),
        cache=cache, cache_key=key)
    cache.admit_directory(key, stale)
    group = [(f"n{i}", _tree("a1", "a2")) for i in range(3)]
    index.insert_batch(group)
    new_key = _keys(part, index.base_store.current_version())["s:hot"]
    assert cache.directory(new_key) is None
    fresh = NestedSetIndex.build(BUILT + group, block_size=BLOCK_SIZE)
    assert _stored_lists(index) == _stored_lists(fresh)
    assert [index.query(query) for query in QUERIES] \
        == _answers(BUILT + group)
    fresh.close()
    index.close()


def test_a_live_read_after_a_refused_group_is_not_served_or_built_on(
) -> None:
    """A refused group on 4 partitions bumped the epochs of the lists
    its written slice touched.  Live reads after it leave nothing
    cached, so the next two groups into those lists leave the stored
    lists a build of the same records leaves, and every answer stays
    the naive oracle's."""
    index = NestedSetIndex.build(BUILT, shards=4, block_size=BLOCK_SIZE)
    _warm(index, columns=True)
    refused = [("x0", _tree("a1", "a2"))]
    refused.append(_duplicate_for(index, refused))
    with pytest.raises(UpdateError):
        index.insert_batch(refused)
    _read_live(index)
    live = list(BUILT)
    for number in range(2):
        _warm(index, columns=False)
        group = [(f"n{number}.{i}", _tree("a1", "a2")) for i in range(6)]
        index.insert_batch(group)
        live += group
        assert [index.query(query) for query in QUERIES] == _answers(live)
        _read_live(index)
    fresh = NestedSetIndex.build(live, shards=4, block_size=BLOCK_SIZE)
    assert _stored_lists(index) == _stored_lists(fresh)
    fresh.close()
    index.close()


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("tail_cached", [True, False])
def test_a_carried_list_decodes_only_a_tail_it_lost(shards,
                                                    tail_cached) -> None:
    """The blocks an append changed are built from the appended entries
    and the predecessor's cached tail: with every block of the warm
    lists cached, the first read after the commit decodes nothing; with
    the old tail evicted, it decodes that one block per list."""
    built = BUILT[:-1]      # an odd record count leaves a partial tail
    index = NestedSetIndex.build(built, shards=shards, block_size=BLOCK_SIZE)
    _warm(index, columns=False)
    lost = 0
    for held in _held(index):
        hot = held["s:hot"]
        cache = hot._cache
        assert all(cache.get((hot._cache_key, number)) is not None
                   for number in range(hot.n_blocks))
        if not tail_cached and hot.header.blocks[-1].count < BLOCK_SIZE:
            del cache._blocks[hot._cache_key, hot.n_blocks - 1]
            lost += 1
    group = [(f"n{i}", _tree("a1", "a2")) for i in range(9)]
    index.insert_batch(group)
    index.reset_stats()
    assert index.query("{hot, {hot}}") == _answers(built + group)[6]
    stats = index.stats()["index"]
    assert stats["list_fetches"] == 0
    assert stats["blocks_read"] == lost
    assert lost or tail_cached
    index.close()


def test_a_carried_list_keeps_its_gallop_count() -> None:
    """The gallops a warm list has had count toward its successor's
    head column: a list half galloped before a commit is carried half
    galloped, and bought as soon as its gallops reach its new block
    count."""
    index = NestedSetIndex.build(BUILT, block_size=BLOCK_SIZE)
    part = index.shards[0]
    with index.snapshot() as snap:
        hot = snap.views[0].inverted_file.postings("hot")
        for info in hot.header.blocks[:hot.n_blocks // 2]:
            intersect([hot, PostingList([(info.min_head, ())])])
    assert hot._heads_arr is None and hot._galloped == hot.n_blocks // 2
    index.insert_batch([(f"n{i}", _tree("a1", "a2")) for i in range(9)])
    key = _keys(part, index.base_store.current_version())["s:hot"]
    carried = part.inverted_file.block_cache.directory(key)
    assert carried is not hot and carried._galloped == hot._galloped
    blocks = carried.header.blocks
    for info in blocks[:carried.n_blocks - carried._galloped]:
        intersect([carried, PostingList([(info.min_head, ())])])
    assert carried._heads_arr is None
    intersect([carried, PostingList([(blocks[-1].max_head, ())])])
    assert carried._heads_arr is not None
    index.close()

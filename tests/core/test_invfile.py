"""Tests for the nested-set inverted file (Section 2, Table 2)."""

from __future__ import annotations

import pytest

from repro.core.invfile import (
    InvertedFile,
    InvertedFileError,
    _FLAG_ROOT,
    _META_ENTRY,
    atom_from_token,
    atom_token,
    number_record,
)
from repro.core.model import NestedSet


@pytest.fixture
def paper_index(paper_records) -> InvertedFile:
    return InvertedFile.build(paper_records)


class TestAtomTokens:
    def test_roundtrip(self) -> None:
        for atom in ("UK", "", "i:tricky", 42, -7):
            assert atom_from_token(atom_token(atom)) == atom

    def test_int_str_disjoint(self) -> None:
        assert atom_token(1) != atom_token("1")

    def test_bool_rejected(self) -> None:
        with pytest.raises(TypeError):
            atom_token(True)

    def test_bad_token(self) -> None:
        with pytest.raises(InvertedFileError):
            atom_from_token("x:whatever")


class TestNumberRecord:
    """The one walk behind build, bulk load and insert."""

    def test_preorder_ids_in_canonical_child_order(self) -> None:
        N = NestedSet
        tree = N(["r"], [N(["z"]), N(["a"], [N(["k"]), N([], [N(["b"])])]),
                         N([])])
        nodes, meta, text = number_record(tree, 7, 100)
        assert text == tree.to_text() == "{r, {a, {k}, {{b}}}, {z}, {}}"
        by_id = {posting[0]: (atoms, posting[1]) for atoms, posting in nodes}
        # preorder over children sorted by canonical text
        assert by_id == {
            100: (frozenset(["r"]), (101, 105, 106)),
            101: (frozenset(["a"]), (102, 103)),
            102: (frozenset(["k"]), ()),
            103: (frozenset(), (104,)),
            104: (frozenset(["b"]), ()),
            105: (frozenset(["z"]), ()),
            106: (frozenset(), ()),
        }
        # listed as the walk completes them: a node after its descendants
        assert [posting[0] for _atoms, posting in nodes] == \
            [102, 104, 103, 101, 105, 106, 100]
        assert [_META_ENTRY.unpack(entry) for entry in meta] == [
            (7, 1, 106, _FLAG_ROOT), (7, 1, 104, 0), (7, 1, 102, 0),
            (7, 0, 104, 0), (7, 1, 104, 0), (7, 1, 105, 0), (7, 0, 106, 0)]

    def test_a_deep_path_is_serialised_once_per_node(self) -> None:
        tree = NestedSet(["leaf"])
        for depth in range(200):
            tree = NestedSet([f"d{depth}"], [tree])
        nodes, meta, text = number_record(tree, 0, 0)
        assert len(nodes) == len(meta) == 201
        assert text == tree.to_text()
        assert [posting for _atoms, posting in nodes][-1] == (0, (1,))


class TestBuildStructure:
    def test_counts(self, paper_index: InvertedFile) -> None:
        # Figure 1: Sue has 4 internal nodes (root, two second-level sets,
        # two third-level sets)... counted from the actual example trees.
        assert paper_index.n_records == 2
        total_internal = sum(
            tree.internal_count
            for _o, _k, _r, tree in paper_index.iter_records())
        assert paper_index.n_nodes == total_internal

    def test_table2_key_space(self, paper_index: InvertedFile) -> None:
        atoms = set(paper_index.iter_atoms())
        assert atoms == {"London", "UK", "A", "B", "C", "car", "motorbike",
                         "Boston", "USA", "VA"}

    def test_posting_lists_match_leaf_locations(
            self, paper_index: InvertedFile, paper_records) -> None:
        # Every atom's posting count equals the number of internal nodes
        # that own a leaf with that atom, across the collection.
        expected: dict = {}
        for _key, tree in paper_records:
            for node in tree.iter_sets():
                for atom in node.atoms:
                    expected[atom] = expected.get(atom, 0) + 1
        for atom, count in expected.items():
            assert len(paper_index.postings(atom)) == count

    def test_postings_sorted_with_sorted_children(
            self, paper_index: InvertedFile) -> None:
        for atom in paper_index.iter_atoms():
            plist = paper_index.postings(atom)
            heads = [p for p, _ in plist]
            assert heads == sorted(heads)
            for _p, children in plist:
                assert list(children) == sorted(children)

    def test_children_are_internal_nodes(self, paper_index) -> None:
        all_ids = set(range(paper_index.n_nodes))
        for atom in paper_index.iter_atoms():
            for p, children in paper_index.postings(atom):
                assert p in all_ids
                assert set(children) <= all_ids

    def test_missing_atom_empty_list(self, paper_index) -> None:
        assert len(paper_index.postings("Narnia")) == 0

    def test_config_required(self) -> None:
        from repro.storage import MemoryKVStore
        with pytest.raises(InvertedFileError):
            InvertedFile(MemoryKVStore())


class TestNodeMeta:
    def test_preorder_intervals(self, paper_index: InvertedFile) -> None:
        # Node ids are preorder ranks: every node's interval must nest
        # inside its record root's interval.
        for ordinal in range(paper_index.n_records):
            _key, root_id, tree = paper_index.record(ordinal)
            root_meta = paper_index.meta(root_id)
            assert root_meta.is_root
            assert root_meta.max_desc - root_id + 1 == tree.internal_count
            for node_id in range(root_id + 1, root_meta.max_desc + 1):
                meta = paper_index.meta(node_id)
                assert meta.record == ordinal
                assert not meta.is_root
                assert node_id <= meta.max_desc <= root_meta.max_desc

    def test_leaf_counts(self, paper_index: InvertedFile) -> None:
        # Sum of leaf counts over all nodes == total leaves in collection.
        total = sum(paper_index.leaf_count(node_id)
                    for node_id in range(paper_index.n_nodes))
        expected = sum(tree.leaf_count
                       for _o, _k, _r, tree in paper_index.iter_records())
        assert total == expected

    def test_out_of_range(self, paper_index: InvertedFile) -> None:
        with pytest.raises(InvertedFileError):
            paper_index.meta(-1)
        with pytest.raises(InvertedFileError):
            paper_index.meta(paper_index.n_nodes)


class TestRecords:
    def test_record_roundtrip(self, paper_index, paper_records) -> None:
        stored = {key: tree
                  for _o, key, _r, tree in paper_index.iter_records()}
        assert stored == dict(paper_records)

    def test_record_key(self, paper_index) -> None:
        assert paper_index.record_key(0) == "sue"
        assert paper_index.record_key(1) == "tim"
        with pytest.raises(InvertedFileError):
            paper_index.record(99)

    def test_heads_to_keys_root_mode(self, paper_index) -> None:
        _key, tim_root, _tree = paper_index.record(1)
        inner = tim_root + 1  # some non-root node of tim's record
        assert paper_index.heads_to_keys({tim_root, inner}) == ["tim"]
        assert paper_index.heads_to_keys({inner}) == []

    def test_heads_to_keys_anywhere_mode(self, paper_index) -> None:
        _key, tim_root, _tree = paper_index.record(1)
        assert paper_index.heads_to_keys({tim_root + 1},
                                         mode="anywhere") == ["tim"]


class TestSpecialLists:
    def test_all_nodes_complete(self, paper_index) -> None:
        all_list = paper_index.all_nodes()
        assert len(all_list) == paper_index.n_nodes
        assert [p for p, _ in all_list] == list(range(paper_index.n_nodes))

    def test_zero_leaf_nodes(self) -> None:
        records = [("r", NestedSet(["a"], [NestedSet()]))]
        index = InvertedFile.build(records)
        zero = index.zero_leaf_nodes()
        assert len(zero) == 1
        assert index.leaf_count(zero.entries[0][0]) == 0


class TestFrequenciesAndCache:
    def test_frequencies_descending(self, paper_index) -> None:
        freqs = paper_index.frequencies()
        counts = [df for _atom, df in freqs]
        assert counts == sorted(counts, reverse=True)
        # UK occurs in four sets: Sue's root, Sue's two license sets, and
        # Tim's UK license set.
        assert dict(freqs)["UK"] == 4

    def test_cache_hit_skips_store(self, paper_records) -> None:
        index = InvertedFile.build(paper_records)
        index.set_cache("frequency", 16)
        index.reset_stats()
        first = index.postings("UK")
        second = index.postings("UK")
        assert first == second
        assert index.stats.list_fetches == 1
        assert index.stats.directory_hits == 1
        assert index.block_cache.stats.hits == 1


class TestDiskRoundtrip:
    @pytest.mark.parametrize("kind", ["diskhash", "btree"])
    def test_build_close_reopen(self, kind, tmp_path, paper_records) -> None:
        path = str(tmp_path / f"ix.{kind}")
        built = InvertedFile.build(paper_records, storage=kind, path=path)
        uk_postings = built.postings("UK")
        built.close()
        reopened = InvertedFile.open(kind, path)
        assert reopened.n_records == 2
        assert reopened.postings("UK") == uk_postings
        assert reopened.record_key(1) == "tim"
        reopened.close()

"""Tests for the external-memory B+tree."""

from __future__ import annotations

import random

import pytest

from repro.storage.btree import BPlusTree
from repro.storage.errors import KeyTooLargeError


@pytest.fixture
def tree(tmp_path) -> BPlusTree:
    t = BPlusTree(str(tmp_path / "t.bt"), create=True, page_size=512)
    yield t
    if not t._closed:
        t.close()


class TestBasicOps:
    def test_get_missing(self, tree: BPlusTree) -> None:
        assert tree.get(b"nope") is None

    def test_put_get(self, tree: BPlusTree) -> None:
        tree.put(b"k", b"v")
        assert tree.get(b"k") == b"v"
        assert len(tree) == 1

    def test_replace_keeps_count(self, tree: BPlusTree) -> None:
        tree.put(b"k", b"v1")
        tree.put(b"k", b"v2")
        assert tree.get(b"k") == b"v2"
        assert len(tree) == 1

    def test_delete(self, tree: BPlusTree) -> None:
        tree.put(b"k", b"v")
        assert tree.delete(b"k") is True
        assert tree.get(b"k") is None
        assert tree.delete(b"k") is False
        assert len(tree) == 0

    def test_key_too_large(self, tree: BPlusTree) -> None:
        with pytest.raises(KeyTooLargeError):
            tree.put(b"x" * 600, b"v")


class TestSplitsAndOrder:
    def test_many_sequential_keys_split_leaves(self, tree: BPlusTree) -> None:
        # 512-byte pages force plenty of leaf and internal splits.
        for i in range(800):
            tree.put(f"key{i:05d}".encode(), f"value{i}".encode())
        for i in range(800):
            assert tree.get(f"key{i:05d}".encode()) == f"value{i}".encode()
        assert len(tree) == 800

    def test_random_insert_order(self, tree: BPlusTree) -> None:
        keys = [f"k{i:04d}".encode() for i in range(500)]
        rng = random.Random(5)
        shuffled = keys[:]
        rng.shuffle(shuffled)
        for key in shuffled:
            tree.put(key, key[::-1])
        assert [key for key, _value in tree.items()] == sorted(keys)

    def test_items_sorted(self, tree: BPlusTree) -> None:
        for key in (b"mango", b"apple", b"pear", b"banana"):
            tree.put(key, b"x")
        assert [key for key, _ in tree.items()] == \
            [b"apple", b"banana", b"mango", b"pear"]

    def test_range_scan(self, tree: BPlusTree) -> None:
        for i in range(100):
            tree.put(f"{i:03d}".encode(), str(i).encode())
        got = [key for key, _ in tree.range(b"010", b"020")]
        assert got == [f"{i:03d}".encode() for i in range(10, 20)]

    def test_range_open_ended(self, tree: BPlusTree) -> None:
        for i in range(20):
            tree.put(f"{i:02d}".encode(), b"v")
        got = [key for key, _ in tree.range(b"15")]
        assert got == [f"{i:02d}".encode() for i in range(15, 20)]


class TestSplitBySize:
    """A leaf is split where its bytes halve, not where its entries do:
    runs of seven inline values just under the overflow threshold,
    side by side among one-byte ones, used to leave a half that "does
    not fit a page"."""

    @pytest.mark.parametrize("order", ["ascending", "descending",
                                       "shuffled"])
    def test_big_inline_values_side_by_side(self, tmp_path, order) -> None:
        path = str(tmp_path / "big.bt")
        tree = BPlusTree(path, create=True)
        big = tree._overflow_threshold - 4          # stays inline
        model = {f"k{i:04d}".encode():
                 bytes([i % 251]) * (big if i % 16 >= 9 else 1)
                 for i in range(400)}
        keys = sorted(model)
        if order == "descending":
            keys.reverse()
        elif order == "shuffled":
            random.Random(11).shuffle(keys)
        for key in keys:
            tree.put(key, model[key])
        for reopened in (False, True):
            if reopened:
                tree.close()
                tree = BPlusTree(path)
            assert len(tree) == len(model)
            assert list(tree.items()) == sorted(model.items())
            assert all(tree.get(key) == value
                       for key, value in model.items())
        tree.close()

    def test_long_keys_side_by_side(self, tree: BPlusTree) -> None:
        """The same for an internal node: runs of sixty long separator
        keys among short ones (512-byte pages)."""
        model = {(b"k%05d" % i) + b"x" * (240 if i % 128 >= 68 else 0):
                 b"v%d" % i for i in range(4000)}
        for key in sorted(model):
            tree.put(key, model[key])
        assert len(tree) == len(model)
        assert list(tree.items()) == sorted(model.items())


class TestLargeValuesAndPersistence:
    def test_overflow_value(self, tree: BPlusTree) -> None:
        big = bytes(range(256)) * 40
        tree.put(b"big", big)
        assert tree.get(b"big") == big

    def test_reopen(self, tmp_path) -> None:
        path = str(tmp_path / "p.bt")
        tree = BPlusTree(path, create=True, page_size=512)
        for i in range(300):
            tree.put(f"k{i:04d}".encode(), f"v{i}".encode())
        tree.close()
        reopened = BPlusTree(path)
        assert len(reopened) == 300
        assert reopened.get(b"k0123") == b"v123"
        assert [k for k, _ in reopened.items()][:3] == \
            [b"k0000", b"k0001", b"k0002"]
        reopened.close()

    def test_fuzz_against_dict(self, tmp_path) -> None:
        rng = random.Random(77)
        tree = BPlusTree(str(tmp_path / "f.bt"), create=True, page_size=512)
        model: dict[bytes, bytes] = {}
        keys = [f"key{i:03d}".encode() for i in range(120)]
        for _step in range(2000):
            key = rng.choice(keys)
            op = rng.random()
            if op < 0.6:
                value = rng.randbytes(rng.choice((2, 40, 600)))
                tree.put(key, value)
                model[key] = value
            elif op < 0.85:
                assert tree.get(key) == model.get(key)
            else:
                assert tree.delete(key) == (model.pop(key, None) is not None)
        assert dict(tree.items()) == model
        tree.close()


class TestPageStability:
    """Regression: same-key churn must not grow the file (overflow
    chains are freed on overwrite and delete)."""

    def test_same_key_overwrites_stable_pages(self, tmp_path) -> None:
        tree = BPlusTree(str(tmp_path / "f.bt"), create=True)
        for i in range(300):
            tree.put(b"hot", b"v%d" % i * 7)
        settled = tree._pager.n_pages
        for i in range(300):
            tree.put(b"hot", b"v%d" % i * 7)
        assert tree._pager.n_pages == settled
        assert tree.get(b"hot") == b"v299" * 7
        tree.close()

    def test_overflow_churn_stable_pages(self, tmp_path) -> None:
        tree = BPlusTree(str(tmp_path / "f.bt"), create=True)
        big = b"x" * 20_000
        for i in range(40):
            tree.put(b"big", big + b"%d" % i)
        settled = tree._pager.n_pages
        for i in range(40):
            tree.put(b"big", big + b"%d" % i)
        assert tree._pager.n_pages == settled
        tree.close()

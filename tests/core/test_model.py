"""Tests for the NestedSet data model and text syntax."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.model import (
    EXAMPLE_QUERY,
    EXAMPLE_SUE,
    EXAMPLE_TIM,
    NestedSet,
    NestedSetError,
)


def nested_sets(max_depth: int = 3) -> st.SearchStrategy[NestedSet]:
    """Hypothesis strategy generating small nested sets."""
    atoms = st.one_of(
        st.text(alphabet="abcxyz_0123456789 ,\"\\{}", min_size=0, max_size=6),
        st.integers(-1000, 1000))
    return st.recursive(
        st.builds(lambda a: NestedSet(a), st.lists(atoms, max_size=4)),
        lambda children: st.builds(
            lambda a, c: NestedSet(a, c),
            st.lists(atoms, max_size=3),
            st.lists(children, max_size=3)),
        max_leaves=12)


class TestConstruction:
    def test_empty(self) -> None:
        empty = NestedSet()
        assert empty.is_empty
        assert empty.cardinality == 0
        assert empty.depth == 1

    def test_atoms_and_children(self) -> None:
        inner = NestedSet(["b"])
        outer = NestedSet(["a"], [inner])
        assert outer.atoms == {"a"}
        assert outer.children == {inner}
        assert outer.cardinality == 2

    def test_duplicates_collapse(self) -> None:
        tree = NestedSet(["a", "a"], [NestedSet(["b"]), NestedSet(["b"])])
        assert len(tree.atoms) == 1
        assert len(tree.children) == 1

    def test_bad_atom_type(self) -> None:
        with pytest.raises(NestedSetError):
            NestedSet([3.14])
        with pytest.raises(NestedSetError):
            NestedSet([True])

    def test_bad_child_type(self) -> None:
        with pytest.raises(NestedSetError):
            NestedSet([], ["not a set"])  # type: ignore[list-item]

    def test_from_obj(self) -> None:
        tree = NestedSet.from_obj({"a", 1, frozenset({"b"})})
        assert tree.atoms == {"a", 1}
        assert len(tree.children) == 1

    def test_from_obj_lists_act_as_sets(self) -> None:
        assert NestedSet.from_obj(["a", "a", ["b"]]) == \
            NestedSet.from_obj({"a", frozenset({"b"})})

    def test_from_obj_rejects_scalars(self) -> None:
        with pytest.raises(NestedSetError):
            NestedSet.from_obj("just an atom")
        with pytest.raises(NestedSetError):
            NestedSet.from_obj(["a", ["b", 2.5]])     # a nested non-atom

    def test_from_obj_refuses_a_container_holding_itself(self) -> None:
        loop: list = ["a"]
        loop.append(["b", loop])
        with pytest.raises(NestedSetError, match="itself"):
            NestedSet.from_obj(loop)
        shared = ["s"]                  # the same list twice is no loop
        assert NestedSet.from_obj([shared, [shared]]) == \
            NestedSet.parse("{{s}, {{s}}}")

    def test_to_obj_roundtrip(self) -> None:
        tree = NestedSet(["a", 5], [NestedSet(["b"], [NestedSet()])])
        assert NestedSet.from_obj(tree.to_obj()) == tree


class TestEqualityAndHash:
    def test_structural_equality(self) -> None:
        left = NestedSet(["a"], [NestedSet(["b"])])
        right = NestedSet(["a"], [NestedSet(["b"])])
        assert left == right
        assert hash(left) == hash(right)

    def test_inequality(self) -> None:
        assert NestedSet(["a"]) != NestedSet(["b"])
        assert NestedSet(["a"]) != NestedSet([], [NestedSet(["a"])])

    def test_usable_as_set_member(self) -> None:
        members = {NestedSet(["a"]), NestedSet(["a"]), NestedSet(["b"])}
        assert len(members) == 2

    def test_int_and_str_atoms_distinct(self) -> None:
        assert NestedSet([1]) != NestedSet(["1"])


class TestMetrics:
    def test_depth(self) -> None:
        assert NestedSet(["a"]).depth == 1
        deep = NestedSet([], [NestedSet([], [NestedSet(["x"])])])
        assert deep.depth == 3

    def test_counts(self) -> None:
        tree = NestedSet(["a", "b"], [NestedSet(["c"])])
        assert tree.internal_count == 2
        assert tree.leaf_count == 3
        assert tree.size == 5
        assert len(tree) == 3  # cardinality: two atoms + one set

    def test_iter_sets_covers_all(self) -> None:
        tree = NestedSet(["a"], [NestedSet(["b"], [NestedSet(["c"])])])
        assert len(list(tree.iter_sets())) == 3

    def test_all_atoms(self) -> None:
        tree = NestedSet(["a"], [NestedSet(["b"], [NestedSet(["a", "c"])])])
        assert tree.all_atoms() == {"a", "b", "c"}


class TestUpdates:
    def test_with_atom(self) -> None:
        tree = NestedSet(["a"])
        grown = tree.with_atom("b")
        assert grown.atoms == {"a", "b"}
        assert tree.atoms == {"a"}  # original unchanged

    def test_with_child(self) -> None:
        tree = NestedSet(["a"]).with_child(NestedSet(["b"]))
        assert len(tree.children) == 1

    def test_without_atom(self) -> None:
        assert NestedSet(["a", "b"]).without_atom("a") == NestedSet(["b"])
        assert NestedSet(["a"]).without_atom("zz") == NestedSet(["a"])


class TestParse:
    def test_flat(self) -> None:
        assert NestedSet.parse("{a, b, c}") == NestedSet(["a", "b", "c"])

    def test_nested(self) -> None:
        assert NestedSet.parse("{a, {b, {c}}}") == \
            NestedSet(["a"], [NestedSet(["b"], [NestedSet(["c"])])])

    def test_empty_set(self) -> None:
        assert NestedSet.parse("{}") == NestedSet()
        assert NestedSet.parse("{ { } }") == NestedSet([], [NestedSet()])

    def test_integers(self) -> None:
        tree = NestedSet.parse("{1, -5, 2010}")
        assert tree.atoms == {1, -5, 2010}

    def test_quoted_atoms(self) -> None:
        tree = NestedSet.parse('{"has, comma", "esc\\"aped"}')
        assert tree.atoms == {"has, comma", 'esc"aped'}

    def test_whitespace_tolerant(self) -> None:
        assert NestedSet.parse(" {  a ,\n {b} } ") == \
            NestedSet(["a"], [NestedSet(["b"])])

    @pytest.mark.parametrize("bad", [
        "", "{", "{a", "{a,}", "a}", "{a} trailing", "{a b}", "{,a}",
        '{"unterminated}',
    ])
    def test_malformed(self, bad: str) -> None:
        with pytest.raises(NestedSetError):
            NestedSet.parse(bad)

    def test_paper_examples_parse(self) -> None:
        sue = NestedSet.parse(EXAMPLE_SUE)
        tim = NestedSet.parse(EXAMPLE_TIM)
        query = NestedSet.parse(EXAMPLE_QUERY)
        assert sue.atoms == {"London", "UK"}
        assert len(sue.children) == 2
        assert tim.atoms == {"Boston", "USA"}
        assert query.depth == 3

    def test_to_text_is_canonical(self) -> None:
        left = NestedSet.parse("{b, a, {z, y}}")
        right = NestedSet.parse("{a, b, {y, z}}")
        assert left.to_text() == right.to_text()

    def test_repr_truncates(self) -> None:
        tree = NestedSet([f"atom{i}" for i in range(40)])
        assert len(repr(tree)) < 90

    @given(nested_sets())
    def test_text_roundtrip_property(self, tree: NestedSet) -> None:
        assert NestedSet.parse(tree.to_text()) == tree

"""Stateful property test: index updates vs an in-memory model.

Hypothesis drives interleaved insert / insert_batch / delete / compact
/ reopen / query operations against a live disk index, checking query
results against the naive oracle over the model collection, and after
every step the document frequencies (raw and live) against the ones
recomputed from the model plus the structural integrity checker.
"""

from __future__ import annotations

import os
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.checker import assert_healthy
from repro.core.engine import NestedSetIndex
from repro.core.matchspec import QuerySpec
from repro.core.model import NestedSet
from repro.core.naive import reference_query
from tests.conftest import document_frequencies

_ATOMS = st.sampled_from(["a", "b", "c", "d", "e"])


def _trees():
    return st.recursive(
        st.builds(lambda a: NestedSet(a),
                  st.lists(_ATOMS, min_size=1, max_size=3)),
        lambda kids: st.builds(lambda a, c: NestedSet(a, c),
                               st.lists(_ATOMS, max_size=2),
                               st.lists(kids, min_size=1, max_size=2)),
        max_leaves=8)


class UpdateMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.model: dict[str, NestedSet] = {}
        #: Records deleted since the last compact: their postings still
        #: count in the raw document frequencies.
        self.tombstoned: list[NestedSet] = []
        self.counter = 0
        self.index: NestedSetIndex | None = None
        self.tmp = tempfile.TemporaryDirectory()
        self.generation = 0

    def _path(self) -> str:
        return os.path.join(self.tmp.name, f"gen{self.generation}.idx")

    @initialize(seed_trees=st.lists(_trees(), min_size=1, max_size=4))
    def setup(self, seed_trees) -> None:
        records = [(f"seed{i}", tree)
                   for i, tree in enumerate(seed_trees)]
        self.model = dict(records)
        # block_size=4 spills a list's tail block into fresh blocks
        # constantly; the handful of seed atoms makes the statistics
        # log fold often.
        self.index = NestedSetIndex.build(records, block_size=4,
                                          storage="diskhash",
                                          path=self._path())

    def _fresh_key(self) -> str:
        self.counter += 1
        return f"rec{self.counter}"

    @rule(tree=_trees())
    def insert(self, tree: NestedSet) -> None:
        key = self._fresh_key()
        self.index.insert(key, tree)
        self.model[key] = tree

    @rule(trees=st.lists(_trees(), min_size=1, max_size=3))
    def insert_batch(self, trees) -> None:
        batch = [(self._fresh_key(), tree) for tree in trees]
        self.index.insert_batch(batch)
        self.model.update(batch)

    @rule(pick=st.integers(0, 10 ** 6))
    def delete_some(self, pick: int) -> None:
        if not self.model:
            return
        key = sorted(self.model)[pick % len(self.model)]
        assert self.index.delete(key) is True
        self.tombstoned.append(self.model.pop(key))

    @rule()
    def delete_missing(self) -> None:
        assert self.index.delete("never-existed") is False

    @rule()
    def compact(self) -> None:
        self.generation += 1
        self.index.compact(storage="diskhash", path=self._path())
        self.tombstoned = []

    @rule()
    def reopen(self) -> None:
        self.index.close()
        self.index = NestedSetIndex.open("diskhash", self._path())

    @rule(query=_trees())
    def query_matches_oracle(self, query: NestedSet) -> None:
        expected = reference_query(list(self.model.items()), query,
                                   QuerySpec())
        assert self.index.query(query) == expected
        assert self.index.query(query, algorithm="topdown") == expected

    @invariant()
    def live_count_consistent(self) -> None:
        if self.index is not None:
            assert self.index.inverted_file.n_live_records == \
                len(self.model)

    @invariant()
    def frequencies_exact(self) -> None:
        if self.index is None:
            return
        ifile = self.index.inverted_file
        live = list(self.model.values())
        assert dict(ifile.frequencies()) == \
            document_frequencies(live + self.tombstoned)
        assert dict(ifile.live_frequencies()) == document_frequencies(live)
        assert_healthy(ifile)       # check 8: the table covers true df

    def teardown(self) -> None:
        if self.index is not None:
            self.index.close()
        self.tmp.cleanup()


UpdateMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=15, deadline=None)
TestStatefulUpdates = UpdateMachine.TestCase

"""Stateful property tests: the stores must behave like a dict, always.

Hypothesis drives random operation sequences (put / replace / delete /
get / iterate / reopen) against each engine, comparing to a model dict
after every step.  Reopen closes and reopens the disk stores mid-run,
checking durability of every operation so far.

``put_many`` writes a list of pairs in one call, the last value for a
key winning: repeated keys, values over half a page (overflow chains)
and, once ``fill`` has grown every chain past one page, keys that sit on
different pages of one chain.

Snapshots ride along: a pinned view is held together with a copy of the
model taken when it was pinned, and must keep answering ``get`` and
``items`` as that copy however many commits, aborted transactions and
live reads touch the same pages meanwhile (on diskhash, 8 buckets, so
every page directory is parsed, shared between versions and superseded
many times over).  Versions advance at commits, so writes made while a
snapshot is held go through a transaction.  ``len`` of a view counts
what its ``items`` yields, also when it was pinned right after
unjournaled writes.
"""

from __future__ import annotations

import os
from contextlib import nullcontext

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.storage import open_store

_KEYS = st.binary(min_size=1, max_size=24)
_VALUES = st.binary(max_size=600)
#: Over half a 4 KiB page: stored in an overflow chain.
_BIG_VALUES = st.binary(min_size=2100, max_size=2600)
#: Keys ``fill`` writes 1.9 KB values under (two to a page): eleven
#: pages' worth over the disk store's 8 buckets, so chains grow past one
#: page.
_FILL_KEYS = [b"fill-%02d" % i for i in range(24)]


class _StoreMachine(RuleBasedStateMachine):
    """Shared rules; subclasses fix the engine kind."""

    kind = "memory"

    keys = Bundle("keys")
    snapshots = Bundle("snapshots")

    def __init__(self) -> None:
        super().__init__()
        self.model: dict[bytes, bytes] = {}
        self.path: str | None = None
        self.store = None
        #: Open pinned views, each with the model as of its pin.
        self.held: list[tuple[object, dict[bytes, bytes]]] = []

    @initialize()
    def setup(self) -> None:
        if self.kind != "memory":
            import tempfile
            handle = tempfile.NamedTemporaryFile(delete=False,
                                                 suffix=f".{self.kind}")
            handle.close()
            self.path = handle.name
        self.store = open_store(self.kind, self.path, create=True,
                                **self._options())

    def _options(self) -> dict:
        if self.kind == "diskhash":
            return {"n_buckets": 8}          # force long chains
        return {}

    @rule(target=keys, key=_KEYS)
    def remember_key(self, key: bytes) -> bytes:
        return key

    def _write(self, journaled: bool):
        """A commit when asked for or when a snapshot is watching."""
        if journaled or self.held:
            return self.store.transaction()
        return nullcontext()

    @rule(key=keys, value=_VALUES, journaled=st.booleans())
    def put(self, key: bytes, value: bytes, journaled: bool) -> None:
        with self._write(journaled):
            self.store.put(key, value)
        self.model[key] = value

    @rule(pairs=st.lists(st.tuples(keys | st.sampled_from(_FILL_KEYS),
                                   _VALUES | _BIG_VALUES),
                         min_size=1, max_size=8),
          again=_VALUES | _BIG_VALUES, journaled=st.booleans())
    def put_many(self, pairs, again: bytes, journaled: bool) -> None:
        """Several pairs in one call; the first key comes again at the
        end with ``again``, which wins."""
        pairs = pairs + [(pairs[0][0], again)]
        with self._write(journaled):
            self.store.put_many(pairs)
        self.model.update(pairs)
        for key, _value in pairs:
            assert self.store.get(key) == self.model[key]

    @rule(journaled=st.booleans())
    def fill(self, journaled: bool) -> None:
        pairs = [(key, key * 270) for key in _FILL_KEYS]
        with self._write(journaled):
            self.store.put_many(pairs)
        self.model.update(pairs)

    @rule(key=keys)
    def get(self, key: bytes) -> None:
        assert self.store.get(key) == self.model.get(key)

    @rule(key=keys, journaled=st.booleans())
    def delete(self, key: bytes, journaled: bool) -> None:
        with self._write(journaled):
            deleted = self.store.delete(key)
        assert deleted == (self.model.pop(key, None) is not None)

    @rule(writes=st.lists(st.tuples(keys, st.none() | _VALUES), max_size=4))
    def transaction_then_abort(self, writes) -> None:
        """Uncommitted writes are readable inside the transaction and
        leave nothing behind, in the store or in what it remembers of
        the pages they touched."""
        self.store.begin()
        expected = dict(self.model)
        for key, value in writes:
            if value is None:
                self.store.delete(key)
                expected.pop(key, None)
            else:
                self.store.put(key, value)
                expected[key] = value
            assert self.store.get(key) == expected.get(key)
        self.store.abort()
        for key, _value in writes:
            assert self.store.get(key) == self.model.get(key)

    @rule(target=snapshots)
    def snapshot(self):
        held = (self.store.snapshot(), dict(self.model))
        self.held.append(held)
        return held

    @rule(held=snapshots, key=keys)
    def read_snapshot(self, held, key: bytes) -> None:
        view, model = held
        if held in self.held:           # not closed by a reopen
            assert view.get(key) == model.get(key)

    @rule(held=snapshots)
    def scan_snapshot(self, held) -> None:
        view, model = held
        if held in self.held:
            assert dict(view.items()) == model
            assert len(view) == len(model)

    @rule(held=consumes(snapshots))
    def release_snapshot(self, held) -> None:
        if held in self.held:
            self.held.remove(held)
            held[0].close()

    def _release_all(self) -> None:
        for view, _model in self.held:
            view.close()
        self.held.clear()

    @rule()
    def reopen(self) -> None:
        if self.kind == "memory":
            return
        self._release_all()
        self.store.close()
        self.store = open_store(self.kind, self.path, create=False)

    @invariant()
    def contents_match(self) -> None:
        if self.store is None:
            return
        assert len(self.store) == len(self.model)

    @rule()
    def full_scan(self) -> None:
        assert dict(self.store.items()) == self.model

    def teardown(self) -> None:
        self._release_all()
        if self.store is not None and not self.store._closed:
            self.store.close()
        if self.path and os.path.exists(self.path):
            os.remove(self.path)


class MemoryMachine(_StoreMachine):
    kind = "memory"


class DiskHashMachine(_StoreMachine):
    kind = "diskhash"


_settings = settings(max_examples=25, stateful_step_count=30,
                     deadline=None)

TestMemoryStateful = pytest.mark.filterwarnings("ignore")(
    MemoryMachine.TestCase)
TestDiskHashStateful = DiskHashMachine.TestCase
TestMemoryStateful.settings = _settings
TestDiskHashStateful.settings = _settings

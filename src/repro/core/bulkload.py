"""External-memory index construction (bounded-memory bulk load).

The paper's problem statement assumes "both Q and S are too large to fit
in internal memory"; :meth:`InvertedFile.build` nevertheless accumulates
all posting lists in memory before writing them (fine at benchmark
scale, documented as such).  This module is the honest alternative: a
two-phase run-merge build whose resident posting buffer never exceeds a
configurable budget.

Phase 1 (ingest).  Records stream through once.  Sequential structures
are finalized on the fly -- node ids are handed out monotonically, so the
ALL/ZERO lists and the node-metadata blocks can be appended as each
record completes, and record blobs/key map entries are written
immediately.  Postings accumulate in a buffer; whenever the buffer
exceeds ``memory_budget`` entries it is flushed as a *run*: one store
value per (run, atom), postings sorted.

Phase 2 (merge).  Because ids only grow, an atom's lists in successive
runs are already in global order -- merging is concatenation in run
order, one atom at a time, so peak memory during the merge is one atom's
full list (the same assumption queries make).  Run values are deleted
as they are consumed.

The result is byte-for-byte the same index layout the in-memory builder
produces (integrity-checked in the tests).
"""

from __future__ import annotations

from typing import Iterable

from ..storage import open_store
from ..storage.codec import (
    DEFAULT_BLOCK_SIZE,
    encode_blocked,
    encode_varint,
)
from .invfile import (
    InvertedFile,
    META_BLOCK,
    atom_token,
    encode_config,
    encode_counts,
    number_record,
    record_blob,
)
from .invfile import (
    _ALL_PREFIX,
    _ATOM_PREFIX,
    _CONFIG_KEY,
    _FREQ_KEY,
    _KEYMAP_PREFIX,
    _META_PREFIX,
    _RECORD_PREFIX,
    _ZERO_PREFIX,
)
from .model import Atom, NestedSet
from .invfile import LIST_BLOCK
from .postings import PostingList

_RUN_PREFIX = b"T:"

#: Default resident posting budget (entries, not bytes).
DEFAULT_MEMORY_BUDGET = 500_000


def build_external(records: Iterable[tuple[str, NestedSet]], *,
                   storage: str = "memory", path: str | None = None,
                   memory_budget: int = DEFAULT_MEMORY_BUDGET,
                   block_size: int = DEFAULT_BLOCK_SIZE,
                   store=None,
                   **store_options: object) -> InvertedFile:
    """Bulk-load an index with a bounded posting buffer.

    ``store`` accepts a pre-opened store (e.g. one shard's namespaced
    view of a shared store); ``storage``/``path`` are ignored then.
    ``block_size`` follows :meth:`InvertedFile.build`.
    """
    if memory_budget < 1:
        raise ValueError("memory_budget must be >= 1")
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    if store is None:
        store = open_store(storage, path, create=True, **store_options)

    buffer: dict[Atom, list[tuple[int, tuple[int, ...]]]] = {}
    buffered = 0
    run_count = 0
    #: atom -> [run numbers containing it] (runs are globally ordered).
    atom_runs: dict[Atom, list[int]] = {}
    df: dict[Atom, int] = {}

    next_id = 0
    n_records = 0

    # Sequential structures buffer at most one block before writing it
    # whole -- no read-modify-write of tail blocks on the hot path.
    all_writer = _BlockWriter(store, _ALL_PREFIX, LIST_BLOCK)
    zero_writer = _BlockWriter(store, _ZERO_PREFIX, LIST_BLOCK)
    meta_writer = _MetaWriter(store)

    def flush_run() -> None:
        nonlocal buffered, run_count
        if not buffer:
            return
        for atom, entries in buffer.items():
            entries.sort()
            key = _RUN_PREFIX + encode_varint(run_count) + b":" + \
                atom_token(atom).encode("utf-8")
            store.put(key, PostingList(entries).encode())
            atom_runs.setdefault(atom, []).append(run_count)
        buffer.clear()
        buffered = 0
        run_count += 1

    for key, value in records:
        tree = value if isinstance(value, NestedSet) \
            else NestedSet.from_obj(value)
        ordinal = n_records
        n_records += 1
        nodes, meta_entries, text = number_record(tree, ordinal, next_id)
        for atoms, posting in nodes:
            for atom in atoms:
                buffer.setdefault(atom, []).append(posting)
                df[atom] = df.get(atom, 0) + 1
            buffered += len(atoms)
        # Sequential structures finalize per record, in id order.
        all_writer.extend(sorted(posting for _atoms, posting in nodes))
        zero_writer.extend(sorted(posting for atoms, posting in nodes
                                  if not atoms))
        meta_writer.extend(meta_entries)
        store.put(_RECORD_PREFIX + encode_varint(ordinal),
                  record_blob(key, next_id, text))
        store.put(_KEYMAP_PREFIX + key.encode("utf-8"),
                  encode_varint(ordinal))
        next_id += len(meta_entries)
        if buffered > memory_budget:
            flush_run()
    n_all_blocks = all_writer.finish()
    n_zero_blocks = zero_writer.finish()
    meta_writer.finish()
    flush_run()

    # Phase 2: per-atom merge.  Runs were flushed in id order, so the
    # concatenation of an atom's run lists is already globally sorted.
    for atom, runs in atom_runs.items():
        token = atom_token(atom).encode("utf-8")
        entries: list[tuple[int, tuple[int, ...]]] = []
        for run_no in runs:
            run_key = _RUN_PREFIX + encode_varint(run_no) + b":" + token
            raw = store.get(run_key)
            entries.extend(PostingList.decode(raw).entries)
            store.delete(run_key)
        store.put(_ATOM_PREFIX + token, encode_blocked(entries, block_size))

    store.put(_FREQ_KEY, encode_counts(df, ranked=True))
    store.put(_CONFIG_KEY, encode_config(
        n_records, next_id, n_all_blocks, n_zero_blocks, block_size))
    store.sync()
    return InvertedFile(store)


class _BlockWriter:
    """Append-only blocked posting-list writer (full blocks, no rewrites
    except the final partial tail)."""

    def __init__(self, store, prefix: bytes, block_size: int) -> None:
        self._store = store
        self._prefix = prefix
        self._block_size = block_size
        self._tail: list[tuple[int, tuple[int, ...]]] = []
        self._blocks = 0

    def extend(self, entries) -> None:
        self._tail.extend(entries)
        while len(self._tail) >= self._block_size:
            chunk = self._tail[:self._block_size]
            del self._tail[:self._block_size]
            self._store.put(self._prefix + encode_varint(self._blocks),
                            PostingList(chunk).encode())
            self._blocks += 1

    def finish(self) -> int:
        if self._tail:
            self._store.put(self._prefix + encode_varint(self._blocks),
                            PostingList(self._tail).encode())
            self._blocks += 1
            self._tail = []
        return self._blocks


class _MetaWriter:
    """Append-only node-metadata writer with the same full-block policy."""

    def __init__(self, store) -> None:
        self._store = store
        self._tail: list[bytes] = []
        self._blocks = 0

    def extend(self, entries) -> None:
        self._tail.extend(entries)
        while len(self._tail) >= META_BLOCK:
            chunk = b"".join(self._tail[:META_BLOCK])
            del self._tail[:META_BLOCK]
            self._store.put(_META_PREFIX + encode_varint(self._blocks),
                            chunk)
            self._blocks += 1

    def finish(self) -> None:
        if self._tail:
            self._store.put(_META_PREFIX + encode_varint(self._blocks),
                            b"".join(self._tail))
            self._tail = []

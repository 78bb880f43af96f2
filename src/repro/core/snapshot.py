"""Version-pinned read views over a live inverted file (MVCC).

The engine's read path runs entirely against *snapshots*: a query pins
the store's committed version (:meth:`repro.storage.KVStore.snapshot`),
wraps the pinned view in a :class:`SnapshotInvertedFile`, and never
takes a lock again -- writers commit freely while in-flight readers keep
observing the version they pinned.

The caches make that cheap instead of merely correct.  A pinned file is
the only kind that caches (the unpinned
:class:`~repro.core.invfile.InvertedFile` keeps nothing it read), and
all snapshots of one partition share its block cache, node-metadata
blocks, ALL/ZERO lists and record keys, with staleness decided by
*modification epochs* rather than invalidation:

* :class:`ModEpochs` records, per atom token, the versions at which its
  posting list changed.  ``floor(token, version)`` -- how many of those
  changes a reader pinned at ``version`` can see -- becomes part of
  every cache key, so a commit simply starts a fresh epoch: nothing is
  evicted, readers pinned before the commit keep hitting their (still
  correct) entries, and a slow reader re-populating an old epoch's entry
  can never poison a newer reader.  Deletes are tombstones that leave
  posting bytes untouched, so they bump no epochs at all.  A
  ``(token, epoch)`` key thus names one stored value, which is why the
  list cached under it (or an absent marker) may serve every reader of
  the key without reading it.
* :class:`SharedIndexState` holds the cross-version caches whose safety
  rests on the index's append-only invariants: node-metadata blocks only
  grow (longest copy wins, served when long enough for the reader's
  node id), record keys are immutable per ordinal, and the ALL/ZERO
  lists only append postings with fresh node ids (a newer load serves an
  older snapshot after truncating at the snapshot's node count).
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Callable, Iterable

from ..storage import KVStore
from .cache import ABSENT
from .invfile import (
    _ALL_PREFIX,
    _ZERO_PREFIX,
    InvertedFile,
    QueryStats,
    _token_store_key,
    atom_token,
)
from .model import Atom
from .postings import LazyPostingList, PostingList

__all__ = [
    "ModEpochs",
    "SharedIndexState",
    "SnapshotInvertedFile",
]


class ModEpochs:
    """Per-atom modification history in store-version terms.

    ``bump(tokens, version)`` records that the named posting lists
    change at ``version`` (the writer calls it with the *upcoming*
    commit version, before the commit lands, so a reader pinning the
    new version can never compute a pre-bump floor).  ``floor(token,
    version)`` is the number of recorded changes visible at ``version``
    -- the epoch component of every block cache key.

    Reads are lock-free: the per-token lists are append-only and CPython
    list appends are atomic, so a concurrent ``bisect`` sees either the
    old or the new length -- both correct for the reader's version.
    """

    #: Reserved token recording "everything changed" events (replicated
    #: log replay rewrites arbitrary lists below the engine, so no
    #: per-atom bump is possible).  Its count is folded into every
    #: floor, so one bump starts a fresh epoch for *all* cache keys
    #: while readers pinned at older versions keep their entries.
    GLOBAL_TOKEN = "\x00*"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._mods: dict[str, list[int]] = {}

    def bump(self, tokens: Iterable[str], version: int) -> None:
        """Record that ``tokens``' lists change at ``version``, once per
        version: a group that did not land leaves its bump for the next
        group, which commits at the same version."""
        with self._lock:
            for token in tokens:
                mods = self._mods.setdefault(token, [])
                if not mods or mods[-1] < version:
                    mods.append(version)

    def bump_all(self, version: int) -> None:
        """Record that *every* list may have changed at ``version``."""
        self.bump((self.GLOBAL_TOKEN,), version)

    def floor(self, token: str, version: int) -> int:
        """Visible-modification count for a reader pinned at ``version``.

        Folds in the global token's count, so whole-index events
        (replica replay) shift every floor at once.
        """
        count = self._floor_one(token, version)
        if token != self.GLOBAL_TOKEN:
            count += self._floor_one(self.GLOBAL_TOKEN, version)
        return count

    def _floor_one(self, token: str, version: int) -> int:
        mods = self._mods.get(token)
        return bisect_right(mods, version) if mods else 0


class SharedIndexState:
    """Cross-snapshot caches justified by append-only index invariants.

    One instance per live index generation (a compact starts a fresh
    one); every snapshot of that generation shares it.
    """

    def __init__(self, meta_cap: int = 256) -> None:
        self._lock = threading.Lock()
        #: Node-metadata blocks, longest copy wins: entries are written
        #: once and blocks only grow at the tail, so a newer (longer)
        #: block serves any reader whose node id fits inside it.
        self._meta_blocks: dict[int, bytes] = {}
        self._meta_cap = meta_cap
        #: ordinal -> record key; ordinals are never reused and a key
        #: never changes (deletes tombstone, they do not remap).
        self.key_cache: dict[int, str] = {}
        #: kind -> (loaded_version, list); ALL/ZERO lists only append
        #: postings with fresh node ids, so newer loads serve older
        #: snapshots after truncation at the snapshot's node count.
        self._lists: dict[str, tuple[int, PostingList]] = {}

    def meta_block(self, block_no: int, min_len: int) -> bytes | None:
        """A cached copy of the block, if long enough for the reader."""
        raw = self._meta_blocks.get(block_no)
        if raw is not None and len(raw) >= min_len:
            return raw
        return None

    def offer_meta_block(self, block_no: int, raw: bytes) -> None:
        """Cache a freshly read block unless a longer copy is held."""
        with self._lock:
            held = self._meta_blocks.get(block_no)
            if held is not None and len(held) >= len(raw):
                return
            if held is None and len(self._meta_blocks) >= self._meta_cap:
                self._meta_blocks.pop(next(iter(self._meta_blocks)))
            self._meta_blocks[block_no] = raw

    def shared_list(self, kind: str, version: int,
                    loader: Callable[[], PostingList]) -> PostingList:
        """The ALL/ZERO list as of at least ``version`` (shared load).

        Returns a list loaded at ``version`` or newer -- possibly with
        extra tail postings the caller must truncate away.
        """
        held = self._lists.get(kind)
        if held is not None and held[0] >= version:
            return held[1]
        loaded = loader()
        with self._lock:
            held = self._lists.get(kind)
            if held is None or held[0] < version:
                self._lists[kind] = (version, loaded)
                return loaded
            return held[1]


class SnapshotInvertedFile(InvertedFile):
    """An inverted file bound to a version-pinned store view: the one
    kind of inverted file that caches.

    Reads resolve against the pinned store (so the configuration,
    tombstones and dead counts are the ones committed at the pinned
    version) while the decoded-object caches are shared with every
    other snapshot of the same index generation; see the module
    docstring for why that sharing is safe.

    ``version`` is the pinned store version.
    """

    def __init__(self, store: KVStore, *, block_cache,
                 shared: SharedIndexState, epochs: ModEpochs,
                 version: int,
                 stats: QueryStats | None = None) -> None:
        super().__init__(store)
        self.version = version
        self._epochs = epochs
        self._shared = shared
        self.block_cache = block_cache
        if stats is not None:
            self.stats = stats
        self._all_nodes: PostingList | None = None
        self._zero_leaf: PostingList | None = None

    # -- posting lists (the block cache, keyed by (token, epoch)) ----------

    def _open_list(self, atom: Atom) -> PostingList | LazyPostingList:
        """``S_IF(atom)``, the block cache's handle first.

        The list key ``(token, epoch floor at this version)`` names
        exactly one stored value.  A warm key's entry is the list
        itself, handed out with no store access; an
        :data:`~repro.core.cache.ABSENT` entry answers empty.  A cold
        key's value is fetched, and the list built from it, or the
        marker when the store has none, is left under the key.
        """
        token = atom_token(atom)
        list_key = (token, self._epochs.floor(token, self.version))
        cache = self.block_cache
        plist = cache.directory(list_key)
        if plist is not None:
            self.stats.directory_hits += 1
            return PostingList() if plist is ABSENT else plist
        self.stats.list_fetches += 1
        raw = self._store.get(_token_store_key(token))
        plist = self._list_from(atom, raw, cache=cache, list_key=list_key)
        cache.admit_directory(list_key, ABSENT if raw is None else plist)
        return plist

    # -- node metadata (shared, longest-copy-wins) -------------------------

    def _meta_block(self, block_no: int, need: int) -> bytes:
        block = self._shared.meta_block(block_no, need)
        if block is None:
            block = super()._meta_block(block_no, need)
            self._shared.offer_meta_block(block_no, block)
        return block

    # -- ALL / ZERO lists (shared load, truncated per version) -------------

    def all_nodes(self) -> PostingList:
        if self._all_nodes is None:
            full = self._shared.shared_list(
                "all", self.version,
                lambda: self._read_blocks(_ALL_PREFIX, self._n_all_blocks))
            self._all_nodes = _truncate_at(full, self.n_nodes)
        return self._all_nodes

    def zero_leaf_nodes(self) -> PostingList:
        if self._zero_leaf is None:
            full = self._shared.shared_list(
                "zero", self.version,
                lambda: self._read_blocks(_ZERO_PREFIX,
                                          self._n_zero_blocks))
            self._zero_leaf = _truncate_at(full, self.n_nodes)
        return self._zero_leaf

    # -- record keys (immutable per ordinal) -------------------------------

    def record_key(self, ordinal: int) -> str:
        key_cache = self._shared.key_cache
        key = key_cache.get(ordinal)
        if key is None:
            key = key_cache[ordinal] = super().record_key(ordinal)
        return key


def _truncate_at(plist: PostingList, n_nodes: int) -> PostingList:
    """Drop postings of nodes created after a snapshot's last id.

    Node ids are assigned in ascending preorder and the ALL/ZERO lists
    are head-sorted, so "this snapshot's prefix" is everything with
    ``head < n_nodes``.
    """
    entries = plist.entries
    if not entries or entries[-1][0] < n_nodes:
        return plist
    lo, hi = 0, len(entries)
    while lo < hi:
        mid = (lo + hi) // 2
        if entries[mid][0] < n_nodes:
            lo = mid + 1
        else:
            hi = mid
    return PostingList(entries[:lo])

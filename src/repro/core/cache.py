"""Inverted-list caching (Section 3.3, "Caching").

Every occurrence of a leaf value in a query costs a retrieval of its
inverted list from the storage engine plus a decode.  The paper's
optimization buffers the lists of the most frequent atoms of ``S`` in main
memory, subject to a budget (250 lists in the paper's experiments).

Three policies are provided:

* :class:`NoCache`        -- the uncached baseline,
* :class:`FrequencyCache` -- the paper's policy: pin the top-K most
  frequent atoms (static, computed from collection statistics at open time),
* :class:`LRUCache`       -- the workload-adaptive policy the paper lists
  as future work item (6); included for the C1 ablation benchmark.

Caches store *decoded* :class:`~repro.core.postings.PostingList` objects,
so a hit skips both the store access and the codec work.  Below them
every index keeps a :class:`BlockCache` whatever the policy: decoded
blocks and skip directories, which make a list the policy does not hold
cost no store access either once it is warm (DESIGN §9).
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Iterable

from .postings import PostingList

#: The budget used throughout the paper's experiments.
PAPER_BUDGET = 250


@dataclass
class CacheStats:
    """Hit/miss accounting for a list cache."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def reset(self) -> None:
        self.hits = self.misses = self.insertions = self.evictions = 0


class ListCache(ABC):
    """Interface consumed by :class:`~repro.core.invfile.InvertedFile`."""

    def __init__(self) -> None:
        self.stats = CacheStats()

    @abstractmethod
    def get(self, key: Hashable) -> PostingList | None:
        """Return the cached list or None (a miss)."""

    @abstractmethod
    def admit(self, key: Hashable, plist: PostingList) -> None:
        """Offer a freshly decoded list to the cache (may be rejected)."""

    def admits(self, key: Hashable) -> bool:
        """Would :meth:`admit` keep a list for ``key``?  A kept list
        outlives the read that fetched it, so it must own its bytes."""
        return True

    def replace(self, key: Hashable, plist: PostingList) -> None:
        """Admit ``plist``, overwriting any existing entry for ``key``.

        ``admit`` may keep an existing entry (the policies treat a
        second offer as a no-op); version-aware callers use this when
        they *know* the cached entry is from an older epoch and must be
        superseded.  Default: same as :meth:`admit`.
        """
        self.admit(key, plist)

    def clear(self) -> None:
        """Drop all cached entries (stats are kept)."""

    @property
    def name(self) -> str:
        return type(self).__name__


class NoCache(ListCache):
    """The uncached configuration of the paper's experiments."""

    def get(self, key: Hashable) -> PostingList | None:
        self.stats.misses += 1
        return None

    def admit(self, key: Hashable, plist: PostingList) -> None:
        pass

    def admits(self, key: Hashable) -> bool:
        return False


class FrequencyCache(ListCache):
    """Pin the posting lists of the ``budget`` most frequent atoms.

    Membership in the hot set is decided once from collection frequencies
    (document frequency of each atom), exactly as in Section 3.3; lists are
    materialized lazily on first access and never evicted.
    """

    def __init__(self, hot_atoms: Iterable[Hashable],
                 budget: int = PAPER_BUDGET) -> None:
        super().__init__()
        self.budget = budget
        self._hot = set(hot_atoms)
        if len(self._hot) > budget:
            raise ValueError(
                f"hot set of {len(self._hot)} atoms exceeds budget {budget}")
        self._lists: dict[Hashable, PostingList] = {}

    @classmethod
    def from_frequencies(cls, frequencies: Iterable[tuple[Hashable, int]],
                         budget: int = PAPER_BUDGET) -> "FrequencyCache":
        """Build the hot set from ``(atom, document-frequency)`` pairs."""
        ranked = sorted(frequencies, key=lambda item: (-item[1], str(item[0])))
        return cls([atom for atom, _df in ranked[:budget]], budget=budget)

    def get(self, key: Hashable) -> PostingList | None:
        plist = self._lists.get(key)
        if plist is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return plist

    def admits(self, key: Hashable) -> bool:
        return key in self._hot

    def admit(self, key: Hashable, plist: PostingList) -> None:
        if key in self._hot and key not in self._lists:
            self._lists[key] = plist
            self.stats.insertions += 1

    def replace(self, key: Hashable, plist: PostingList) -> None:
        if key in self._hot:
            if key not in self._lists:
                self.stats.insertions += 1
            self._lists[key] = plist

    def clear(self) -> None:
        self._lists.clear()

    def __len__(self) -> int:
        return len(self._lists)


class LRUCache(ListCache):
    """Least-recently-used cache of at most ``budget`` posting lists.

    Recency bookkeeping is a check-then-act sequence over an
    ``OrderedDict``, so ``get``/``admit`` take a small lock: the query
    service fans concurrent readers at one shared cache, and an eviction
    racing a ``move_to_end`` would otherwise raise ``KeyError``.
    """

    def __init__(self, budget: int = PAPER_BUDGET) -> None:
        super().__init__()
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.budget = budget
        self._lock = threading.Lock()
        self._lists: OrderedDict[Hashable, PostingList] = OrderedDict()

    def get(self, key: Hashable) -> PostingList | None:
        with self._lock:
            plist = self._lists.get(key)
            if plist is None:
                self.stats.misses += 1
                return None
            self._lists.move_to_end(key)
            self.stats.hits += 1
            return plist

    def admit(self, key: Hashable, plist: PostingList) -> None:
        with self._lock:
            if key in self._lists:
                self._lists.move_to_end(key)
                return
            self._lists[key] = plist
            self.stats.insertions += 1
            if len(self._lists) > self.budget:
                self._lists.popitem(last=False)
                self.stats.evictions += 1

    def replace(self, key: Hashable, plist: PostingList) -> None:
        with self._lock:
            if key not in self._lists:
                self.stats.insertions += 1
            self._lists[key] = plist
            self._lists.move_to_end(key)
            if len(self._lists) > self.budget:
                self._lists.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._lists.clear()

    def __len__(self) -> int:
        return len(self._lists)


#: Default decoded-block budget: 8192 blocks of 128 postings hold up to
#: ~1M decoded postings, roughly the footprint the old whole-list LRU
#: reached on the paper's workloads -- but spent block-by-block, so one
#: giant hot list can no longer monopolize the budget.
DEFAULT_BLOCK_BUDGET = 8192

#: A decoded block: the columnar :class:`~repro.core.postings.BlockData`
#: of one block of a blocked value (legacy postings tuples admitted by
#: older callers are still served; lazy lists wrap them on read).
DecodedBlock = object

#: The directory entry of a list the store does not hold: an atom absent
#: at the key's version is remembered like a present list's directory.
ABSENT = object()


class BlockCache:
    """LRU over *decoded blocks* of block-compressed posting lists.

    Replaces whole-list caching for the blocked format: lazy lists
    (:class:`repro.core.postings.LazyPostingList`) route every block
    decode through one shared instance, keyed by ``(atom token,
    block number)``.  Entries are columnar
    :class:`~repro.core.postings.BlockData` objects, so one cached
    decode serves both the array-native intersection (head columns) and
    row consumers (postings tuples, materialized once per entry).  Hot
    *regions* of hot lists stay decoded while the
    cold tail of the same list can be evicted -- a granularity the
    whole-list :class:`ListCache` policies cannot express.

    Under MVCC snapshot reads the list key is epoch-scoped: snapshots
    use ``((atom token, modification epoch), block number)``, so a
    commit that appends to a list simply starts a fresh epoch instead of
    invalidating -- readers pinned before the commit keep their (still
    correct) decoded blocks, and a racing reader re-populating an old
    epoch's entry can never serve a newer reader.

    Beside the blocks the cache keeps each list's decoded skip directory
    (:class:`repro.core.postings.SkipDirectory`) under the bare list
    key -- the same epoch scoping and the same :meth:`invalidate`, so a
    directory is exactly as fresh as the blocks it describes.  A list
    key whose store value was missing holds :data:`ABSENT` instead.
    They are an LRU of their own with the same budget, and count
    neither in ``len()`` nor in the block hit statistics.  A directory
    entry is what lets :meth:`InvertedFile.postings
    <repro.core.invfile.InvertedFile.postings>` hand out a list without
    reading its value.
    """

    def __init__(self, budget: int = DEFAULT_BLOCK_BUDGET) -> None:
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.budget = budget
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._blocks: OrderedDict[tuple[Hashable, int], DecodedBlock] = \
            OrderedDict()
        self._directories: OrderedDict[Hashable, object] = OrderedDict()

    def get(self, key: tuple[Hashable, int]) -> DecodedBlock | None:
        with self._lock:
            block = self._blocks.get(key)
            if block is None:
                self.stats.misses += 1
                return None
            self._blocks.move_to_end(key)
            self.stats.hits += 1
            return block

    def admit(self, key: tuple[Hashable, int], block: DecodedBlock) -> None:
        with self._lock:
            if key in self._blocks:
                self._blocks.move_to_end(key)
                return
            self._blocks[key] = block
            self.stats.insertions += 1
            if len(self._blocks) > self.budget:
                self._blocks.popitem(last=False)
                self.stats.evictions += 1

    def directory(self, list_key: Hashable) -> object | None:
        """The cached skip directory of one list, or ``None``."""
        with self._lock:
            directory = self._directories.get(list_key)
            if directory is not None:
                self._directories.move_to_end(list_key)
            return directory

    def admit_directory(self, list_key: Hashable, directory: object) -> None:
        with self._lock:
            self._directories[list_key] = directory
            self._directories.move_to_end(list_key)
            if len(self._directories) > self.budget:
                self._directories.popitem(last=False)

    def invalidate(self, list_keys: "set[Hashable]") -> None:
        """Drop every cached block and the directory (or absent marker)
        of the given lists (atom tokens).

        Appends change only a list's tail block, but block *numbers*
        past the tail shift as entries spill over, so the whole list's
        cached blocks go; blocks of untouched lists stay warm -- the
        point of invalidating per-atom instead of wholesale on every
        insert.  Epoch-scoped keys (``(token, epoch)`` first elements)
        match on their token, so a live invalidation also clears every
        snapshot epoch of the named lists.
        """
        def token_of(list_key: Hashable) -> Hashable:
            return list_key[0] if isinstance(list_key, tuple) else list_key

        with self._lock:
            for key in [key for key in self._blocks
                        if token_of(key[0]) in list_keys]:
                del self._blocks[key]
            for key in [key for key in self._directories
                        if token_of(key) in list_keys]:
                del self._directories[key]

    def clear(self) -> None:
        with self._lock:
            self._blocks.clear()
            self._directories.clear()

    def __len__(self) -> int:
        return len(self._blocks)


def make_cache(policy: str | None, *,
               frequencies: Iterable[tuple[Hashable, int]] = (),
               budget: int = PAPER_BUDGET) -> ListCache:
    """Factory used by the engine: ``None``/"none", "frequency", "lru"."""
    if policy in (None, "none"):
        return NoCache()
    if policy == "frequency":
        return FrequencyCache.from_frequencies(frequencies, budget=budget)
    if policy == "lru":
        return LRUCache(budget=budget)
    raise ValueError(f"unknown cache policy {policy!r}; "
                     "expected None, 'none', 'frequency' or 'lru'")

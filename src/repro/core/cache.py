"""The block cache, with the paper's list caching as its pin set
(Section 3.3, "Caching").

The paper buffers the inverted lists of the most frequent atoms of ``S``
in main memory (250 lists in its experiments), since every leaf of a
query otherwise costs a list retrieval plus a decode.  Here one
:class:`BlockCache` per inverted file, an LRU (the workload-adaptive
policy of the paper's future work (6)), holds every decoded block and
skip directory, and ``cache=`` only chooses its pins
(:meth:`~repro.core.invfile.InvertedFile.set_cache`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Iterable

from .postings import BlockData

#: The budget used throughout the paper's experiments.
PAPER_BUDGET = 250

#: The ``cache=`` values; only ``"frequency"`` pins anything.
POLICIES = (None, "none", "frequency", "lru")

#: Default decoded-block budget: 8192 blocks of 128 postings hold up to
#: ~1M decoded postings, spent block-by-block, so one giant hot list
#: cannot monopolize the budget.
DEFAULT_BLOCK_BUDGET = 8192

#: The directory entry of a list the store does not hold: an atom absent
#: at the key's version is remembered like a present list's directory.
ABSENT = object()


@dataclass
class CacheStats:
    """Hit/miss accounting for the block cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = 0


class BlockCache:
    """LRU over the *decoded blocks* and skip directories of posting
    lists, with a pinned region beside it.

    Lazy lists (:class:`repro.core.postings.LazyPostingList`) route every
    block decode through one shared instance, keyed by ``(list key,
    block number)``; entries are columnar
    :class:`~repro.core.postings.BlockData`.  Hot *regions* of hot lists
    stay decoded while the cold tail of the same list can be evicted.
    The list key is the atom token on a standalone file and ``(token,
    modification epoch)`` under MVCC snapshot reads, so a commit starts
    a fresh epoch instead of invalidating, and a racing reader
    re-populating an old epoch's entry can never serve a newer reader.
    Each list's decoded skip directory
    (:class:`repro.core.postings.SkipDirectory`), or :data:`ABSENT` when
    the store had no value, sits under the bare list key in an LRU of
    its own with the same budget, outside ``len()`` and the statistics.

    :meth:`pin` names the tokens whose lists are exempt from eviction.
    Per pinned token the pinned region holds one list key, the newest
    epoch admitted: a newer one sends the older list's entries back to
    the LRU, and older epochs go there directly, so the region holds at
    most one list per pinned token however many commits land.
    """

    def __init__(self, budget: int = DEFAULT_BLOCK_BUDGET) -> None:
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.budget = budget
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._blocks: OrderedDict[tuple[Hashable, int], BlockData] = \
            OrderedDict()
        self._directories: OrderedDict[Hashable, object] = OrderedDict()
        #: The pin set: tokens whose newest list is exempt from eviction.
        self.pins: frozenset = frozenset()
        #: The pinned region: per list key its blocks by number and its
        #: directory, and per pinned token the one list key it holds.
        self._pinned: dict[Hashable, dict[int, BlockData]] = {}
        self._pinned_dirs: dict[Hashable, object] = {}
        self._pinned_key: dict[Hashable, Hashable] = {}

    def get(self, key: tuple[Hashable, int]) -> BlockData | None:
        with self._lock:
            pinned = self._pinned.get(key[0])
            block = pinned.get(key[1]) if pinned is not None else None
            if block is None:
                block = self._blocks.get(key)
                if block is None:
                    self.stats.misses += 1
                    return None
                self._blocks.move_to_end(key)
            self.stats.hits += 1
            return block

    def admit(self, key: tuple[Hashable, int], block: BlockData) -> None:
        with self._lock:
            self._admit(key, block)

    def directory(self, list_key: Hashable) -> object | None:
        """The cached skip directory of one list, or ``None``."""
        with self._lock:
            directory = self._pinned_dirs.get(list_key)
            if directory is None:
                directory = self._directories.get(list_key)
                if directory is not None:
                    self._directories.move_to_end(list_key)
            return directory

    def admit_directory(self, list_key: Hashable, directory: object) -> None:
        with self._lock:
            self._admit_directory(list_key, directory)

    def pin(self, tokens: Iterable[Hashable]) -> None:
        """Make ``tokens`` the pin set; cached entries move to the region
        their token now belongs to."""
        with self._lock:
            directories = [*self._directories.items(),
                           *self._pinned_dirs.items()]
            blocks = list(self._blocks.items())
            for list_key, pinned in self._pinned.items():
                blocks.extend(((list_key, number), block)
                              for number, block in pinned.items())
            self._clear()
            self.pins = frozenset(tokens)
            for list_key, directory in directories:
                self._admit_directory(list_key, directory)
            for key, block in blocks:
                self._admit(key, block)

    def invalidate(self, list_keys: "set[Hashable]") -> None:
        """Drop every cached block and the directory (or absent marker)
        of the given lists (atom tokens), pinned or not, at every epoch.

        Appends change only a list's tail block, but block *numbers*
        past the tail shift as entries spill over, so the whole list's
        cached blocks go; blocks of untouched lists stay warm.
        """
        with self._lock:
            for key in [key for key in self._blocks
                        if _token_of(key[0]) in list_keys]:
                del self._blocks[key]
            for key in [key for key in self._directories
                        if _token_of(key) in list_keys]:
                del self._directories[key]
            for token in self._pinned_key.keys() & list_keys:
                list_key = self._pinned_key.pop(token)
                del self._pinned[list_key]
                self._pinned_dirs.pop(list_key, None)

    def clear(self) -> None:
        """Drop every cached entry, pinned ones included (the pin set
        stays)."""
        with self._lock:
            self._clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._blocks) + sum(map(len, self._pinned.values()))

    # -- internals (lock held) -----------------------------------------------

    def _clear(self) -> None:
        self._blocks.clear()
        self._directories.clear()
        self._pinned.clear()
        self._pinned_dirs.clear()
        self._pinned_key.clear()

    def _admit(self, key: tuple[Hashable, int], block: BlockData) -> None:
        pinned = self._pinned_list(key[0])
        if pinned is not None:
            pinned[key[1]] = block
        elif key in self._blocks:
            self._blocks.move_to_end(key)
        else:
            self._blocks[key] = block
            if len(self._blocks) > self.budget:
                self._blocks.popitem(last=False)
                self.stats.evictions += 1

    def _admit_directory(self, list_key: Hashable, directory: object) -> None:
        if self._pinned_list(list_key) is not None:
            self._pinned_dirs[list_key] = directory
            return
        self._directories[list_key] = directory
        self._directories.move_to_end(list_key)
        if len(self._directories) > self.budget:
            self._directories.popitem(last=False)

    def _pinned_list(self, list_key: Hashable
                     ) -> dict[int, BlockData] | None:
        """The pinned blocks of ``list_key``, or ``None`` when the list
        belongs to the LRU (its token is not pinned, or the region holds
        a newer epoch of it)."""
        if not self.pins:
            return None
        token = _token_of(list_key)
        if token not in self.pins:
            return None
        held = self._pinned_key.get(token)
        if held == list_key:
            return self._pinned[held]
        # Past here both keys are epoch-scoped (a bare token is held).
        if held is not None and held[1] > list_key[1]:
            return None
        self._pinned_key[token] = list_key
        pinned = self._pinned[list_key] = {}
        if held is not None:
            self._demote(held)
        return pinned

    def _demote(self, list_key: Hashable) -> None:
        """Move an older epoch's pinned entries to the LRU."""
        directory = self._pinned_dirs.pop(list_key, None)
        if directory is not None:
            self._admit_directory(list_key, directory)
        for number, block in self._pinned.pop(list_key).items():
            self._admit((list_key, number), block)


def _token_of(list_key: Hashable) -> Hashable:
    return list_key[0] if isinstance(list_key, tuple) else list_key

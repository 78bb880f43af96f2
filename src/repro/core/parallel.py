"""Concurrency primitives: the shard fan-out executor.

An index (:mod:`repro.core.engine`) evaluates every compiled plan
against each of its partitions independently; this module owns *how*
that fan-out runs.  :class:`ShardExecutor` wraps a
:class:`~concurrent.futures.ThreadPoolExecutor` with

* a sequential fallback at ``workers=1`` (no pool, no thread hops --
  the default, and the right choice on single-core hosts or under a
  busy GIL),
* lazy pool construction (an executor that never fans out never starts
  threads), and
* order-preserving :meth:`map` semantics with exception propagation,
  so callers can zip results back to shards positionally.

Readers need no coordination primitive from here: the index pins a
store version per query and writers commit freely.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

Item = TypeVar("Item")
Result = TypeVar("Result")


class ShardExecutor:
    """Runs one callable per shard, in parallel when ``workers > 1``."""

    def __init__(self, max_workers: int = 1) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None

    def map(self, fn: Callable[[Item], Result],
            items: Iterable[Item]) -> list[Result]:
        """Apply ``fn`` to every item; results in item order.

        The first exception raised by any task propagates to the caller
        (remaining tasks still run to completion under the pool's
        semantics; per-shard work never partially mutates the index).
        """
        materialized: Sequence[Item] = list(items)
        if self.max_workers == 1 or len(materialized) <= 1:
            return [fn(item) for item in materialized]
        return list(self._ensure_pool().map(fn, materialized))

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers,
                thread_name_prefix="repro-shard")
        return self._pool

    def shutdown(self) -> None:
        """Stop the pool threads (idempotent; the executor stays usable
        sequentially afterwards only via a fresh pool)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

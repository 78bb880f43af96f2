"""Fault injection for the crash-consistency test suite.

Simulates process-kill crashes at the file layer beneath the pager and
the write-ahead log: a :class:`FaultPlan` counts durability-relevant
events (writes, truncates, fsyncs) and, when armed, aborts the process's
I/O at a chosen event by raising :class:`CrashError` -- optionally after
*tearing* the fatal write (only its first K bytes reach the file, the
classic torn-page failure).  ``fail_fsync`` makes the next fsync raise
instead, modeling a device that lies about durability.

Crash model: everything written before the crash event survives
(process kill, not power loss -- the page cache is assumed intact), the
crashing write may be torn, and nothing after it happens.  The WAL's
single-write-plus-fsync commit groups are exactly what make this model
recoverable; ``tests/storage/test_crash.py`` sweeps the event counter
through every mutation and asserts pre-or-post recovery.

Two injection surfaces:

* :func:`inject` -- a context manager that wraps every file the storage
  layer opens while active (pager files, WAL files, including stores a
  ``compact`` creates mid-operation);
* :class:`FaultyPager` -- wraps one already-open pager (and its WAL).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from .errors import StorageError
from .kvstore import KVStore


class CrashError(StorageError):
    """The simulated crash: all I/O after this point is dead."""


class FaultPlan:
    """Shared event counter + crash schedule for a set of wrapped files.

    ``crash_at`` is the 1-based event number to die on (``None`` = count
    only); ``tear_bytes`` keeps that many bytes of the fatal write (when
    it is a write); ``fail_fsync`` turns the fatal event's fsync -- or,
    when ``crash_at`` is None, every fsync -- into a failure.  The plan
    starts disarmed so a harness can open an index without consuming
    events; call :meth:`arm` right before the mutation under test.
    """

    def __init__(self, crash_at: int | None = None, *,
                 tear_bytes: int = 0, fail_fsync: bool = False) -> None:
        self.crash_at = crash_at
        self.tear_bytes = tear_bytes
        self.fail_fsync = fail_fsync
        self.events = 0
        self.armed = False
        self.crashed = False
        self.log: list[tuple[str, str, int]] = []

    def arm(self) -> None:
        self.events = 0
        self.armed = True

    def disarm(self) -> None:
        self.armed = False

    def _tick(self, kind: str, role: str, size: int) -> bool:
        """Count one event; True when this event is the crash point."""
        if not self.armed or self.crashed:
            return False
        self.events += 1
        self.log.append((kind, role, size))
        return self.crash_at is not None and self.events >= self.crash_at

    def _die(self) -> None:
        self.crashed = True
        raise CrashError(f"injected crash at event {self.events}")


class FaultyFile:
    """File wrapper routing writes/fsyncs through a :class:`FaultPlan`.

    Reads, seeks and closes pass straight through (closing flushes the
    buffered layer -- pre-crash writes survive a process kill).  After
    the plan has crashed, every further write or fsync raises again:
    a dead process cannot keep writing.
    """

    def __init__(self, handle, plan: FaultPlan, role: str = "") -> None:
        self._file = handle
        self._plan = plan
        self._role = role

    def write(self, data: bytes) -> int:
        plan = self._plan
        if plan.crashed and plan.armed:
            raise CrashError("write after simulated crash")
        if plan._tick("write", self._role, len(data)):
            torn = data[:max(0, min(plan.tear_bytes, len(data) - 1))]
            if torn:
                self._file.write(torn)
            self._file.flush()
            plan._die()
        return self._file.write(data)

    def truncate(self, size: int | None = None) -> int:
        plan = self._plan
        if plan.crashed and plan.armed:
            raise CrashError("truncate after simulated crash")
        if plan._tick("truncate", self._role, size or 0):
            plan._die()
        return self._file.truncate() if size is None \
            else self._file.truncate(size)

    def fsync(self) -> None:
        plan = self._plan
        if plan.crashed and plan.armed:
            raise CrashError("fsync after simulated crash")
        fatal = plan._tick("fsync", self._role, 0)
        if fatal or (plan.armed and plan.fail_fsync
                     and plan.crash_at is None):
            plan._die()
        self._file.flush()
        os.fsync(self._file.fileno())

    # -- passthrough -------------------------------------------------------

    def read(self, size: int = -1) -> bytes:
        return self._file.read(size)

    def seek(self, offset: int, whence: int = 0) -> int:
        return self._file.seek(offset, whence)

    def tell(self) -> int:
        return self._file.tell()

    def flush(self) -> None:
        self._file.flush()

    def fileno(self) -> int:
        return self._file.fileno()

    @property
    def closed(self) -> bool:
        return self._file.closed

    def close(self) -> None:
        self._file.close()


#: Active plan installed by :func:`inject`; the pager/WAL open path asks
#: :func:`wrap_file` so stores created *during* a faulted operation (a
#: compact's fresh destination) are wrapped too.
_ACTIVE_PLAN: FaultPlan | None = None


def wrap_file(handle, role: str = ""):
    """Wrap ``handle`` with the active plan, if fault injection is on."""
    if _ACTIVE_PLAN is None:
        return handle
    return FaultyFile(handle, _ACTIVE_PLAN, role)


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Route every storage file opened in this block through ``plan``."""
    global _ACTIVE_PLAN
    if _ACTIVE_PLAN is not None:
        raise StorageError("fault injection is not reentrant")
    _ACTIVE_PLAN = plan
    try:
        yield plan
    finally:
        _ACTIVE_PLAN = None


class FaultyPager:
    """Instrument one open pager (and its WAL) with a fault plan.

    For targeted unit tests where the store is already open; the sweep
    harness prefers :func:`inject`, which also catches files opened
    mid-operation.
    """

    def __init__(self, pager, plan: FaultPlan) -> None:
        self.pager = pager
        self.plan = plan
        pager._file = FaultyFile(pager._file, plan, role="pager")
        pager.wal._file = FaultyFile(pager.wal._file, plan, role="wal")

    def __getattr__(self, name: str):
        return getattr(self.pager, name)


def drop_store(store: KVStore) -> None:
    """Release a crashed store's file descriptors without store writes.

    A crashed process never runs ``close()`` -- calling it would flush
    headers and checkpoint the WAL, un-crashing the simulation.  This
    closes the raw handles (buffered pre-crash bytes still reach the OS,
    matching the process-kill model) and marks the store closed.
    """
    base = getattr(store, "base", store)
    pager = getattr(base, "_pager", None)
    if pager is not None:
        for handle in (pager._file, pager.wal._file):
            try:
                handle.close()
            except (OSError, ValueError, CrashError):
                pass
    base._closed = True
    store._closed = True

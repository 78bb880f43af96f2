"""External-memory index construction: :func:`build_external` is the
index writer of :mod:`repro.core.updates` with a bounded posting buffer;
this module keeps its import path."""

from .updates import DEFAULT_MEMORY_BUDGET, build_external

__all__ = ["DEFAULT_MEMORY_BUDGET", "build_external"]

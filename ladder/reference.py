"""The reference kernel: how fast is this machine *right now*?

On the shared VM the benchmark runs on, the same round of the same
process takes 110 ms in one minute and 170 ms in the next: neighbours
contend for the shared cache, and cache-missing interpreter work slows
by half while a tight arithmetic loop slows by a tenth (README, "Why a
reference kernel").  The states last from tens of seconds to minutes,
longer than a run, so no estimator inside a run can dodge them.

Every timed phase therefore interleaves its rounds with runs of this
fixed kernel and reports ``floor(rounds) * NOMINAL_S / floor(kernel)``:
the time the phase would have taken at the speed at which the kernel
takes ``NOMINAL_S``.  The kernel does the two things the program does
all day: random 4 KiB page copies out of a 4 MiB buffer, each followed
by a short ``struct`` parse (the storage layer), and a walk over small
heap objects in an order unrelated to where they live (the interpreter
above it).  In ten-round windows over ten minutes in which ``point_uniform``
slowed to twice its time and recovered, the ratio to the page half
alone had a CV of 7 %, to both halves 5 %, against 17 % raw (``served_rw``:
5.2, 4.9, 13; the other two workloads: no difference between the
kernels), and the program's time rose in proportion to the kernel's
(log-log slope 0.8 to 1.1 over the four workloads).  The kernel is the benchmark's own code: a change to the
program cannot touch it.  Raw times stay in the run record.
"""

from __future__ import annotations

import random
import struct
import time

#: Kernel time on this host when its neighbours are quiet; times are
#: reported as if the kernel always took this long.
NOMINAL_S = 0.0080

BUFFER_BYTES = 4 * 1024 * 1024
PAGE = 4096
PAGES_PER_RUN = 1500
FIELDS_PER_PAGE = 12
HEAP_OBJECTS = 1 << 16
VISITS_PER_RUN = 25000


class ReferenceKernel:
    """Fixed memory-bound work, deterministic and allocation-light."""

    def __init__(self) -> None:
        rng = random.Random(20130322)
        block = bytes(rng.getrandbits(8) for _ in range(1 << 16))
        self._buffer = block * (BUFFER_BYTES // len(block))
        self._offsets = [rng.randrange(0, BUFFER_BYTES - PAGE) & ~(PAGE - 1)
                         for _ in range(PAGES_PER_RUN)]
        heap = [(number, str(number))
                for number in range(1000, 1000 + HEAP_OBJECTS)]
        self._heap = heap   # kept, so that the visited objects stay scattered
        self._visits = [heap[rng.randrange(HEAP_OBJECTS)]
                        for _ in range(VISITS_PER_RUN)]

    def run(self) -> float:
        """Do the work once; return the seconds it took."""
        buffer, unpack = self._buffer, struct.unpack_from
        total = 0
        start = time.perf_counter()
        for offset in self._offsets:
            page = buffer[offset:offset + PAGE]
            position = 0
            for _ in range(FIELDS_PER_PAGE):
                skip, value = unpack("<HH", page, position)
                position += 8 + (skip & 63)
                total += value
        for number, text in self._visits:
            total += number + len(text)
        return time.perf_counter() - start


def at_nominal_speed(seconds: float, kernel_floor_s: float) -> float:
    """``seconds`` rescaled to the speed at which the kernel is nominal."""
    if kernel_floor_s <= 0:
        raise ValueError("kernel time must be positive")
    return seconds * NOMINAL_S / kernel_floor_s

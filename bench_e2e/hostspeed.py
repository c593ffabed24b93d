"""Timings scaled to a reference host speed.

A shared host can change speed by 1.7x from one second to the next, and
CPU time follows wall time, so plain host seconds of one run say more
about the neighbours than about the program.  Each timed section is
therefore bracketed by a fixed reference kernel, and its host seconds
are scaled by ``REFERENCE_S`` over the mean of the two kernel times.  A
change to the program moves the scaled time as much as the host
seconds; a change of host speed moves the section and the kernel alike
and cancels out.

Only the standard library is imported here, so a child interpreter can
time the kernel without importing anything the benchmark measures.
"""

from __future__ import annotations

import time
from typing import Dict, List

#: Loop count of the reference kernel, and the seconds it takes at the
#: reference speed (about its median on a shared 2-vCPU x86-64 VM).
REFERENCE_LOOPS = 200_000
REFERENCE_S = 0.035


def reference_seconds() -> float:
    """Seconds the fixed reference kernel takes on this host right now.

    The kernel is plain interpreted Python that calls nothing in the
    program, so only the host moves it, never a change to the program.
    """
    counts: Dict[int, int] = {}
    started = time.perf_counter()
    for i in range(REFERENCE_LOOPS):
        counts[i % 1000] = counts.get(i % 1000, 0) + i * 3
    return time.perf_counter() - started


class HostSpeed:
    """Scales timed sections to the reference speed; keeps every kernel
    time it used."""

    def __init__(self) -> None:
        self.before = 0.0
        self.samples: List[float] = []

    def start(self) -> None:
        """Time the kernel just before a section."""
        self.before = reference_seconds()

    def scaled(self, seconds: float) -> float:
        """Time the kernel just after the section; its scaled seconds."""
        return self.scale(seconds, self.before, reference_seconds())

    def scale(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` of a section the kernel took ``before``/``after``
        seconds around, at the reference speed."""
        self.samples += [before, after]
        return seconds * 2.0 * REFERENCE_S / (before + after)

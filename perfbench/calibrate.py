"""Host CPU time re-expressed at a reference core speed.

On a shared host the speed of a core drifts: a fixed pure-Python loop has
been seen to take anywhere from 1x to 1.7x its fastest time, changing
within a second, and independently on each core.  Raw CPU seconds of one
workload therefore spread far more between runs than any change worth
catching.

:class:`ReferenceClock` tracks that drift from inside the measured
process.  While a section runs it arms a profiling timer; every
:data:`SAMPLE_EVERY_S` of CPU the handler runs :func:`kernel`, a fixed
stdlib-only piece of work (no program code, so no change to the program
moves it), and times it on the thread CPU clock.  A section is cut into
the intervals between kernel runs (one also runs at its start and its
end), and each interval's CPU seconds are scaled by
``REFERENCE_KERNEL_S / kernel time`` with the mean of the kernel runs
either side of it.  The result is the section's CPU seconds on a core at
which one kernel run takes :data:`REFERENCE_KERNEL_S`; the kernels' own
time is left out.

The program is single-threaded, so the thread CPU clock is its CPU clock.
"""

from __future__ import annotations

import gc
import hashlib
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List

#: CPU seconds between two kernel runs while a section is measured.
SAMPLE_EVERY_S = 0.05

#: Kernel time that defines the reference speed.  It is about the kernel's
#: time inside a run on a 2-vCPU Xeon VM, so reference seconds stay close
#: to that machine's CPU seconds.
REFERENCE_KERNEL_S = 0.001

_PRIME = (1 << 255) - 19


def kernel() -> int:
    """Fixed interpreter work of the kinds the program does: dict and tuple
    traffic, big-integer arithmetic, hashing and building byte strings."""
    table: dict = {}
    acc = 0
    for i in range(200):
        key = (i * 2654435761) & 0xFFF
        table[key] = table.get(key, 0) + i
        acc ^= hash((key, i))
    acc = pow(acc | 3, _PRIME - 2, _PRIME)
    digest = hashlib.sha256(acc.to_bytes(32, "big")).digest()
    parts = []
    for i in range(150):
        record = {"k": i, "v": (i, str(i)), "t": [i, i + 1]}
        parts.append(repr(sorted(record.items())).encode())
    return len(b"".join(parts)) ^ digest[0]


@dataclass
class Section:
    """One measured section: its CPU seconds raw and at the reference speed."""

    cpu_s: float = 0.0
    reference_s: float = 0.0
    kernels: List[float] = field(default_factory=list)


class ReferenceClock:
    """Measures sections of the main thread at the reference speed."""

    def __init__(self) -> None:
        self._section: Section = Section()
        self._mark = 0.0
        self._busy = False

    def _sample(self) -> None:
        """Close the interval since the last kernel run with a new kernel run."""
        now = time.thread_time()
        interval = now - self._mark
        enabled = gc.isenabled()
        gc.disable()
        try:
            kernel()
        finally:
            if enabled:
                gc.enable()
        end = time.thread_time()
        section = self._section
        section.kernels.append(end - now)
        if len(section.kernels) > 1:
            previous, current = section.kernels[-2:]
            section.cpu_s += interval
            section.reference_s += interval * 2.0 * REFERENCE_KERNEL_S / (previous + current)
        self._mark = end

    def _on_timer(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self._sample()
        finally:
            self._busy = False

    @contextmanager
    def measure(self) -> Iterator[Section]:
        """Measure the body; the yielded :class:`Section` is filled in on exit."""
        section = self._section = Section()
        previous = signal.signal(signal.SIGPROF, self._on_timer)
        self._busy = True
        try:
            self._mark = time.thread_time()
            self._sample()
            self._busy = False
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
            try:
                yield section
            finally:
                signal.setitimer(signal.ITIMER_PROF, 0, 0)
                self._busy = True
                self._sample()
        finally:
            self._busy = False
            signal.signal(signal.SIGPROF, previous)

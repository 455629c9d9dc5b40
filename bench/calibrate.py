"""Machine-speed calibration for the end-to-end times.

On a shared machine the same call can take twice as long from one minute
to the next, and a quarter longer from one second to the next, because
neighbours slow the processor down; no estimator over raw wall time is
steady across runs then.  The benchmark therefore times a tiny fixed
kernel from a timer signal every ``INTERVAL_S`` while the calls run, and
reports each call's time scaled to the kernel's reference speed:

    scaled = wall * reference_s / mean(kernel timings taken during the call)

Time spent in the kernel is left out of ``wall`` (see ``clock``).  The
kernels are frozen here, so a change to the package cannot move them; a
program that does more work still reads slower by the same share.  One
caveat: the kernel runs inside the calls and shares their caches.  During
the hodge_pair(5,2), sym_gradient(4) and hodge_pair(4,1) calls it read
about 10% slower than alone, so a change to the program's working set can
move the scale by a few percent.  The
``exact`` kernel is pure-Python rational arithmetic, like the exact
layers; the ``numeric`` kernel is NumPy FFTs and array arithmetic, like
the spectral lab.  Each workload uses the kernel that matches its work,
because slowdowns hit interpreted code and NumPy code by different shares.
The reference times were read on a 2-core x86-64 machine with CPython 3.11
and NumPy 2.4 when it was quiet; they only fix the unit.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.025
REFERENCE_S = {"exact": 0.0007, "numeric": 0.0015}


def exact_kernel() -> None:
    x = Fraction(1, 3)
    table = {}
    for i in range(150):
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i % 11 + 1)
        x = Fraction(x.numerator % 1000003, x.denominator % 999983 or 1)
        table[(i % 97, i % 13)] = x


_FIELD = []


def numeric_kernel() -> None:
    import numpy as np

    if not _FIELD:
        _FIELD.append(np.sin(np.add.outer(np.arange(128.0), 0.37 * np.arange(256.0))))
    spectrum = np.fft.fftn(_FIELD[0])
    float(np.abs(np.fft.ifftn(spectrum * 0.5).real).sum())


KERNELS = {"exact": exact_kernel, "numeric": numeric_kernel}


class Calibration:
    """Kernel timings taken from a timer signal while the context is open.
    Timestamps come from ``clock``."""

    def __init__(self, kind: str):
        self.kind = kind
        self.at: list = []
        self.seconds: list = []
        self.spent = 0.0
        self._running = False

    def clock(self) -> float:
        """``time.perf_counter`` without the time spent in the kernel."""
        return time.perf_counter() - self.spent

    def _sample(self, *_signal) -> None:
        if self._running:
            return  # a timer signal that arrived during the kernel itself
        self._running = True
        # Without the collector: a collection inside the kernel would cost in
        # proportion to the heap of the call it interrupted.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        try:
            KERNELS[self.kind]()
        finally:
            seconds = time.perf_counter() - start
            if collecting:
                gc.enable()
            self._running = False
        self.at.append(start - self.spent)
        self.seconds.append(seconds)
        self.spent += seconds

    def __enter__(self) -> "Calibration":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float, least: int = 8) -> float:
        """``end - start`` (``clock`` times) scaled by the kernel timings taken
        in that interval, or by the ``least`` nearest ones if it had fewer."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        if hi - lo < least:
            lo = max(0, bisect.bisect_left(self.at, (start + end) / 2) - least // 2)
            hi = lo + least
        near = self.seconds[lo:hi]
        return (end - start) * REFERENCE_S[self.kind] / statistics.mean(near)

"""Host speed meter: a fixed piece of work, timed every few milliseconds
while the program runs, so that a run's times can be scaled to one host speed.

On a shared host the same code runs at speeds up to 1.8x apart, in
stretches of seconds to minutes, and whole runs can fall into a slow or a
fast stretch.  The meter measures that speed during each pass: a timer
signal interrupts the program every ``INTERVAL_S`` and runs ``_work``
(small numpy operations and piecewise-polynomial bookkeeping driven from
Python, the mix srmarket itself spends its time on), timing it.  A pass's
wall time times ``REF_TICK_S`` over the mean tick time during the pass is
the time the pass would have taken with the host at its reference speed.
The meter's work never touches srmarket, so a change to the library moves
the scaled time in proportion to the wall time.

Each tick costs about 0.3 ms, under 2% of the run; that cost is part of
every scaled time alike.  Over six 20-second runs per workload in a noisy
hour, the spread of the median pass time between runs (interquartile range
over median) fell from 24-53% for wall times to 1-8% for scaled times;
README.md gives the figures of the benchmark as committed.
"""
from __future__ import annotations

import math
import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.02
# the tick time with the host at its reference speed: a fast tick on the
# 2-core host this benchmark was built on (README.md); a constant, so
# scaled times read in seconds and compare across runs
REF_TICK_S = 2.5e-4

_SMALL = np.arange(5.0)


class _Piece:
    __slots__ = ("lo", "coeffs")

    def __init__(self, lo, coeffs):
        self.lo, self.coeffs = lo, coeffs

    def at(self, x):
        c = self.coeffs
        return c[0] + x * (c[1] + x * c[2])


_PIECES = [_Piece(float(i), (0.5 * i, 0.25, -0.125)) for i in range(16)]


def _work() -> float:
    """Small-array numpy calls and piecewise-polynomial bookkeeping in
    Python: the two kinds of work srmarket's passes are made of."""
    acc = 0.0
    for i in range(20):
        x = _SMALL * 1.5 + i
        acc += float(np.dot(x, _SMALL)) + float(np.max(x))
    for k in range(18):
        pieces = sorted(_PIECES, key=lambda p: -p.lo)
        acc += sum(p.at(0.5 * k) for p in pieces)
        acc += math.log1p(math.exp(-(abs(acc) % 5.0)))
        acc += len({p.lo: p for p in pieces})
    return acc


class SpeedMeter:
    """Times ``_work`` on a timer signal between ``start`` and ``stop``."""

    def __init__(self):
        self.total_s = 0.0
        self.ticks = 0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        _work()
        self.total_s += perf_counter() - t0
        self.ticks += 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def reset(self) -> None:
        self.total_s = 0.0
        self.ticks = 0

    def mean_tick_s(self) -> float:
        """Mean tick time since the last reset."""
        if self.ticks == 0:
            raise RuntimeError("the speed meter recorded no tick")
        return self.total_s / self.ticks

    def scale(self) -> float:
        """Factor that takes a wall time since the last reset to the
        reference speed."""
        return REF_TICK_S / self.mean_tick_s()

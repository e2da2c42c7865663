"""Machine speed from a fixed probe, to scale timings to one reference speed.

On a shared host the same pass runs up to about 1.7 times slower for
seconds to minutes at a time, as other tenants load the machine, so raw
seconds of one run say more about the host than about the program.  The
probe is a fixed piece of interpreter work and a fixed piece of numpy
work, timed with the garbage collector off so that the program's heap
does not reach it (with the collector on, a live heap of a million
objects slowed it by 15 %).  Its slowdown against ``REFERENCE_S`` is the
geometric mean of the two parts' ratios; a time measured next to a probe,
divided by that slowdown, is the time at the reference speed.

``Sampler`` runs a short probe every ``EVERY_S`` of work, from a timer
signal, so that a long call is scaled by the speed the machine had while
it ran, not by the speed at its two ends.
"""

from __future__ import annotations

import gc
import math
import signal
import time

import numpy as np

# one probe unit (interpreter, numpy) on the machine in reference/machine.json,
# one BLAS thread; they fix the scale of scaled times, not their spread
REFERENCE_S = (0.00058, 0.00060)
EVERY_S = 0.1

_A = np.random.default_rng(12345).standard_normal((96, 96))
_V = np.random.default_rng(54321).standard_normal(4096)


def _python() -> int:
    table = {}
    for i in range(2000):
        key = (i & 63, i >> 6, i % 7)
        table[key] = table.get(key, 0) + i * i
    return sum(v for k, v in table.items() if k[2])


def _numpy() -> float:
    acc = 0.0
    for _ in range(3):
        b = _A @ _A
        acc += float(np.abs(np.fft.rfft(_V)).sum() + b.trace())
        acc += float(np.sort(_V * acc % 1.0)[7])
    return acc


def probe(units: int = 1) -> tuple[float, float]:
    """Seconds taken by ``units`` of the interpreter part and of the numpy part."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(units):
            _python()
        t1 = time.perf_counter()
        for _ in range(units):
            _numpy()
        t2 = time.perf_counter()
    finally:
        gc.enable()
    return (t1 - t0) / units, (t2 - t1) / units


def slowdown(units: int = 1) -> float:
    """How many times slower than the reference the machine runs now.
    One untimed unit first, so caches and branch predictors left cold by
    the program's own work do not count."""
    probe(1)
    py, nump = probe(units)
    return math.sqrt(py / REFERENCE_S[0] * nump / REFERENCE_S[1])


class Sampler:
    """Scales the time between ``start`` and each ``split`` to the reference
    speed.  A SIGALRM every ``EVERY_S`` cuts the work into intervals; each
    is divided by the slowdown of a probe run at its end.  Probe
    time is left out of both totals.  Only for the main thread."""

    def start(self) -> None:
        self.raw = self.scaled = 0.0
        self._split = (0.0, 0.0)
        self._busy = False
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S)

    def stop(self) -> None:
        self._busy = True       # a tick already pending must not re-arm the timer
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def split(self) -> tuple[float, float]:
        """Settle the interval up to now; (raw, scaled) seconds since the last split."""
        self._busy = True
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._settle()
        self._busy = False
        signal.setitimer(signal.ITIMER_REAL, EVERY_S)
        raw, scaled = self._split
        self._split = (self.raw, self.scaled)
        return self.raw - raw, self.scaled - scaled

    def _settle(self) -> None:
        work = time.perf_counter() - self._mark
        factor = slowdown()
        self.raw += work
        self.scaled += work / factor
        self._mark = time.perf_counter()

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._settle()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S)

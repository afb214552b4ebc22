"""Timing on a shared machine: every timed call sits between short runs
of a fixed reference probe, and its time is corrected by how slow the
probe ran around it.

The machine's cores are shared with other work that slows a process by
up to half, for stretches from a fraction of a second to minutes, and
slows any code alike (a pure-Python loop and a small matmul slow down
together). So the probes beside a call say how slow that moment was,
and a call's time is reported as

    corrected = seconds * REFERENCE_PROBE_S / mean of the probes beside the call

that is, the call's time in units of the probe's time at that moment,
expressed in seconds of a machine on which the probe takes
``REFERENCE_PROBE_S``: its unslowed time on the machine the reference
figures in README.md come from. A machine that is steadily faster or
slower for the probe reads the same; what a change to the program does
to its own time shows in full, since the probe is not the program's
code. Each metric is a median of corrected times; the raw medians and
the probe's own figures go into the run record beside them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the probe's unslowed time on the machine described in README.md:
# its third fastest time read 2.12 to 2.34 ms in streams of 3000 probes,
# and 1.88 to 2.33 ms in the 30-second runs of the reference figures.
REFERENCE_PROBE_S = 2.1e-3
PROBES_PER_GAP = 3
# 48x64 @ 64x64 stays below OpenBLAS's size for splitting a product over
# threads, so the probe runs on one thread whatever the BLAS thread count,
# and a change to that count moves the program but not the probe.
_A = np.random.default_rng(0).random((64, 64))
_B = np.random.default_rng(1).random((48, 64))


def probe() -> float:
    """Seconds the reference work takes now: a Python loop, small matmuls
    and element-wise numpy, about 2 ms on an unslowed core."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i
    for _ in range(80):
        np.tanh(_B @ _A)
    return time.perf_counter() - t0


def stopwatch(fn):
    """Call ``fn``; return its wall seconds and its result."""
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


class Clock:
    """Records timed calls, each between two gaps of ``PROBES_PER_GAP``
    probes; a gap is shared by the calls on either side of it."""

    def __init__(self):
        self.probes: list[float] = []
        self.calls: list[tuple[object, float, float]] = []  # (key, seconds, mean of the probes beside)

    def gap(self) -> None:
        self.probes.extend(probe() for _ in range(PROBES_PER_GAP))

    def between_probes(self, key, fn):
        """Run ``fn``, which returns ``(seconds, output)``, between two
        gaps of probes and record its seconds under ``key``. An exception
        from ``fn`` is passed on and nothing is recorded."""
        if not self.probes:
            self.gap()
        before = len(self.probes)
        try:
            seconds, out = fn()
        finally:
            self.gap()
        k = PROBES_PER_GAP
        self.add(key, seconds, statistics.fmean(self.probes[before - k : before + k]))
        return out

    def add(self, key, seconds: float, beside: float) -> None:
        """Record a call timed elsewhere, with the mean of the probes beside it."""
        self.calls.append((key, seconds, beside))

    def raw(self, key) -> list[float]:
        return [s for k, s, _ in self.calls if k == key]

    def corrected(self, key) -> list[float]:
        return [s * REFERENCE_PROBE_S / beside for k, s, beside in self.calls if k == key]

    def fastest(self) -> float:
        """The probe's third fastest time in the run (the fastest is now
        and then a single probe far below all the others)."""
        return sorted(self.probes)[min(2, len(self.probes) - 1)]

    def median(self, key, raw: bool = False) -> float:
        return statistics.median(self.raw(key) if raw else self.corrected(key))

    def record(self) -> dict:
        """The probe figures, for the run record."""
        return {
            "probe_third_fastest_ms": 1e3 * self.fastest(),
            "probe_median_ms": 1e3 * statistics.median(self.probes),
            "probes": len(self.probes),
        }

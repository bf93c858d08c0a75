"""Machine speed sampled while an op runs, to normalise op times.

On a shared host the speed at which one process executes drifts by tens of
percent within and between runs (other tenants share the cores and their
caches, and CPU time equals wall time, so this is speed, not scheduling).
Wall seconds per op drift with it, and run medians of the same code spread
wider than any useful regression bound.

While an op runs, an interval timer interrupts it every ``TICK_S`` seconds
and the handler times a fixed reference kernel: one sweep of complex Jacobi
rotations on a small matrix, done with numpy slices and Python scalar
arithmetic, the kind of work the program spends its time on, written here
so that no change to the program alters it.  Samples are spread evenly over
the op, long calls included, so their mean is the speed the op saw; the
slowest ``TRIM`` share of samples is dropped first, since a sample that a
context switch or garbage collection lands in says nothing about speed.
The op's time at nominal speed is its wall time minus the time spent in
the handler, times ``NOMINAL_KERNEL_S`` over that mean.  ``NOMINAL_KERNEL_S``
is a fixed unit, about the kernel's time on the 2-vCPU x86-64 host the
benchmark was written on, so the result reads as seconds.

Why this kernel: on that host, over ops of both benchmark workloads run in
three 40-second runs whose wall-time medians differed by up to 60%, log op
time against log kernel time had a slope of 0.98 (fixtures_cli) and 0.80
(classical_n7), and the normalised run medians stayed within 4%.  A pure
Python integer loop overreacted (slopes 1.50 and 1.26), and a kernel
median tracked worse than the trimmed mean.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

TICK_S = 0.02
TRIM = 0.1
NOMINAL_KERNEL_S = 0.00015
_DIM = 5


def _reference_matrix() -> np.ndarray:
    rng = np.random.default_rng(20511)
    z = rng.standard_normal((_DIM, _DIM)) + 1j * rng.standard_normal((_DIM, _DIM))
    return z + z.conj().T


_MATRIX = _reference_matrix()


def kernel() -> float:
    """Run the reference kernel once; return a value so the work is used."""
    a = _MATRIX.copy()
    for p in range(_DIM - 1):
        for q in range(p + 1, _DIM):
            apq = a[p, q]
            r = abs(apq)
            w = apq / r
            tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
            t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            colp, colq = a[:, p].copy(), a[:, q].copy()
            a[:, p] = c * colp - s * w.conjugate() * colq
            a[:, q] = s * w * colp + c * colq
    return float(a[0, 0].real)


class SpeedProbe:
    """Samples the reference kernel every ``tick_s`` seconds during ``run``."""

    def __init__(self, tick_s: float = TICK_S):
        self.tick_s = tick_s
        self.samples: list[float] = []
        self.probe_s = 0.0

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.probe_s += time.perf_counter() - t0

    def run(self, fn) -> dict:
        """Call ``fn()`` under the probe; return its wall seconds, the seconds
        the probe took from it, the kernel's trimmed mean and the op's
        seconds at nominal speed."""
        self.samples, self.probe_s = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()  # at least one sample, however short fn is
        self.probe_s = 0.0
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        try:
            fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            wall_s = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        kept = sorted(self.samples)[:max(1, int(len(self.samples) * (1.0 - TRIM)))]
        kernel_s = statistics.fmean(kept)
        return {"wall_s": wall_s, "probe_s": self.probe_s, "kernel_s": kernel_s,
                "samples": len(self.samples),
                "norm_s": (wall_s - self.probe_s) * NOMINAL_KERNEL_S / kernel_s}

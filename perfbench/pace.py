"""Speed probe: how fast the CPU that runs the ops is, while they run.

A shared virtual machine's CPU speed wanders by up to 1.8x over seconds to
minutes, with no steal time to show for it, and a run of 30 seconds cannot
average that away.  So the timed metrics are reported in reference seconds:
a measured time multiplied by how much slower than reference speed the CPU
ran during it.

The probe is a thread of the benchmark process.  Every GAP_S seconds it runs
`chunk`, a fixed exact-rational elimination that uses the standard library
only (never the package under test), and records the chunk's own thread CPU
time.  The benchmark pins itself to one CPU before it starts any thread or
child process, so the probe shares that CPU with every op and set-up it
times, fresh interpreters included; a probe on another CPU does not track
the ops' speed.  The chunk takes about 1.5 ms every 40 ms, so it adds a
steady few per cent to wall times and nothing to CPU times of child
processes.
"""

from __future__ import annotations

import os
import threading
from fractions import Fraction
from statistics import fmean
from time import perf_counter, thread_time

GAP_S = 0.04
HALO_S = 0.25  # samples this close to a timed interval also describe it
MIN_SAMPLES = 8
# CPU seconds `chunk` takes at reference speed (CPython 3.11, Xeon VM, pinned
# to a CPU that is busy with an op).  Times are reported at this speed.
REFERENCE_CHUNK_S = 0.0015


def pin_to_one_cpu():
    """Pin this process, and the threads and children it starts later, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def chunk(n=7):
    """Gauss-Jordan elimination of a fixed n x (n+1) rational matrix."""
    m = [[Fraction((i * 7 + j * 13) % 17 - 8, 1 + (i + j) % 5) for j in range(n + 1)]
         for i in range(n)]
    for c in range(n):
        p = next(i for i in range(c, n) if m[i][c] != 0)
        m[c], m[p] = m[p], m[c]
        pivot = m[c][c]
        m[c] = [x / pivot for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return m


class Probe:
    """Runs `chunk` every GAP_S seconds in a thread; use as a context manager."""

    def __init__(self, gap=GAP_S):
        self.gap = gap
        self.samples = []  # (perf_counter at the chunk's end, its thread CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self):
        while not self._stop.wait(self.gap):
            c0 = thread_time()
            chunk()
            self.samples.append((perf_counter(), thread_time() - c0))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def slowdown(self, start, end):
        """How many times slower than reference speed the CPU ran in [start, end].

        Averages the chunks that ended within HALO_S of the interval, or the
        MIN_SAMPLES nearest to it when there are fewer.
        """
        near = [c for t, c in self.samples if start - HALO_S <= t <= end + HALO_S]
        if len(near) < MIN_SAMPLES:
            mid = (start + end) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
            near = [c for _, c in nearest]
        if not near:
            raise RuntimeError("the speed probe recorded no samples")
        return fmean(near) / REFERENCE_CHUNK_S

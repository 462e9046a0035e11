"""Host-speed calibration for the timed commands.

The kernel does a fixed amount of the two kinds of work lu3q spends its
time on: a pure-Python big-int GF(2) elimination (the shape of
``gf2._echelon``) and small numpy integer mat-vecs (the shape of the
bit-flipping decoder).  It imports nothing from lu3q.

A shared 2-core host runs the same code at speeds that drift by up to 2x
within seconds, so one kernel run before and one after a 15 s command
says little about the speed during it.  ``Sampler`` therefore runs the
kernel once right before a command and then every ``INTERVAL_S`` during
it, from a SIGALRM handler.  The handler's own time is taken out of the
command's wall time, and the rest is scaled by the mean of
``NOMINAL_S / sample``: samples are evenly spaced in wall time, so that
mean is the host's average speed over the command relative to the
reference host.
"""

from __future__ import annotations

import random
import signal
import time

import numpy as np

# About the kernel's median time on the reference host (Python 3.11.7,
# numpy 2.4.6, 2 cores), which itself drifts with the host's load.
# Fixed: changing it rescales every job_s.
NOMINAL_S = 0.0040

INTERVAL_S = 0.05

_N_ROWS = 170
_N_BITS = 704
_MATVECS = 5


class Kernel:
    """Fixed inputs for the calibration kernel, built once per process."""

    def __init__(self):
        rng = random.Random(0x5EED)
        self.rows = [rng.getrandbits(_N_BITS) for _ in range(_N_ROWS)]
        bits = np.unpackbits(
            np.frombuffer(
                b"".join(r.to_bytes(_N_BITS // 8, "little") for r in self.rows),
                dtype=np.uint8,
            )
        )
        self.mat = np.resize(bits, (512, 512)).astype(np.int64)
        self.vec = self.mat[0].copy()
        self.checksum = self._work()

    def _work(self) -> int:
        pivots: dict[int, int] = {}
        for r in self.rows:
            cur = r
            while cur:
                c = (cur & -cur).bit_length() - 1
                p = pivots.get(c)
                if p is None:
                    pivots[c] = cur
                    break
                cur ^= p
        v = self.vec
        for _ in range(_MATVECS):
            v = (self.mat @ v) & 1
        return len(pivots) * 1000 + int(v.sum())

    def time(self) -> float:
        """Wall seconds of one kernel run; raises if the work changed."""
        t0 = time.perf_counter()
        got = self._work()
        dt = time.perf_counter() - t0
        if got != self.checksum:
            raise RuntimeError(f"calibration kernel checksum {got} != {self.checksum}")
        return dt


class Sampler:
    """Times commands and samples host speed before and during each one."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.samples: list[float] = []  # every kernel time of this process
        self.paused = 0.0  # wall seconds spent in the SIGALRM handler

    def clock(self) -> float:
        """perf_counter with the handler's time taken out."""
        return time.perf_counter() - self.paused

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(self.kernel.time())
        self.paused += time.perf_counter() - t0

    def run(self, fn):
        """Call fn(); return (its result, program seconds, speed scale)."""
        first = len(self.samples)
        self.samples.append(self.kernel.time())
        previous = signal.signal(signal.SIGALRM, self._tick)
        t0 = self.clock()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            elapsed = self.clock() - t0
            signal.signal(signal.SIGALRM, previous)
        own = self.samples[first:]
        scale = sum(NOMINAL_S / s for s in own) / len(own)
        return result, elapsed, scale

"""Machine-speed calibration: a fixed reference kernel timed all through a run.

The CPU speed a process gets on a shared host drifts by tens of percent within
seconds to minutes (other tenants' cache and memory traffic, core sharing),
and CPU time does not remove that.  A run therefore times this kernel, which
never changes, every ``INTERVAL_S`` of CPU time, also in the middle of a trial
(from a SIGPROF handler, so between two bytecodes of the program, never inside
a numpy call).  The CPU time spent in the kernel is taken out of every time
the run reports, and the CPU time left is scaled, stretch by stretch, by

    factor = REFERENCE_S / kernel CPU time nearby

so a reported second is a CPU second of the program at the speed under which
the kernel takes ``REFERENCE_S``.  A program change moves the trials and not
the kernel, so it shows in full; a slower or faster host moves both.  The
kernel mixes what softcell's trials spend their time on: interpreted Python,
small numpy calls, dense BLAS/LAPACK, and streaming over an array that fits
the shared last-level cache but not the core's own, which is where paper-scale
trials keep their matrices and where other tenants' traffic slows them.  That
array adds 8 MB to the process's resident set.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

import tracing

# Median CPU time of one kernel() on an Intel Xeon at 2.1 GHz, 2 vCPUs, numpy
# 2.4.6 with OpenBLAS 0.3.31 at one thread (550 calls over 20 s).
REFERENCE_S = 0.036
BATCH = 8           # kernel samples before and after the timed stretch
OTHER_THREADS = 0.01  # largest share of CPU time other threads may use
INTERVAL_S = 0.5    # CPU seconds between two kernel samples inside it
SMOOTH = 3          # a stretch's factor uses the median of this many samples

_rng = np.random.default_rng(0)
_DENSE = (lambda m: m @ m.T + 200.0 * np.eye(200))(_rng.standard_normal((200, 200)))
_SMALL = [(lambda m: m + m.T)(_rng.standard_normal((16, 16))) for _ in range(150)]
_STREAM = _rng.standard_normal(1_000_000)


def kernel() -> int:
    s = 0
    for i in range(50_000):            # interpreter
        s += i * i % 7
    for m in _SMALL:                   # per-call overhead of small numpy calls
        np.linalg.eigh(m)
        m @ m
    for _ in range(20):                # dense BLAS and LAPACK
        np.linalg.cholesky(_DENSE)
        _DENSE @ _DENSE
    for _ in range(12):                # last-level cache traffic
        _STREAM.sum()
    return s


def _warm() -> None:
    """Bring the kernel's data back into cache, so that the timed kernel
    measures the machine rather than what the program left in the cache."""
    for m in _SMALL:
        m @ m
    _DENSE @ _DENSE
    _STREAM.sum()


class Meter:
    """Kernel samples of one run, and the map from clock readings to
    reference seconds that they give."""

    def __init__(self):
        # (start, end, kernel_s): the clock when the sample began and ended,
        # and the CPU time of the timed kernel inside it.
        self.samples: list[tuple[float, float, float]] = []
        self.other_threads_share = 0.0
        self._nodes = None

    def sample(self) -> None:
        start = tracing.clock()
        _warm()
        t0 = tracing.clock()
        kernel()
        end = tracing.clock()
        self.samples.append((start, end, end - t0))
        self._nodes = None

    def batch(self) -> None:
        for _ in range(BATCH):
            self.sample()

    def _on_timer(self, signum, frame) -> None:
        self.sample()
        # One-shot, re-armed after the sample: the timer never fires inside it.
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S)

    @contextmanager
    def sampling(self):
        """Sample before, every INTERVAL_S of CPU time during, and after the
        body.  A clock reading taken in the body is never inside a sample.
        Also measures the share of the process's CPU time that threads other
        than this one used, which the clock does not see."""
        self.batch()
        process, thread = time.process_time(), tracing.clock()
        previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
        process, thread = time.process_time() - process, tracing.clock() - thread
        # The process clock advances at ticks here, so it may read a little low.
        self.other_threads_share = max(0.0, process - thread) / thread
        self.batch()

    def kernel_s(self) -> list[float]:
        return [k for _, _, k in self.samples]

    def factors(self) -> np.ndarray:
        """Each sample's factor, from the median of the SMOOTH samples
        around it."""
        k = self.kernel_s()
        h = SMOOTH // 2
        return np.array([REFERENCE_S / statistics.median(k[max(0, i - h):i + h + 1])
                         for i in range(len(k))])

    def reference(self, t):
        """Reference seconds at clock reading ``t`` (a float or an array).

        Inside a sample the map is flat: kernel time is not program time.
        Between two samples it runs at the mean of their factors, before the
        first and after the last at that sample's factor."""
        if self._nodes is None:
            f = self.factors()
            xs, ys, y = [], [], 0.0
            for i, (start, end, _) in enumerate(self.samples):
                if i:
                    y += (start - xs[-1]) * (f[i - 1] + f[i]) / 2.0
                xs += [start, end]
                ys += [y, y]
            self._nodes = np.array(xs), np.array(ys), f[0], f[-1]
        xs, ys, first, last = self._nodes
        t = np.asarray(t, dtype=float)
        out = np.interp(t, xs, ys)
        out = np.where(t < xs[0], (t - xs[0]) * first, out)
        return np.where(t > xs[-1], ys[-1] + (t - xs[-1]) * last, out)

    def durations(self, starts, ends) -> list[float]:
        """Reference seconds between paired clock readings."""
        return (self.reference(ends) - self.reference(starts)).tolist()

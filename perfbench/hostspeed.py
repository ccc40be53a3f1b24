"""Host-speed correction of the benchmark's timings.

The reference machine is a share of a host whose speed changes by up to
2x, in stretches from a fraction of a second to minutes; the two cores
change independently.  A timing of the same work in two runs a few
minutes apart then differs by more than any regression worth catching.
So the benchmark times, in the same thread and interleaved with the
workload, fixed kernels that do not use discenv.  Probe and work share
one thread, so they run on whichever core the scheduler gives it at the
time.  Each timing is then reported in reference seconds: the measured
seconds, each stretch of them weighted by a kernel's speed around it
relative to the kernel's reference pass time.  A change to the package
moves the measured seconds and not the kernels, so it moves the
reported figure by the same factor; a change of host speed moves both
and cancels.

Kinds of work react to the host differently, so there are two kernels:

* ``small``: complex Horner evaluation on small numpy arrays in a
  Python loop, the kind of work of the envelope search, the sampling
  and the homotopy;
* ``grid``: one red-black half-sweep of a four-neighbour stencil on a
  540 x 540 array, the kind of work of the grid relaxation, which streams
  arrays larger than the cache.  When the host got faster, the small
  kernel sped up by more than the relaxation did; corrected by the grid
  kernel, the relaxation's 5-s means spread half as much as corrected
  by the small kernel.

A probe is one pass of each kernel in use, each timed in three chunks;
a pass time is three times the median chunk, so that an interrupt that
lands in one chunk does not count.  Probes open and close every round
and interrupt the work every ``PERIOD_S`` seconds (a timer signal; the
handler runs between two bytecodes of the main thread).  In a traced
round each probe is a span of its own, so the spans around it do not
count it in their self time.  Sampling the speed evenly in time
matters: one grid call can run for 25 s while the speed swings within
it.  The speed between two probes is taken as the mean of their two
speeds, and the probes' own time is left out of every timing.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

# Median pass time of each kernel over some minutes on the reference
# machine (2-core Intel Xeon share, Python 3.11.7, numpy 2.4.6).  They
# only fix the unit: reported seconds are seconds at these speeds.
REFERENCE_PASS_S = {"small": 0.012, "grid": 0.022}
PERIOD_S = 0.5     # probe interval inside an untraced round
_CHUNKS = 3

_RNG = np.random.default_rng(20120129)
_COEFFS = _RNG.standard_normal((64, 2)) + 1j * _RNG.standard_normal((64, 2))
_Z = 0.5 * _RNG.standard_normal(96) + 0j
_GRID = {}


def small_chunk(repeats=10):
    """A third of a ``small`` pass."""
    acc = 0.0
    for _ in range(repeats):
        out = np.zeros(_Z.shape + (2,), dtype=complex)
        for j in range(_COEFFS.shape[0] - 1, -1, -1):
            out = out * _Z[..., None] + _COEFFS[j]
        acc += float(out[0, 0].real)
    return acc


def grid_chunk(n=540):
    """A third of a ``grid`` pass: one half-sweep that leaves the array
    as it was (the update is multiplied by 0)."""
    if n not in _GRID:
        rng = np.random.default_rng(n)
        u = rng.standard_normal((n, n))
        parity = (np.add.outer(np.arange(n), np.arange(n)) % 2 == 0)
        _GRID[n] = (u, u + 1.0, parity[1:-1, 1:-1])
    u, obst, colour = _GRID[n]
    core = np.s_[1:-1, 1:-1]
    mean = u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:]
    new = np.minimum(obst[core], u[core] + 1.5 * (0.25 * mean - u[core]))
    delta = np.where(colour, new - u[core], 0.0)
    biggest = float(np.max(np.abs(delta)))
    u[core] += 0.0 * delta
    return biggest


_KERNELS = {"small": small_chunk, "grid": grid_chunk}


def timed_pass(kind):
    """One pass of a kernel: three times its median chunk time."""
    chunk = _KERNELS[kind]
    marks = [perf_counter()]
    for _ in range(_CHUNKS):
        chunk()
        marks.append(perf_counter())
    return _CHUNKS * statistics.median(
        b - a for a, b in zip(marks, marks[1:]))


class SpeedProbe:
    """Probes in time order, and the reference-speed length of any
    stretch of work between them."""

    def __init__(self, kinds=("small",)):
        self.kinds = tuple(kinds)
        self.starts = []   # perf_counter at each probe's start
        self.ends = []     # and end
        self.passes = {kind: [] for kind in self.kinds}   # seconds

    def probe(self):
        self.starts.append(perf_counter())
        for kind in self.kinds:
            self.passes[kind].append(timed_pass(kind))
        self.ends.append(perf_counter())
        return len(self.ends) - 1

    def median_pass(self, kind="small"):
        return statistics.median(self.passes[kind])

    def _scale(self, kind, i, j):
        """Reference seconds per measured second between probes i and j:
        the mean of their speeds relative to the reference."""
        ref, passes = REFERENCE_PASS_S[kind], self.passes[kind]
        return 0.5 * (ref / passes[i] + ref / passes[j])

    def reference_seconds(self, a, b, kind="small"):
        """Reference-speed length of the work done in [a, b], the probes
        inside it left out.  Needs a probe ending at or before ``a`` and
        one starting at or after ``b``."""
        first = bisect.bisect_right(self.ends, a) - 1
        last = bisect.bisect_left(self.starts, b)
        if first < 0 or last >= len(self.ends):
            raise ValueError("interval is not enclosed by probes")
        total, cur = 0.0, a
        for k in range(first + 1, last):
            total += (self.starts[k] - cur) * self._scale(kind, k - 1, k)
            cur = self.ends[k]
        return total + (b - cur) * self._scale(kind, last - 1, last)

    def measured_seconds(self, a, b):
        """Measured length of [a, b] without the probes inside it."""
        first = bisect.bisect_right(self.ends, a)
        last = bisect.bisect_left(self.starts, b)
        inside = sum(e - s for s, e in zip(self.starts[first:last],
                                           self.ends[first:last]))
        return b - a - inside

    def periodic(self, tracer=None, period=PERIOD_S):
        """Context manager: probe every ``period`` seconds, each probe a
        ``host.probe`` span of ``tracer`` if one is given."""
        return _Periodic(self, tracer, period)


class _Periodic:
    def __init__(self, speed, tracer, period):
        self.speed = speed
        self.tracer = tracer
        self.period = period
        self._busy = False
        self._saved = None

    def _handler(self, signum, frame):
        if not self._busy:   # a late tick during a probe is dropped
            self._busy = True
            try:
                if self.tracer is None:
                    self.speed.probe()
                else:
                    self.tracer.call("host.probe", self.speed.probe)
            finally:
                self._busy = False

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        return False

"""The machine's current speed, from a fixed reference kernel.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
±20% over seconds to tens of seconds, and by up to 1.6x for minutes.  Raw
wall times taken minutes apart therefore differ by more than most program
changes.  So while the benchmark measures, a ``Sampler`` interrupts the
program every ``PERIOD_S`` seconds and times one short slice of a fixed
reference kernel.  Each measured interval is then scaled by how much slower
the slices around it ran than ``REF_SLICE_S``, the slice's median time on
the reference machine (see README.md).  A reported time is thus the
interval's wall time at the reference machine's speed.  The time spent in
the slices themselves is taken out of every interval.

The kernel mixes what the program spends its time on: 4x4 NumPy solves and
products, Python objects, attribute reads and dict stores, and reads
scattered over a 32 MB array, since the program's state does not fit the
caches either.  It uses no ``trajpmbm`` code, so no change to the program
moves it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

REF_SLICE_S = 2.4e-3  # median slice time on the reference machine of README.md
SLICE_ITERS = 96
GATHERS = 4
PERIOD_S = 0.2  # between two slices while a Sampler runs
WINDOW_S = 1.0  # slices this close to an interval also scale it
MIN_SLICES = 5  # the window widens until it holds this many slices
BRACKET = 6  # slices before and after an interval measured without a Sampler

_rng = np.random.default_rng(0)
_A = [_rng.standard_normal((4, 4)) for _ in range(16)]
_S = [a @ a.T + 4.0 * np.eye(4) for a in _A]
_V = _rng.standard_normal(4)
_BIG = _rng.standard_normal(4_000_000)
_IDX = _rng.integers(0, len(_BIG), 20_000)


class _Node:
    __slots__ = ("key", "value", "pair")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.pair = (key, value)


def ref_slice() -> float:
    """Seconds that one slice of the reference kernel takes now."""
    t0 = time.perf_counter()
    s, table = 0.0, {}
    for i in range(SLICE_ITERS):
        a = _S[i & 15]
        x = np.linalg.solve(a, _V)
        s += float(x @ _V) + float((_A[i & 15] @ x)[0]) * 1e-9
        node = _Node(i, s)
        table[i % 31] = node
        s += node.pair[1] * 1e-12 + len(table) * 1e-12
    for _ in range(GATHERS):
        s += float(_BIG[_IDX].sum()) * 1e-12
    return time.perf_counter() - t0


def bracket() -> list:
    """``BRACKET`` slices, to time before or after an interval."""
    return [ref_slice() for _ in range(BRACKET)]


def scale(slices) -> float:
    """Factor that turns wall seconds measured next to ``slices`` into
    seconds at the reference speed.  The median drops a slice that a
    preemption stretched."""
    return REF_SLICE_S / statistics.median(slices)


class Sampler:
    """Times a reference slice every ``PERIOD_S`` seconds from a SIGALRM
    handler, which runs in the main thread between two bytecodes of the
    program.  Use it as a context manager, and time intervals with
    ``clock()``, which leaves out the time spent in the handler."""

    def __init__(self):
        self.at = []  # clock() when each slice started
        self.slices = []  # seconds each slice took
        self._paused = 0.0  # seconds spent in the handler so far

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.at.append(t0 - self._paused)
        self.slices.append(ref_slice())
        self._paused += time.perf_counter() - t0

    def __enter__(self):
        self._tick(None, None)  # a run that aborts at once still has a slice to scale by
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def scaled(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] of ``clock()`` in seconds at the reference
        speed, scaled by the slices within ``WINDOW_S`` of it (more if
        fewer than ``MIN_SLICES`` fall there)."""
        pad = WINDOW_S
        while True:
            lo = bisect.bisect_left(self.at, t0 - pad)
            hi = bisect.bisect_right(self.at, t1 + pad)
            if hi - lo >= MIN_SLICES or hi - lo == len(self.at):
                break
            pad *= 2
        return (t1 - t0) * scale(self.slices[lo:hi])

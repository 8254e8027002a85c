"""Speed-normalised timing for a shared, unevenly loaded host.

On a host shared with other tenants the same code runs at very different
speeds from one minute to the next: a fixed loop can take 60% longer for
tens of seconds at a time.  Raw wall times of a benchmark run then depend
more on when it ran than on the code.

``SpeedClock`` reads the machine's speed while the benchmark runs.  A
SIGALRM timer interrupts the main thread every INTERVAL_S seconds and times
one calibration snippet there, in the same thread as the timed work; the
snippets take turns.  Each kind slows differently under different kinds of
load (interpreter-bound, small arrays in cache, larger arrays), so the
slowdown over an interval is the geometric mean, over the kinds, of each
kind's median time in the interval divided by its nominal time.  A timed
interval is reported twice:

- raw: its wall time minus the time spent in the snippets;
- normalised: raw / slowdown, the time it would take at the speed at which
  every snippet takes its nominal time.

The snippets touch no foxh code, so a change to the package cannot move them.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from array import array

import numpy as np

INTERVAL_S = 0.004  # one snippet per 4 ms of wall time, 2-5% of it
MIN_SAMPLES = 8     # per kind; an interval with fewer uses the latest 8

_SMALL = np.linspace(0.1, 5.0, 256) + 0.3j
_LARGE = np.linspace(0.1, 5.0, 2048) + 0.3j


def _interpreter() -> None:
    s = 0.0
    for i in range(600):
        s += (i % 7) * 0.5


def _small_arrays() -> None:
    for _ in range(3):
        np.exp(-_SMALL) * np.log(_SMALL + 1.0)


def _large_array() -> None:
    np.exp(-_LARGE) * np.log(_LARGE + 1.0)


# (snippet, nominal seconds): the nominal times are round figures near each
# snippet's fastest time on a 2.1 GHz Xeon core; they only set the scale.
SNIPPETS = ((_interpreter, 5e-5), (_small_arrays, 8e-5), (_large_array, 1e-4))


class SpeedClock:
    """Wall clock with snippet time taken out and a slowdown reading."""

    def __init__(self):
        self.samples = [array("d") for _ in SNIPPETS]  # durations, per kind
        self.spent = 0.0  # wall time spent in the signal handler
        self._ticks = 0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kind = self._ticks % len(SNIPPETS)
        self._ticks += 1
        SNIPPETS[kind][0]()
        t1 = time.perf_counter()
        self.samples[kind].append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        for fn, _ in SNIPPETS:  # warm the snippets' code paths
            for _ in range(50):
                fn()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def mark(self) -> tuple:
        return time.perf_counter(), [len(s) for s in self.samples], self.spent

    def slowdown(self, counts=None) -> float:
        """Geometric mean over the kinds of median / nominal time, over the
        samples after `counts` (one count per kind), or over all."""
        logs = []
        for samples, k, (_, nominal) in zip(self.samples, counts or [0] * len(SNIPPETS),
                                            SNIPPETS):
            window = samples[k:]
            if len(window) < MIN_SAMPLES:
                window = samples[-MIN_SAMPLES:]
            if not window:
                return 1.0
            logs.append(math.log(statistics.median(window) / nominal))
        return math.exp(sum(logs) / len(logs))

    def since(self, mark) -> tuple:
        """(raw seconds, normalised seconds) since mark."""
        t0, counts, spent = mark
        raw = time.perf_counter() - t0 - (self.spent - spent)
        return raw, raw / self.slowdown(counts)

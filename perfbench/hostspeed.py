"""Host speed, sampled all through a run, to put times on one scale.

The speed of the shared host this benchmark was tuned on changes by up
to 1.7x from one tenth of a second to the next, for any pure-Python
work alike.  So while a run measures, a ``SIGALRM`` every
``PERIOD_S`` seconds of wall time runs a short, fixed discrete-event
loop (``calibrate``) in the main thread and records how long it took.
A time measured between two instants is reported at the *reference
host speed*: the seconds the benchmark's own handlers took are taken
out, and the rest is multiplied by ``REFERENCE_SAMPLE_S`` over the mean
sample taken around it.  The loop mixes what the simulator's hot path
does -- a heap of events, slotted objects, dict counters, generators --
but is frozen here, outside the program, so no program change can
speed it up.

Only the main thread runs Python signal handlers; threads started
inside :func:`main_thread_signals` leave the signal to it, so it
samples while a job thread works.
"""

from __future__ import annotations

import contextlib
import heapq
import signal
import time
from array import array
from bisect import bisect_left, bisect_right
from typing import Iterator

#: wall seconds between samples
PERIOD_S = 0.01
#: events in one sample's loop
SAMPLE_EVENTS = 500
#: seconds a sample takes on the host the bounds were set on, when its
#: 20000-event loop took 15 ms
REFERENCE_SAMPLE_S = 0.000345
#: a time is scaled by at least this many samples, the nearest ones
#: around it when it holds fewer
MIN_SAMPLES = 16


class _Event:
    __slots__ = ("time", "who", "hops")

    def __init__(self, time: int, who: int, hops: int) -> None:
        self.time = time
        self.who = who
        self.hops = hops


def _ticks(seed: int):
    x = seed
    while True:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        yield x % 97


def calibrate(events: int = SAMPLE_EVENTS) -> float:
    """Host seconds of a fixed discrete-event loop."""
    t0 = time.perf_counter()
    heap: list = []
    counts: dict = {}
    streams = [_ticks(k) for k in range(8)]
    for k in range(8):
        heapq.heappush(heap, (k, k, _Event(k, k, 0)))
    seq = 8
    for _ in range(events):
        now, _, ev = heapq.heappop(heap)
        delay = next(streams[ev.who]) + 1
        key = (ev.who, delay & 7)
        counts[key] = counts.get(key, 0) + 1
        heapq.heappush(heap, (now + delay, seq,
                              _Event(now + delay, ev.who, ev.hops + 1)))
        seq += 1
    return time.perf_counter() - t0


@contextlib.contextmanager
def main_thread_signals() -> Iterator[None]:
    """Threads started inside inherit the sampling signals blocked.

    The kernel sends a process signal to any thread that does not block
    it, but only the main thread runs Python handlers; with the signals
    blocked in worker threads they reach the main thread, interrupting
    its wait."""
    old = signal.pthread_sigmask(signal.SIG_BLOCK,
                                 {signal.SIGALRM, signal.SIGPROF})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, old)


class HostSpeed:
    """Samples of the host's speed, taken from :meth:`start` on."""

    def __init__(self) -> None:
        #: perf_counter() at the end of each sample, and its seconds
        self.ends = array("d")
        self.seconds = array("d")
        self._old_handler = None

    def start(self) -> None:
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._old_handler is not None:
            signal.signal(signal.SIGALRM, self._old_handler)
            self._old_handler = None

    def _sample(self, signum, frame) -> None:
        took = calibrate()
        self.ends.append(time.perf_counter())
        self.seconds.append(took)

    def spent(self, t0: float, t1: float) -> float:
        """Seconds the samples took between ``t0`` and ``t1`` (a handler
        runs in the main thread, so it lies wholly inside or outside an
        interval the main thread timed)."""
        i, j = bisect_left(self.ends, t0), bisect_right(self.ends, t1)
        return sum(self.seconds[i:j])

    def work(self, t0: float, t1: float) -> float:
        """Seconds between ``t0`` and ``t1`` less the samples' own."""
        return t1 - t0 - self.spent(t0, t1)

    def scale(self, seconds: float, t0: float, t1: float) -> float:
        """``seconds`` of work done between ``t0`` and ``t1``, at the
        reference host speed."""
        i, j = bisect_left(self.ends, t0), bisect_right(self.ends, t1)
        short = max(0, MIN_SAMPLES - (j - i))
        i = max(0, i - (short + 1) // 2)
        j = min(len(self.ends), j + (short + 1) // 2)
        around = self.seconds[i:j]
        return seconds * REFERENCE_SAMPLE_S * len(around) / sum(around)

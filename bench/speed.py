"""Machine speed, measured with a fixed reference unit of work.

The benchmark runs on shared hosts whose speed for the same single-threaded
Python code drifts by up to a factor of two over seconds to minutes.  So while
work is timed, a SIGALRM handler runs a fixed reference unit every PERIOD_S
and records how long it took, and each timed piece of work is rescaled to the
speed at which that unit takes ``REF_UNIT_NS``:

    scaled = measured * REF_UNIT_NS / (median reference time near it)

"Near it" means during the work or within WINDOW_NS before or after it.  The
handler's own time is taken out of every measured time (``Gauge.clock``).
The reference unit belongs to the benchmark and calls nothing in the program,
so a faster or slower program still shows in full; only the host's speed at
that moment is divided out.  Like the program it is pure Python: sets, dicts,
sorting, ``random`` and ``Fraction`` arithmetic.  The handler runs in the
main thread, between the program's bytecodes; no thread is started.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import random
import signal
import statistics
import time
from fractions import Fraction
from typing import Iterator

REF_UNIT_NS = 600_000  # a typical reference time on the 2-vCPU development host
PERIOD_S = 0.01  # one reference unit per 10 ms of wall time, about 6% of it
WINDOW_NS = 100_000_000


def reference_unit() -> Fraction:
    """A fixed piece of pure-Python work: BFS sweeps over a seeded random graph."""
    rng = random.Random(7)
    n = 60
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for _ in range(150):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    total = Fraction(0)
    for s in range(0, n, 6):
        seen = {s}
        order = [s]
        for x in order:
            for y in sorted(adj[x]):
                if y not in seen:
                    seen.add(y)
                    order.append(y)
        total += Fraction(len(order), s + 1)
    return total


class Gauge:
    """Samples the reference unit every PERIOD_S while `running`."""

    def __init__(self):
        reference_unit()  # warm-up
        self.spent = 0  # ns spent in the handler so far
        self.at: list[int] = []  # clock() at each sample
        self.took: list[int] = []  # each sample's reference time, ns
        signal.signal(signal.SIGALRM, self._tick)
        self._tick(signal.SIGALRM, None)  # so that there is always a sample

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        enabled = gc.isenabled()
        gc.disable()  # a collection the program's objects are due is theirs
        reference_unit()
        took = time.perf_counter_ns() - start
        if enabled:
            gc.enable()
        self.at.append(start - self.spent)
        self.took.append(took)
        self.spent += time.perf_counter_ns() - start

    @contextlib.contextmanager
    def running(self) -> Iterator[None]:
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def clock(self) -> int:
        """perf_counter_ns without the handler's time; time work with this."""
        return time.perf_counter_ns() - self.spent

    def at_reference(self, start: int, end: int, measured: float) -> float:
        """`measured` ns of work done between clock() readings `start` and `end`,
        at reference speed."""
        lo = bisect.bisect_left(self.at, start - WINDOW_NS)
        hi = bisect.bisect_right(self.at, end + WINDOW_NS)
        if lo == hi:  # no sample near it: use the nearest ones
            lo, hi = max(lo - 1, 0), min(lo + 1, len(self.at))
        return measured * REF_UNIT_NS / statistics.median(self.took[lo:hi])

    def factor(self) -> float:
        """REF_UNIT_NS over the median reference time of the whole run."""
        return REF_UNIT_NS / statistics.median(self.took)

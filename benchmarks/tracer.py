"""Span recording, machine-speed probing and summary statistics.

The tracer wraps the benchmark's own calls into the library's public
functions.  With tracing off, ``call`` still adds exactly one Python frame
and records failures by layer and exception type, so traced and untraced
passes run the library at the same stack depth and count the same failures.

The speed probe times a fixed kernel between items.  A shared host can run
the same work twice as slowly for tens of seconds at a time; every reported
time is scaled by how slowly the probe ran around it, into seconds at the
probe's nominal speed (see README.md).
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from collections import Counter, defaultdict, deque
from contextlib import contextmanager
from fractions import Fraction

perf_counter = time.perf_counter

PROBE_NOMINAL_S = 0.0018  # the kernel's time on an uncontended 2 GHz Xeon core
PROBE_INTERVAL_S = 0.1
PROBE_WINDOW = 5

# Candidate tail levels, highest first; see ``tail_level``.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Tracer:
    """Aggregating span recorder.

    A span is credited to one or more names.  Busy time is the span's
    duration; self time is busy time minus the time of the spans opened
    inside it.  Spans are aggregated as they close, so memory stays flat
    however many per-assignment calls a pass makes.
    """

    def __init__(self, on: bool):
        self.on = on
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()  # calls per name, and tallies
        self.failures: Counter = Counter()  # (name, exception type) -> count
        self._stack: list[float] = []  # child time of each open span

    def call(self, names, fn, *args):
        """fn(*args) inside a span credited to ``names`` (a str or tuple)."""
        if not self.on:
            try:
                return fn(*args)
            except Exception as exc:
                self._failed(names, exc)
                raise
        stack = self._stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args)
        except Exception as exc:
            self._failed(names, exc)
            raise
        finally:
            self._close(names, perf_counter() - t0, stack.pop())

    @contextmanager
    def span(self, names):
        if not self.on:
            yield
            return
        stack = self._stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(names, perf_counter() - t0, stack.pop())

    def _close(self, names, dt: float, child: float) -> None:
        for name in ((names,) if isinstance(names, str) else names):
            self.busy[name] += dt
            self.self_time[name] += dt - child
            self.counts[name] += 1
        if self._stack:
            self._stack[-1] += dt

    def _failed(self, names, exc: Exception) -> None:
        name = names if isinstance(names, str) else names[0]
        self.failures[(name, type(exc).__name__)] += 1


def _probe_kernel() -> Fraction:
    """Fraction arithmetic, tuples and dict inserts: the library's mix."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 400):
        q = Fraction(i, i % 7 + 1)
        acc += q * q
        table[i, i % 5] = (q, str(i))
    return acc


class SpeedProbe:
    """Times the kernel at most every PROBE_INTERVAL_S and turns the median
    of the last PROBE_WINDOW times into a factor that scales a measured
    time to nominal speed."""

    def __init__(self):
        self._recent: deque[float] = deque(maxlen=PROBE_WINDOW)
        self._last = -math.inf

    def factor(self, force: bool = False) -> float:
        if force or perf_counter() - self._last >= PROBE_INTERVAL_S:
            enabled = gc.isenabled()
            gc.disable()
            try:
                t0 = perf_counter()
                _probe_kernel()
                dt = perf_counter() - t0
            finally:
                if enabled:
                    gc.enable()
            self._recent.append(dt)
            self._last = perf_counter()
        return PROBE_NOMINAL_S / statistics.median(self._recent)


def tail_level(n: int) -> float:
    """Highest candidate percentile with at least ten samples beyond it."""
    for p in TAIL_LEVELS:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    k = max(0, math.ceil(p / 100.0 * len(ordered)) - 1)
    return ordered[k]


def level_name(p: float) -> str:
    return "p" + (str(int(p)) if p == int(p) else str(p))

"""A fixed pure-Python kernel that measures how fast the machine runs now.

On a shared virtual machine the speed of a core drifts by 20% or more over
seconds to minutes, because other guests load the same host.  A request
that takes 10 ms at one moment takes 13 ms a minute later, with no change
to the program.  The benchmark therefore runs this kernel between its
requests and reports every time scaled to the reference speed: the speed
at which one kernel unit takes ``REFERENCE_S``.  A change to the prover
moves the scaled times as it moves the raw ones; a change of the
machine's speed moves the kernel as it moves the prover, and cancels.

The kernel does the prover's kind of work: small tuples, their hashing in
dicts and frozensets, method calls on slotted objects and a sort.  Its
work is fixed, so its time is a measure of speed only.
"""

from __future__ import annotations

import gc
import time

REFERENCE_S = 200e-6  # one unit at the reference speed
SHARE = 0.1  # kernel time as a share of the measured request time
MIN_UNITS = 40
WARM_UNITS = 20


class _Node:
    __slots__ = ("op", "kids")

    def __init__(self, op: str, kids: tuple):
        self.op, self.kids = op, kids

    def key(self) -> tuple:
        return (self.op, tuple(k.key() for k in self.kids))


def unit() -> int:
    """One unit of fixed work, about 0.2 ms on a 2-core Xeon VM."""
    leaves = [_Node(f"p{i % 5}", ()) for i in range(12)]
    seen: dict[tuple, int] = {}
    for i in range(60):
        n = _Node("&" if i & 1 else "|", (leaves[i % 12], _Node("~", (leaves[(i * 7) % 12],))))
        k = n.key()
        seen[k] = seen.get(k, 0) + 1
    groups = {frozenset(k[1]) for k in seen}
    return len(sorted(seen, key=lambda k: (k[0], len(k[1])))) + len(groups)


def _timed_unit() -> float:
    """Seconds one unit takes, with the garbage collector off so that the
    heap of the program under test does not change the kernel's time."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    unit()
    seconds = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return seconds


def factor(units: int) -> float:
    """Run the kernel units times, after a few untimed units to warm it,
    and return the factor that turns a time measured just now into a time
    at the reference speed."""
    for _ in range(WARM_UNITS):
        unit()
    return REFERENCE_S * units / sum(_timed_unit() for _ in range(units))


class Meter:
    """Interleaves kernel units with timed requests, keeping the kernel at
    ``SHARE`` of the request time, so that it samples the machine's speed
    across the same stretch of time as the requests."""

    def __init__(self):
        self.busy = 0.0
        self.spent = 0.0
        self.units = 0
        self.gaps: list[tuple[int, float]] = []  # kernel (units, seconds) after each request

    def after(self, seconds: float):
        """Account for a request that took seconds, then run the kernel
        until it has its share."""
        self.busy += seconds
        units, spent = self.units, self.spent
        while self.spent < SHARE * self.busy:
            self._one()
        self.gaps.append((self.units - units, self.spent - spent))

    def _one(self):
        self.spent += _timed_unit()
        self.units += 1

    def scales(self) -> list[float]:
        """Per request, the factor that turns its measured time into its
        time at the reference speed: the kernel's speed in the gaps on
        both sides of the request, widened evenly until they hold at least
        ``MIN_UNITS`` units."""
        if self.units < MIN_UNITS:
            units, spent = self.units, self.spent
            while self.units < MIN_UNITS:
                self._one()
            u, s = self.gaps[-1]
            self.gaps[-1] = (u + self.units - units, s + self.spent - spent)
        out = []
        n = len(self.gaps)
        for i in range(n):
            lo, hi = max(i - 1, 0), i
            units = sum(u for u, _ in self.gaps[lo:hi + 1])
            while units < MIN_UNITS:
                if lo > 0:
                    lo -= 1
                    units += self.gaps[lo][0]
                if hi < n - 1:
                    hi += 1
                    units += self.gaps[hi][0]
            spent = sum(s for _, s in self.gaps[lo:hi + 1])
            out.append(REFERENCE_S * units / spent)
        return out

"""Host speed, sampled beside the timed work, to put times on one scale.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds and minutes, and the drift hits every
workload alike.  A ``HostClock`` runs a fixed kernel of work that calls
no possum code right after each timed operation, for a set share of the
time measured, so the kernel samples the host at the same moments as the
operations.  ``factor`` is its mean time over its time on the reference
host; dividing a measured time by it gives the time the same work takes
at the reference speed.

The kernel is the kind of work the operations do: ``python_kernel``
(objects, dicts, tuples, floats and a sort) for work done in this
process, and a fresh interpreter that runs ``python_kernel`` for
operations that are whole ``possum`` processes.  A change to possum moves the timed work and
leaves the kernel as it was, so it shows in the adjusted figures in
full.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter
from typing import Callable

PYTHON_REFERENCE_S = 0.0018  # median python_kernel time on a 2-vCPU VM, CPython 3.11.7
SHARE = 0.2  # kernel time per second of timed work
WARMUP = 2


class _Node:
    __slots__ = ("key", "weight", "children")

    def __init__(self, key: tuple[int, int], weight: float):
        self.key = key
        self.weight = weight
        self.children: list[_Node] = []


def python_kernel() -> float:
    """One fixed slice of interpreter work, about 1.8 ms on the reference host.

    The cyclic garbage collector is off while it runs and every object
    it makes is freed by reference counting before it returns, so it
    neither collects the timed work's garbage nor leaves it any.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _python_work()
    finally:
        if was_enabled:
            gc.enable()


def _python_work() -> float:
    groups: dict[tuple[int, int], list[_Node]] = {}
    nodes = []
    for i in range(1200):
        node = _Node((i % 37, i % 11), (i * 0.6180339887) % 1.0)
        nodes.append(node)
        groups.setdefault(node.key, []).append(node)
    total = 0.0
    for group in groups.values():
        lo = min(n.weight for n in group)
        hi = max(n.weight for n in group)
        total += max(0.0, lo + hi - 1.0)
        group[0].children.extend(group[1:])
    nodes.sort(key=lambda n: (n.weight, n.key))
    for a, b in zip(nodes, nodes[1:]):
        total += a.weight * b.weight if a.key < b.key else 0.0
    return total


class HostClock:
    def __init__(
        self, kernel: Callable[[], object] = python_kernel, reference_s: float = PYTHON_REFERENCE_S
    ) -> None:
        self.kernel = kernel
        self.reference_s = reference_s
        self.samples: list[float] = []
        self.owed = 0.0  # kernel seconds still due, carried from op to op
        for _ in range(WARMUP):
            kernel()

    def sample(self, busy: float) -> None:
        """Run the kernel until it has had ``SHARE`` of all the work timed so far."""
        self.owed += SHARE * busy
        while self.owed > 0:
            start = perf_counter()
            self.kernel()
            elapsed = perf_counter() - start
            self.samples.append(elapsed)
            self.owed -= elapsed

    def factor(self) -> float:
        """Mean kernel time over the reference's: above 1 on a slower host."""
        return statistics.fmean(self.samples) / self.reference_s

"""Host-speed gauge: a fixed kernel timed all through the measured work.

The benchmark runs on a few cores of a shared host. Other tenants change
how fast those cores run, by up to 2x, and the process's CPU clock slows
with them. The host mostly switches between a few speeds that each last
seconds, so runs a few minutes apart read up to 40% apart.

While a HostGauge is active, an interval timer (ITIMER_REAL) interrupts
the measured work every INTERVAL_S and times a fixed kernel: that reading
is the host's speed at that moment. (A CPU-time timer, ITIMER_PROF, would
be the natural choice, but while one is armed Linux advances the process's
CPU clock only at scheduler ticks, too coarse to time a 3 ms kernel.)
Every sample the benchmark reports is scaled to a host on which the kernel
takes KERNEL_REFERENCE_S:

    reported duration = (measured duration - readings inside it)
                        * KERNEL_REFERENCE_S / mean kernel time

where the mean is over the readings inside the sample and the last one
before and the first one after it. A reading interrupts code between two
Python bytecodes, so it never straddles the start or end of a sample. A
short sample whose tail matters (one forward() call) is started with
``defer=True``: a reading that falls due during it waits until it ends, so
no such sample is ever interrupted.

The kernel is the benchmark's own code and calls nothing in the library, so
a change to the library moves the reported timings and leaves the kernel
alone. It mixes what the library spends its time on: small NumPy mat-vecs
and ufuncs in a Python loop (a GRU step), and Python objects, attribute
lookups and list traffic (an autodiff-tape-like graph walked backwards).
Across the host's two usual speeds, this mix tracked forward() within 3% on
every workload; its GRU half alone was off by up to 5%, its object-graph
half by up to 6%.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

import numpy as np

# CPU seconds of one kernel pass that reported timings are scaled to: about
# what it takes on a 2.0 GHz Xeon vCPU of a shared host in its usual state,
# with Python 3.11 and NumPy 2.4.
KERNEL_REFERENCE_S = 4.0e-3
# Seconds between readings. A reading costs 2-4 ms, and the host's speed
# holds for seconds at a time.
INTERVAL_S = 0.05

_rng = np.random.default_rng(20020845)
_W = _rng.standard_normal((3, 16, 16)) * 0.3
_U = _rng.standard_normal((3, 16, 16)) * 0.3
_X = _rng.standard_normal((8, 16))
_GRU_STEPS = 60
_GRAPH_NODES = 1500


class _Node:
    __slots__ = ("value", "parents", "grad")

    def __init__(self, value: float, parents: tuple):
        self.value, self.parents, self.grad = value, parents, 0.0


def _kernel() -> float:
    h = np.zeros(16)
    total = 0.0
    for step in range(_GRU_STEPS):
        x = _X[step % 8]
        z = 1.0 / (1.0 + np.exp(-(_W[0] @ x + _U[0] @ h)))
        r = 1.0 / (1.0 + np.exp(-(_W[1] @ x + _U[1] @ h)))
        n = np.tanh(_W[2] @ x + _U[2] @ (r * h))
        h = (1 - z) * n + z * h
        total += float(h.sum())
    nodes = [_Node(float(i % 7), ()) for i in range(16)]
    for _ in range(_GRAPH_NODES):
        a, b = nodes[-1], nodes[-3]
        nodes.append(_Node(a.value * 0.5 + b.value * 0.25 + 1.0, (a, b)))
    nodes[-1].grad = 1.0
    for node in reversed(nodes):
        for parent in node.parents:
            parent.grad += node.grad * 0.5
    return total + nodes[0].grad


class HostGauge:
    """Reads the host's speed as a scale (kernel time over
    KERNEL_REFERENCE_S) and scales the samples timed while it is active.

    A scale of 1.5 means the host ran 1.5x slower than the reference host.
    Use it as a context manager around the measured work; time a sample with
    ``start = gauge.now()`` ... ``gauge.record(series, start, work)``.
    Samples do not nest.
    Outside the context no timer runs, and ``record`` only keeps the raw
    duration.

    The garbage collector is off while the kernel runs. The kernel makes no
    reference cycles, and a collection that its allocations set off would
    walk every live object of the benchmark, so the reading would depend on
    what the library holds in memory.
    """

    def __init__(self):
        # Parallel lists, in time order: CPU time at the start and at the
        # end of each reading, and its scale.
        self._starts: list[float] = []
        self._ends: list[float] = []
        self.scales: list[float] = []
        self._samples: dict[str, list[tuple[float, float, float]]] = {}
        self._defer = self._due = False

    def __enter__(self) -> HostGauge:
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        self.read()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.read()

    def _on_timer(self, signum, frame) -> None:
        if self._defer:
            self._due = True
        else:
            self.read()

    def read(self) -> float:
        collecting = gc.isenabled()  # the interrupted code may have turned it off
        gc.disable()
        try:
            start = time.process_time()
            _kernel()
            end = time.process_time()
        finally:
            if collecting:
                gc.enable()
        scale = (end - start) / KERNEL_REFERENCE_S
        self._starts.append(start)
        self._ends.append(end)
        self.scales.append(scale)
        return scale

    def now(self, defer: bool = False) -> float:
        """CPU time at the start of a sample; see the module docstring for
        ``defer``."""
        self._defer = defer
        return time.process_time()

    def record(self, series: str, start: float, work: float = 1.0) -> None:
        """Files the sample that began at CPU time ``start`` and ends now,
        with the amount of work it did."""
        self._samples.setdefault(series, []).append((start, time.process_time(), work))
        self._defer = False
        if self._due:
            self._due = False
            self.read()

    def durations(self, series: str) -> list[float]:
        """The series' durations at reference-host speed."""
        return [self._scaled(start, end) for start, end, _ in self._samples.get(series, [])]

    def rates(self, series: str) -> list[float]:
        """The series' work per second at reference-host speed."""
        return [work / self._scaled(start, end) for start, end, work in self._samples.get(series, [])]

    def _scaled(self, start: float, end: float) -> float:
        if not self.scales:
            return end - start
        first = bisect.bisect_left(self._starts, start)  # first reading inside
        last = bisect.bisect_right(self._ends, end)  # one past the last inside
        inside_s = sum(self._ends[i] - self._starts[i] for i in range(first, last))
        around = self.scales[max(first - 1, 0) : last + 1]
        return (end - start - inside_s) / statistics.fmean(around)

    def median_scale(self) -> float:
        return statistics.median(self.scales)

"""Host-speed calibration of op latencies.

The benchmark runs on machines whose cores it may share: on the 2-core
machine where the bounds were set, the same code ran up to 1.7 times slower
for seconds at a time, with no steal time reported, and the raw figures of
runs minutes apart differed by up to 40%.  So the benchmark times a fixed
reference kernel of the same kinds of work as the program (integer
arithmetic, nested-list dynamic programming, dicts and small objects, small
dense numpy calls) in the process that runs the ops, every
``Sampler.INTERVAL_S`` of wall time, also in the middle of an op: a process
op runs a ``Sampler`` around its command (``cli_shim.py``), and an
in-process workload around its whole loop.  An op's latency excludes the
kernel calls made inside it.  A calibrated latency is that latency times
``NOMINAL_S`` over the kernel's median time during the op: what the op would
have taken on a host where the kernel takes ``NOMINAL_S``.  The kernel must
run in the op's own process: timed in the benchmark process, it made the
latencies of child processes vary more, not less.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# The kernel's typical time on an unloaded core of the machine where the
# bounds were set; it only scales the calibrated figures.
NOMINAL_S = 0.008

_TABLE = [[float(i * j % 7) for j in range(40)] for i in range(40)]


def _kernel() -> None:
    import numpy as np  # here, so that set-up probes do not pay for it

    total = 0
    for i in range(40_000):
        total += i * i
    best = 0.0
    for i in range(40):
        for j in range(i, 40):
            best = max(best, max(_TABLE[i][u] + _TABLE[u][j] for u in range(i, j + 1)))
    items = {(i, i % 7): [i, str(i)] for i in range(5000)}
    sorted(items.items(), key=lambda kv: kv[1][0])
    matrix = np.arange(16.0).reshape(4, 4) + np.eye(4)
    for _ in range(100):
        np.linalg.svd(matrix)


def time_kernel() -> float:
    """Seconds the reference kernel takes now.  The garbage collector is off
    while it runs: a collection in a process that holds the program's
    objects made one call in six up to three times slower."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times the reference kernel every ``INTERVAL_S`` of wall time while
    active, from a SIGALRM handler, so that the samples fall inside long ops
    too: the host switches speed every few seconds, and with calls only
    before and after each op, five ``cli`` runs spread two to four times as
    much.  ``calls`` holds the perf_counter start and end of each call.  The
    handler runs in the main thread between bytecodes, and leaves the
    program's state alone."""

    INTERVAL_S = 0.25  # a call costs about 10 ms, so 4% of the time

    def __init__(self, calls: list | None = None):
        self.calls = [] if calls is None else calls
        self.busy = False

    def warm_up(self) -> float:
        """One call, slower than the rest and not recorded; its seconds."""
        start = time.perf_counter()
        _kernel()  # also imports numpy
        return time.perf_counter() - start

    def sample(self) -> None:
        """One timed call of the kernel, recorded in ``calls``."""
        start = time.perf_counter()
        time_kernel()
        self.calls.append((start, time.perf_counter()))

    def _handle(self, signum, frame) -> None:
        if not self.busy:  # a late signal must not nest a second call
            self.busy = True
            try:
                self.sample()
            finally:
                self.busy = False

    def __enter__(self) -> "Sampler":
        self.previous = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


class HostSpeed:
    """The kernel calls of a run, from the benchmark process and the op
    processes, as (start, end) perf_counter pairs: on Linux every process
    reads the same monotonic clock."""

    NEAREST = 5  # an op with fewer calls inside it takes this many nearest

    def __init__(self):
        self.calls: list[tuple[float, float]] = []

    @property
    def kernel_s(self) -> list[float]:
        return [end - start for start, end in self.calls]

    def inside(self, start: float, end: float) -> list[tuple[float, float]]:
        return [c for c in self.calls if start <= c[0] and c[1] <= end]

    def factor(self, start: float, end: float) -> float:
        """Calibrated seconds per wall second over ``[start, end]``: from the
        median of the calls inside it, or of the ``NEAREST`` calls nearest to
        it when fewer are inside."""
        if not self.calls:
            return 1.0
        chosen = self.inside(start, end)
        if len(chosen) < self.NEAREST:
            chosen = sorted(self.calls, key=lambda c: max(start - c[1], c[0] - end, 0.0))[:self.NEAREST]
        return NOMINAL_S / statistics.median(b - a for a, b in chosen)

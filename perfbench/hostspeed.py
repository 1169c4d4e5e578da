"""Host-speed normalization of the benchmark's wall times.

The benchmark runs on a few cores of a shared host whose speed drifts
with other tenants' load: the same request can take twice as long a
minute later, for the program's CPU time as much as for its wall time.
Each request is therefore timed between two runs of a fixed reference
computation, and its wall time is rescaled to a host on which the
reference takes :data:`REF_S`:

    speed = mean(reference before, reference after)
    normalized = wall * (REF_S / speed) ** SENSITIVITY

The program slows less than the reference when the host is busy:
:data:`SENSITIVITY` is the measured slope of log request time on log
reference time.

The reference is the benchmark's own code, never the program's, so a
change to the program moves the normalized time exactly as much as it
moves the wall time on a host of steady speed.  It mixes what the
simulator spends its time on — attribute access, tuple-keyed dicts,
list appends and small numpy reductions — and runs with the garbage
collector off, so the program's heap cannot slow it.  A call that
runs on every CPU at once is normalized by the reference run at once on
every CPU (:class:`ParallelReference`): the CPUs' speeds differ, and the
parent's own CPU alone tracks such a call worse than its raw wall time.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import statistics
import time
from typing import Callable, Tuple, TypeVar

import numpy as np

#: Seconds one :func:`reference` takes on an unloaded 2-core x86 VM
#: (median of 300): the speed every normalized time is scaled to.
REF_S = 0.0060
#: How much the program's time moves with the reference's: the slope
#: of log(request time) on log(reference time), fitted over ~20 s
#: windows of DWT NN BP (small) and SSSP LUD MUM (tiny) requests on a
#: 2-core x86 VM shared with other tenants (0.56-0.71 by window size and
#: reference variant, correlation 0.87-0.90).  Ten affine-sweep runs
#: whose raw pass times spread 0.24 (IQR / median) spread 0.085 with 1.0
#: and 0.040 with 0.7.
SENSITIVITY = 0.7
#: Reference runs per measurement; their mean is the measurement.
REPEATS = 5

T = TypeVar("T")


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _work(n: int = 8000) -> int:
    acc = {}
    keys = []
    for i in range(n):
        p = _Point(i, i * 3)
        k = (p.a & 255, p.b & 7)
        acc[k] = acc.get(k, 0) + p.a
        keys.append(k)
        if i % 64 == 0:
            v = np.array(keys[-64:], dtype=np.int64)
            acc[(-1, i & 7)] = int((v[:, 0] * v[:, 1]).sum())
    return len(acc)


def reference() -> float:
    """Seconds the reference computation takes now (mean of
    :data:`REPEATS` runs: the host's speed flips faster than a run of
    them lasts, and the mean tracks its average)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            _work()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.mean(times)


def _helper(cpu: int, conn) -> None:
    os.sched_setaffinity(0, {cpu})
    while conn.recv():
        conn.send(reference())


class ParallelReference:
    """The reference run at once on every CPU of this process, one
    pinned helper process each, for calls that keep all of them busy
    (the shard scheduler's pool).  Returns the slowest CPU's time: the
    slowest worker bounds a parallel call.  Parked on a pipe between
    measurements; :meth:`close` stops and reaps the helpers."""

    def __init__(self) -> None:
        self.helpers = []
        for cpu in sorted(os.sched_getaffinity(0)):
            ours, theirs = multiprocessing.Pipe()
            proc = multiprocessing.Process(
                target=_helper, args=(cpu, theirs), daemon=True)
            proc.start()
            self.helpers.append((proc, ours))

    def __call__(self) -> float:
        for _, conn in self.helpers:
            conn.send(True)
        return max(conn.recv() for _, conn in self.helpers)

    def close(self) -> None:
        for proc, conn in self.helpers:
            try:
                conn.send(False)
            except OSError:
                pass
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join()
        self.helpers = []


class HostClock:
    """Times calls in wall seconds and in normalized seconds.

    One reference runs after every timed call; a call is normalized by
    the mean of the reference just before it and the one just after.
    With ``parallel`` the reference is a :class:`ParallelReference`.
    """

    def __init__(self, parallel: bool = False) -> None:
        self.reference = ParallelReference() if parallel else reference
        self.last = self.reference()

    def close(self) -> None:
        if isinstance(self.reference, ParallelReference):
            self.reference.close()

    def timed(self, fn: Callable[[], T]) -> Tuple[T, float, float]:
        """``(fn(), wall seconds, normalized seconds)``."""
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        return out, wall, self.normalize(wall)

    def normalize(self, wall: float) -> float:
        """Rescale ``wall``, measured since the last reference."""
        now = self.reference()
        speed = (self.last + now) / 2.0
        self.last = now
        return wall * (REF_S / speed) ** SENSITIVITY

"""Host-speed probes: fixed kernels timed between measurements.

The benchmark shares its machine with other work, and the machine's
single-thread speed changes by 1.5-2x for seconds to minutes at a time.  Host
times are therefore rescaled by how long a probe took just before and
just after them: ``normalized = wall * reference_s / probe``.  Python
code and NumPy array code slow down by different amounts, so there are
two probes: :data:`PYTHON` (objects, attributes, dicts, a heap -- the
kind of work the serving simulator does) and :data:`NUMPY` (elementwise
passes, a cumulative sum and a stable sort over arrays -- the kind of
work the wafer flow does).  Neither uses the program, so a change to the
program cannot change them.
"""

import gc
import heapq
import time


class _Event:
    __slots__ = ("time", "value")

    def __init__(self, time_, value):
        self.time = time_
        self.value = value


def _python_kernel() -> int:
    heap = []
    table = {}
    total = 0
    for index in range(9000):
        event = _Event((index * 7919) % 9001, index)
        heapq.heappush(heap, (event.time, index, event))
        table[index & 255] = event.value
        total += table.get((index * 31) & 255, 0)
    while heap:
        total ^= heapq.heappop(heap)[2].value
    return total


def _numpy_kernel() -> float:
    import numpy as np

    values = np.linspace(0.0, 1.0, 200_000)
    for _ in range(10):
        values = np.sqrt(values * 1.0001 + 0.5)
        kept = np.where(values > 0.9, values, 0.0)
        total = np.cumsum(kept)[-1]
    np.argsort(values[::4], kind="stable")
    return float(total)


class Probe:
    """One fixed kernel and its wall time on the reference host."""

    def __init__(self, kernel, reference_s: float):
        self.kernel = kernel
        self.reference_s = reference_s

    def __call__(self) -> float:
        """Wall time of one run of the kernel [s].

        The garbage collector is paused for the run: a collection would
        walk the program's live objects and make the probe depend on
        them.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self.kernel()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def normalized(self, wall: float, before: float, after: float) -> float:
        """``wall`` rescaled to the reference host speed, given the probe
        times measured just before and just after it [s]."""
        return wall * self.reference_s / ((before + after) / 2.0)


# Reference times: the fastest probe times measured on a 2-vCPU x86-64
# (Intel Xeon) host under CPython 3.11 and NumPy 2.4.
PYTHON = Probe(_python_kernel, 0.0085)
NUMPY = Probe(_numpy_kernel, 0.0155)

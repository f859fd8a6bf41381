"""Host-speed metering: rescales measured host seconds to a reference speed.

A shared machine's speed drifts with its other tenants: on a shared 2-vCPU
Xeon VM the same job's host time swung by up to 2x within minutes, in user
CPU time as much as in wall time, with no steal time reported.  A
:class:`Meter` therefore times a block of the program's work and samples the
host speed just before and just after it, and at points the caller marks
between units of the work, with :func:`probe`, a fixed kernel that does not
depend on the program: a heap-and-dict loop over a generator (the shape of an
event kernel's inner loop) and a NumPy sort, take and fill of fixed arrays
(the shape of the record work).  The block's host seconds are also reported
at the reference speed, one stretch of work between two sampling points at a
time::

    reference seconds = measured seconds * PROBE_REF_S / median(probe times)

where the probe times are those of the samples at the stretch's two ends.

No sample is taken while the program works, and the probe runs with the
garbage collector off, so the program's heap and garbage do not slow it.
(The collector is not run before a sample either: a collection left out of
the timed seconds would hide part of the program's own collection cost.)  A
slower program therefore moves reference seconds as it moves measured
seconds, while a slower machine moves the probe too and cancels.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

import numpy as np

#: probe seconds that define the reference speed (about the probe's median
#: time on that VM)
PROBE_REF_S = 0.0022
#: probes taken at each sampling point
PROBES_PER_SAMPLE = 5

_KEYS = np.random.default_rng(12345).integers(0, 1 << 32, size=1 << 13, dtype=np.uint32)
_RECORDS = np.zeros(1 << 13, dtype=[("key", "<u4"), ("payload", "V124")])


def _counter(n: int):
    yield from range(n)


def probe() -> float:
    """Host seconds of one run of the fixed reference kernel."""
    t0 = time.perf_counter()
    heap: list = []
    seen: dict = {}
    for i in _counter(1_200):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        seen[i & 511] = i
        if len(heap) > 64:
            heapq.heappop(heap)
    _RECORDS.take(np.argsort(_KEYS, kind="stable"))
    np.ones(1 << 18).sum()
    return time.perf_counter() - t0


def _samples() -> list[float]:
    gc.disable()
    try:
        return [probe() for _ in range(PROBES_PER_SAMPLE)]
    finally:
        gc.enable()


class Meter:
    """Times a block and samples the host speed before, between and after.

    ``host_s`` is the block's measured seconds without the samples taken
    inside it.  ``ref_s`` is ``host_s`` at the reference speed: the work
    between two sampling points is rescaled by the median of the samples
    taken at those two points.
    """

    def __enter__(self) -> "Meter":
        self.host_s = self.ref_s = 0.0
        self._before = _samples()
        self._t0 = time.perf_counter()
        return self

    def sample(self) -> None:
        """Sample the host speed between two units of the block's work."""
        self._close(time.perf_counter())
        self._t0 = time.perf_counter()

    def _close(self, t1: float) -> None:
        after = _samples()
        self.host_s += t1 - self._t0
        self.ref_s += (t1 - self._t0) * PROBE_REF_S / statistics.median(self._before + after)
        self._before = after

    def __exit__(self, *exc) -> None:
        self._close(time.perf_counter())

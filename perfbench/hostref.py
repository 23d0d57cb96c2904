"""Host-speed reference for the benchmark's timings.

The 2-core host these figures come from changes speed by 20-35% over tens
of seconds (other tenants, sustained-load clocking); a fixed computation
timed next to each measured step shows by how much.  `reference()` mixes the
three kinds of work seqassign does: interpreted Python, many small NumPy
calls, and gathers from an array larger than the L2 cache.  A timing t whose
neighbouring reference samples took r seconds is reported as
t * NOMINAL_S / r, i.e. at the host speed under which the reference takes
NOMINAL_S.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.027  # median time of one reference() on the 2-core host in README
SHARE = 0.05  # reference time per unit of measured time, at each step boundary

_DATA = np.random.default_rng(0).random(1 << 18)  # 2 MiB
_INDEX = np.random.default_rng(1).integers(0, 1 << 18, 1 << 16)
_GATHERED = np.empty(1 << 16)
_SMALL = np.empty((2, 64))


def reference() -> float:
    """Run the fixed reference computation once; returns its wall time (s).
    It allocates no arrays, so the state of the process's heap, which each
    workload leaves differently, does not change its time."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(75_000):
        acc += i * i
    a, b = _SMALL
    a[:] = np.arange(64.0)
    for _ in range(2000):
        np.multiply(a, a, out=b)
        np.add(b, 1.0, out=b)
        np.sqrt(b, out=a)
    total = 0.0
    for _ in range(30):
        np.take(_DATA, _INDEX, out=_GATHERED)
        total += float(_GATHERED.sum())
    return time.perf_counter() - t0


def sample(measured_s: float, min_calls: int = 1) -> float:
    """Median time of reference() over as many calls as fit in SHARE of the
    step just measured, at least min_calls, after one untimed call that
    brings the reference's data back into cache: one call alone varies by
    30%."""
    reference()
    times = [reference() for _ in range(min_calls)]
    while sum(times) < SHARE * measured_s:
        times.append(reference())
    return statistics.median(times)

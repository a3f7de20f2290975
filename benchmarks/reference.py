"""The benchmark's speed reference: a fixed loop whose time tracks how fast
a shared host runs at the moment.

Each timed process runs `reference_times()` next to what it measures.
Times are reported in nominal seconds, i.e. seconds on a machine where the
loop takes REF_NOMINAL_S.  A nominal second is a measured second divided by
`slowdown()` of the loop times taken next to it, on the same clock: wall
times by the loop's wall times, CPU times by its CPU times.  A host whose
other tenants slow it for a while slow the loop too, so nominal seconds
hold steady where measured ones drift.  The two clocks differ when the
hypervisor withholds the CPU (steal time): wall time grows, CPU time not.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# The loop's time on a 2-CPU host at its fastest.
REF_NOMINAL_S = 0.03


def reference_times(samples: int = 5) -> dict[str, list[float]]:
    """Wall and CPU times of a fixed pure-Python loop of Fraction, dict and
    tuple work, the kinds of work dtlab does.  The loop makes no reference
    cycles, so it runs with the collector off and does not depend on the
    heap or on collector settings."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = {"wall": [], "cpu": []}
        for _ in range(samples):
            t0, c0 = time.perf_counter(), time.process_time()
            acc = Fraction(0)
            table = {}
            for i in range(1, 6000):
                q = Fraction(i % 89 + 1, i % 97 + 2)
                acc += q * q
                table[i & 255] = (acc.numerator & 0xFFFF, i)
            times["wall"].append(time.perf_counter() - t0)
            times["cpu"].append(time.process_time() - c0)
    finally:
        if was_enabled:
            gc.enable()
    return times


def slowdown(loop_times: list[float]) -> float:
    """How many times slower than nominal the host ran the loop."""
    return statistics.fmean(loop_times) / REF_NOMINAL_S

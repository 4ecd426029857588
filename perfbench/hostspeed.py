"""Host-speed calibration for end-to-end timings.

On a 2-vCPU host whose cores are shared with other tenants, the same
fixed loop took anywhere from 1x to 1.7x its best time, on each CPU
independently, in phases lasting from a second to longer than a whole
run.  Raw host seconds of identical runs then spread by a third, wider
than any regression bound worth having.

So every end-to-end timing is *reference seconds*: host seconds scaled
by ``REFERENCE_S / t_cal``, where ``t_cal`` is the time of a fixed
calibration loop measured right before and right after the work (the
mean of the two; each the faster of two passes).  The loop mixes the
operations the program spends its time in, dict and list updates in
Python bytecode and numpy sorts, and uses no code of the program, so a
faster program still reads faster.
A reference second is one host second on a host that runs the loop in
exactly ``REFERENCE_S``.
"""

from __future__ import annotations

import os
import time
from typing import List

import numpy as np

#: Calibration-loop time that defines one reference second.
REFERENCE_S = 0.002
#: Longest stretch of work between two calibration samples.
INTERVAL_S = 0.1

_ARRAY = np.random.default_rng(0).random(20000)


def calibration_seconds(every_cpu: bool = False) -> float:
    """Host seconds the fixed calibration loop takes: the faster of two
    passes, so that one interrupted pass does not skew a sample.

    Each CPU changes speed on its own, so work spread over a process
    pool is calibrated with ``every_cpu``: the mean over every CPU this
    process may run on, pinned to each in turn.
    """
    if not every_cpu:
        return min(_calibration_pass(), _calibration_pass())
    allowed = os.sched_getaffinity(0)
    samples = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            samples.append(min(_calibration_pass(), _calibration_pass()))
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(samples) / len(samples)


def _calibration_pass() -> float:
    start = time.perf_counter()
    table: dict = {}
    for i in range(3000):
        slot = i & 255
        table[slot] = table.get(slot, 0) + i
        row = [i, i + 1]
        row.append(table[slot])
    for _ in range(10):
        np.sort(_ARRAY)
    return time.perf_counter() - start


class HostClock:
    """Scales spans of host time to reference seconds.

    :meth:`add` records one span of work; spans are scaled in batches
    by the calibration samples that bracket them, and a new sample is
    taken once ``INTERVAL_S`` of work has accumulated.
    """

    def __init__(self, every_cpu: bool = False) -> None:
        self.every_cpu = every_cpu
        self._last = calibration_seconds(every_cpu)
        self._pending: List[int] = []
        self._pending_s = 0.0
        self.raw: List[float] = []
        self.scaled: List[float] = []

    def add(self, seconds: float) -> None:
        self._pending.append(len(self.raw))
        self.raw.append(seconds)
        self.scaled.append(seconds)
        self._pending_s += seconds
        if self._pending_s >= INTERVAL_S:
            self.flush()

    def flush(self) -> None:
        """Scale every span recorded since the previous sample."""
        if not self._pending:
            return
        now = calibration_seconds(self.every_cpu)
        factor = REFERENCE_S / ((self._last + now) / 2.0)
        for index in self._pending:
            self.scaled[index] = self.raw[index] * factor
        self._last = now
        self._pending = []
        self._pending_s = 0.0

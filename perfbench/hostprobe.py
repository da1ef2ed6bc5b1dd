"""The host's speed, and the program's CPU cost in units of it.

The benchmark runs on a few cores of a shared host whose speed drifts:
a fixed task's CPU time halved within fifteen minutes while CPU time and
wall time stayed equal (the slowdown is slower execution, not time
stolen from the VM), and one of two CPUs ran a fifth faster than the
other for a while.  A wall-clock or CPU-clock figure of the program
therefore moves with the host as much as with the program.

:func:`probe` times a fixed task — NumPy sorting and gathering like the
engine's, and interpreter work like the server's — on the CPU clock, on
the CPU the deployment runs on, while the deployment is idle.
:class:`CostMeter` runs it between the workload's cycles and divides
the deployment's CPU time per access by the probe's time, so a slower
host makes the program and the probe slower together and the ratio
stays put.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Callable, List, Tuple

import numpy as np

from deploy import DEPLOY_CPUS, LOADGEN_CPUS, cpu_seconds

now = time.monotonic

#: Seconds of cycles between two probes.
PROBE_EVERY = 1.0
#: Timings of the fixed task per probe.
PROBE_REPS = 3

_RNG = np.random.default_rng(0)
_KEYS = _RNG.integers(0, 1 << 30, 1 << 17)
_VALUES = _RNG.integers(0, 1 << 30, 1 << 19)
_GATHER = _RNG.integers(0, 1 << 19, 1 << 19)
_DOC = {"id": "r1", "sizes": list(range(1, 1025)), "ok": True}


def _task() -> None:
    np.argsort(_KEYS, kind="stable")
    np.cumsum(_VALUES[_GATHER])
    counts: dict = {}
    for i in range(40_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    json.loads(json.dumps(_DOC))


def probe() -> List[float]:
    """CPU seconds of each of a few runs of the fixed task.

    The calling thread moves to the deployment's CPU for the probe and
    back to the load generator's after it.
    """
    os.sched_setaffinity(0, DEPLOY_CPUS)
    try:
        times = []
        for _ in range(PROBE_REPS):
            t0 = time.thread_time()
            _task()
            times.append(time.thread_time() - t0)
    finally:
        os.sched_setaffinity(0, LOADGEN_CPUS)
    return times


class CostMeter:
    """Deployment CPU time and accesses per cycle, beside host probes.

    The host's speed also wavers within a second (one timing of the
    fixed task in eight is a fifth off its neighbours), so the probe
    time a run is measured against is the median of every timing taken
    during it, not the timing nearest to each cycle.
    """

    def __init__(self, pids: Callable[[], List[int]]) -> None:
        self._pids = pids
        self._live: List[int] = []
        self._last = -float("inf")
        #: Every timing of the fixed task, in seconds.
        self.probes: List[float] = []
        #: ``(cpu_s, accesses, wall_s)`` of every cycle.
        self.cycles: List[Tuple[float, int, float]] = []

    def _probe(self) -> None:
        self.probes.extend(probe())
        self._live = self._pids()
        self._last = now()

    def run(self, cycle: Callable[[], int]) -> None:
        """Run one cycle (which returns its accesses) and account for it."""
        if now() - self._last >= PROBE_EVERY:
            self._probe()
        c0, t0 = cpu_seconds(self._live), now()
        accesses = cycle()
        t1, c1 = now(), cpu_seconds(self._live)
        self.cycles.append((c1 - c0, accesses, t1 - t0))

    def close(self) -> None:
        """The probe after the last cycle."""
        self._probe()

    @property
    def accesses(self) -> int:
        return sum(c[1] for c in self.cycles)

    @property
    def cycle_wall_s(self) -> float:
        return sum(c[2] for c in self.cycles)

    @property
    def cpu_s(self) -> float:
        return sum(c[0] for c in self.cycles)

    def probe_s(self) -> float:
        return statistics.median(self.probes)

    def probes_per_maccess(self) -> float:
        """Deployment CPU per million accesses, in probe CPU times."""
        return 1e6 * self.cpu_s / (self.accesses * self.probe_s())

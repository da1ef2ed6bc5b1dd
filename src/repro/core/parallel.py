"""PARALLEL-INCREMENT-AND-FREEZE's cost model (Sections 4 and 6).

Two layers of parallelism, mirroring the paper:

* **Subtree parallelism** (the Θ(log n) form of Theorem 4.3, which the
  paper's implementation uses) lives in the engine's one level loop:
  :func:`~repro.core.engine.solve_prepost_arrays` with ``workers > 1``
  runs levels until enough independent subproblems exist, then solves
  disjoint groups of them on a thread pool (or a process executor).
  Groups write to disjoint slices of the output array, and the heavy
  numpy kernels release the GIL, so this is real shared-memory
  parallelism — on hardware with one core it still exercises the full
  code path.  ``SolveConfig(algorithm="parallel-iaf", workers=N)`` and
  ``iaf_distances(trace, workers=N)`` reach it.
* **Intra-partition parallelism** (the O(log² n)-span form of Theorem
  6.2): the engine's partition step is already expressed as maps and
  scans — the Lemma 6.1 cluster-sum — so its span under the CREW PRAM
  model is O(log n) per level.  :class:`~repro.core.engine.EngineStats`
  records both span accountings; :func:`measure_parallel_cost` exposes
  them for the Figure-2 speedup model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .._typing import DEFAULT_DTYPE, TraceLike
from ..pram.model import SpeedupCurve
from ..pram.scheduler import Cost
from .engine import EngineStats


@dataclass(frozen=True)
class ParallelCostReport:
    """Measured work/span of one run under both span accountings."""

    basic: Cost
    parallel: Cost

    def basic_speedups(self, processors: List[int]) -> SpeedupCurve:
        """Figure-2-style curve for basic IAF (Θ(log n) parallelism)."""
        return SpeedupCurve.from_cost("iaf", self.basic, processors)

    def parallel_speedups(self, processors: List[int]) -> SpeedupCurve:
        """Curve for PARALLEL-IAF (Θ(n/log n) parallelism)."""
        return SpeedupCurve.from_cost("parallel-iaf", self.parallel, processors)


def measure_parallel_cost(
    trace: TraceLike, *, dtype: "np.typing.DTypeLike" = DEFAULT_DTYPE
) -> ParallelCostReport:
    """Run the engine once, returning its PRAM costs for speedup modeling."""
    stats = EngineStats()
    from .engine import iaf_distances  # local import avoids cycle at module load

    iaf_distances(trace, dtype=dtype, stats=stats)
    return ParallelCostReport(
        basic=stats.basic_cost(), parallel=stats.parallel_cost()
    )

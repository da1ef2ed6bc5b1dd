"""Differential testing and fuzzing for every implementation in ``repro``.

The package has five independent ways to compute the same hit-rate curve
(vectorized engine, pure-python reference, tree/Mattson/PARDA baselines,
ground-truth simulators) plus weighted/bounded/streaming/parallel
variants — exactly the situation where silent divergence bugs hide.
This subpackage turns that redundancy into an always-on randomized
cross-validation harness:

* :mod:`repro.qa.strategies` — seeded adversarial trace/config
  generators; a case is a pure function of ``(seed, profile)``.
* :mod:`repro.qa.oracle` — the pairwise oracle matrix; one call checks
  one case against every registered implementation and reports the first
  diverging index (never raises).
* :mod:`repro.qa.shrink` — delta-debugging minimizer that reduces any
  failing case to a minimal reproducer and renders it as a
  ready-to-paste pytest regression.
* :mod:`repro.qa.accuracy` — the sampled-vs-exact error harness behind
  the CI accuracy gate and ``docs/ACCURACY.md``.
* :mod:`repro.qa.sorts` — counts the trace sorts a computation runs
  (the one-sort-per-solve tests and the chunked benchmark read it).

Driven by ``python -m repro fuzz`` (see ``docs/FUZZING.md``) and by the
deterministic matrix suite in ``tests/qa/``.
"""

from .accuracy import (
    MAX_BOUND,
    MEAN_BOUND,
    REFERENCE_RATE,
    WORKLOADS,
    AccuracyRow,
    AccuracyWorkload,
    markdown_table,
    measure,
    measure_workload,
)
from .faults import WorkerKillPlan, inject_worker_kills
from .oracle import (
    Divergence,
    OracleReport,
    run_case,
    run_case_detailed,
)
from .shrink import divergence_signature, shrink_case, to_pytest
from .sorts import count_sorts
from .strategies import (
    PROFILES,
    STRATEGIES,
    WORKER_CHOICES,
    FuzzCase,
    FuzzConfig,
    case_from_seed,
    object_sizes_for,
    push_plan_for,
    sample_case,
    sample_config,
)

__all__ = [
    "Divergence",
    "OracleReport",
    "run_case",
    "run_case_detailed",
    "divergence_signature",
    "shrink_case",
    "to_pytest",
    "PROFILES",
    "STRATEGIES",
    "WORKER_CHOICES",
    "FuzzCase",
    "FuzzConfig",
    "case_from_seed",
    "object_sizes_for",
    "push_plan_for",
    "sample_case",
    "sample_config",
    "WorkerKillPlan",
    "inject_worker_kills",
    "count_sorts",
    "AccuracyRow",
    "AccuracyWorkload",
    "MAX_BOUND",
    "MEAN_BOUND",
    "REFERENCE_RATE",
    "WORKLOADS",
    "markdown_table",
    "measure",
    "measure_workload",
]

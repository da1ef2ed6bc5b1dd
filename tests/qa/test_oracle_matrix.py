"""Deterministic oracle-matrix suite: seeded fuzz cases as fixed tests.

Every seed below is a full differential-testing case (trace + config)
pushed through every registered implementation.  The cases are pure
functions of ``(seed, profile)``, so this suite is deterministic — it is
the committed, always-on slice of what ``python -m repro fuzz`` explores
randomly.
"""

import numpy as np
import pytest

from repro.qa import (
    PROFILES,
    STRATEGIES,
    case_from_seed,
    object_sizes_for,
    push_plan_for,
    run_case_detailed,
)

QUICK_SEEDS = list(range(20))
DEEP_SEEDS = [5000, 5001]


@pytest.mark.parametrize("seed", QUICK_SEEDS)
def test_quick_matrix_agrees(seed):
    case = case_from_seed(seed, profile="quick")
    report = run_case_detailed(case)
    assert report.comparisons, "matrix ran no comparisons"
    assert report.divergences == [], "\n".join(
        d.describe() for d in report.divergences
    )


@pytest.mark.parametrize("seed", DEEP_SEEDS)
def test_deep_matrix_agrees(seed):
    case = case_from_seed(seed, profile="deep")
    report = run_case_detailed(case)
    assert report.ok, "\n".join(d.describe() for d in report.divergences)


@pytest.mark.parametrize("seed", [0, 7, 13])
def test_cases_are_deterministic(seed):
    a = case_from_seed(seed, profile="quick")
    b = case_from_seed(seed, profile="quick")
    assert a.strategy == b.strategy
    assert a.config == b.config
    assert np.array_equal(a.trace, b.trace)
    assert np.array_equal(object_sizes_for(a), object_sizes_for(b))
    assert np.array_equal(push_plan_for(a), push_plan_for(b))


def test_push_plan_covers_trace():
    for seed in range(10):
        case = case_from_seed(seed, profile="quick")
        assert int(push_plan_for(case).sum()) == case.trace.size


def test_object_sizes_cover_every_address():
    from repro.qa.oracle import WEIGHTED_MAX_ADDR

    for seed in range(10):
        case = case_from_seed(seed, profile="quick")
        if case.trace.size and int(case.trace.max()) >= WEIGHTED_MAX_ADDR:
            continue  # weighted oracles are gated off for these traces
        sizes = object_sizes_for(case)
        assert (sizes >= 1).all()
        if case.trace.size:
            assert sizes.size > int(case.trace.max())


def test_every_strategy_reachable():
    seen = set()
    for seed in range(200):
        seen.add(case_from_seed(seed, profile="quick").strategy)
        if len(seen) == len(STRATEGIES):
            break
    assert seen == set(STRATEGIES)


def test_profiles_exported():
    assert PROFILES == ("quick", "deep")


def test_new_rows_reachable():
    """The tenant-exact and sampled-iaf rows actually join the matrix."""
    case = case_from_seed(0, profile="quick")
    report = run_case_detailed(case)
    impls = {c.split("~")[1].split(":")[0] for c in report.comparisons}
    assert {"tenant-exact", "sampled-iaf"} <= impls


@pytest.mark.parametrize("seed", [4, 51], ids=["int64", "int32"])
def test_auto_width_row_on_near_dtype_limit_addresses(seed):
    """``iaf-auto-width`` (no dtype: int64 addresses, certified int32
    ops) joins the matrix and agrees with the pinned hub, on addresses
    hugging either dtype's max."""
    case = case_from_seed(seed, profile="quick")
    assert case.strategy == "near_dtype_limit" and case.trace.size
    report = run_case_detailed(case)
    assert "iaf~iaf-auto-width:distances" in report.comparisons
    assert not report.divergences, report.divergences


def test_sampled_rates_reachable():
    """Every FuzzConfig sample rate (incl. the degenerate 1.0) occurs."""
    seen = set()
    for seed in range(100):
        seen.add(case_from_seed(seed, profile="quick").config.sample_rate)
        if len(seen) == 4:
            break
    assert seen == {1.0, 0.5, 0.25, 0.05}


@pytest.mark.parametrize("seed", list(range(25)))
def test_tenant_exact_bit_identical(seed):
    """The tenant-exact guarantee, pinned across 25 seeds.

    A never-demoted exact tenant fed the case's randomized push plan
    must answer bit-identically to the direct batch solve — whatever
    the strategy, dtype, chunk size, or batch boundaries.
    """
    from repro.core.engine import iaf_hit_rate_curve
    from repro.tenants import TenantRegistry

    case = case_from_seed(seed, profile="quick")
    cfg = case.config
    registry = TenantRegistry()
    registry.register(
        "t", chunk_size=cfg.chunk_size or None, dtype=cfg.numpy_dtype()
    )
    pos = 0
    for step in push_plan_for(case).tolist():
        registry.push("t", case.trace[pos : pos + step])
        pos += step
    snap = registry.curve("t")
    exact = iaf_hit_rate_curve(case.trace)
    assert snap.exact_curve is not None
    np.testing.assert_array_equal(
        np.asarray(snap.exact_curve.hits_cumulative),
        np.asarray(exact.hits_cumulative),
    )
    assert snap.exact_curve.total_accesses == exact.total_accesses


def test_matrix_agrees_under_worker_kills():
    """The process tiers stay exact while a worker is killed mid-solve.

    Forces ``process_workers`` on so the ``parallel-procs`` and
    ``process-iaf`` rows join the matrix, then arms the fault hook: the
    executor must ride its respawn/retry ladder and still agree with
    every other implementation bit for bit.
    """
    import dataclasses

    from repro.qa import inject_worker_kills

    case = case_from_seed(5002, profile="deep")
    case = dataclasses.replace(
        case, config=dataclasses.replace(case.config, process_workers=2)
    )
    with inject_worker_kills(kills=1) as plan:
        report = run_case_detailed(case)
    assert {"parallel-procs", "process-iaf"} <= {
        c.split("~")[1].split(":")[0] for c in report.comparisons
    }
    assert plan.events, "the fault hook never fired — nothing dispatched"
    assert report.ok, "\n".join(d.describe() for d in report.divergences)

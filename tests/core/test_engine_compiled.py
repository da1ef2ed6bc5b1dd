"""Compiled-backend differential suite: bit identity, fallback, env knobs.

The compiled (numba) kernels must be *bit-identical* to the fused numpy
kernel on every trace shape the fuzzer can draw — unit and weighted,
every dtype, batched and chunked — and must degrade to the fused kernel
with a single warning when numba is unavailable.

On hosts without numba the suite forces the un-jitted kernels via
``REPRO_COMPILED_PURE`` (the same code numba compiles, run as plain
python), so the compiled code path is exercised everywhere; the CI
numba leg runs the identical assertions against the jitted kernels.
"""

import builtins
import importlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import compiled
from repro.core import engine
from repro.core.api import solve
from repro.core.chunked import chunked_iaf
from repro.core.config import SolveConfig
from repro.core.engine import (
    ENGINE_BACKENDS,
    EngineStats,
    Segments,
    iaf_distances,
    iaf_distances_batch,
    iaf_hit_rate_curve,
    resolve_engine_backend,
    solve_prepost_arrays,
    thread_workspace,
)
from repro.core.prevnext import (
    prev_next_arrays,
    prev_next_arrays_compiled,
)
from repro.core.weighted import weighted_backward_distances
from repro.errors import CapacityError, ReproError
from repro.qa.strategies import case_from_seed, object_sizes_for

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

#: The acceptance sweep: 25 fuzz seeds, each drawing a different trace
#: strategy (zipf / scan-loop / phase-shift / duplicate-heavy /
#: near-dtype-limit / empty …) and config (dtype, chunk size, workers).
SWEEP_SEEDS = list(range(25))


@pytest.fixture
def compiled_on(monkeypatch):
    """Make ``engine_backend="compiled"`` actually run the kernels.

    A no-op where numba is installed; elsewhere it forces the pure
    fallback so the compiled code path (not the degrade path) runs.
    """
    if not compiled.jit_enabled():
        monkeypatch.setenv(compiled.PURE_ENV, "1")
    yield


def _subprocess_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p
    )
    env.pop("REPRO_ENGINE_BACKEND", None)
    env.update(extra)
    return env


class TestBitIdentity:
    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_fuzz_case_distances_identical(self, compiled_on, seed):
        case = case_from_seed(seed)
        trace, dt = case.trace, case.config.numpy_dtype()
        fused = iaf_distances(trace, dtype=dt, engine_backend="fused")
        comp = iaf_distances(trace, dtype=dt, engine_backend="compiled")
        assert comp.dtype == fused.dtype
        assert np.array_equal(fused, comp)

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_fuzz_case_weighted_identical(self, compiled_on, seed):
        case = case_from_seed(seed)
        trace = case.trace
        if trace.size and int(trace.max()) >= 1 << 16:
            pytest.skip("address space too large for a sizes table")
        sizes = object_sizes_for(case)
        fused = weighted_backward_distances(trace, sizes)
        comp = weighted_backward_distances(trace, sizes,
                                           engine_backend="compiled")
        assert np.array_equal(fused, comp)

    @pytest.mark.parametrize("seed", SWEEP_SEEDS[::5])
    def test_fuzz_case_curves_identical(self, compiled_on, seed):
        case = case_from_seed(seed)
        a = iaf_hit_rate_curve(case.trace)
        b = iaf_hit_rate_curve(case.trace, engine_backend="compiled")
        assert np.array_equal(a.hit_rate_array(), b.hit_rate_array())
        assert a.max_size == b.max_size

    def test_batch_identical_to_loop(self, compiled_on):
        rng = np.random.default_rng(11)
        traces = [np.zeros(0, dtype=np.int64)] + [
            (rng.zipf(1.3, size=n) % 89).astype(np.int64)
            for n in (1, 37, 512, 2048)
        ]
        want = iaf_distances_batch(traces, engine_backend="fused")
        got = iaf_distances_batch(traces, engine_backend="compiled")
        assert len(want) == len(got)
        for w, g in zip(want, got):
            assert np.array_equal(w, g)

    @pytest.mark.parametrize("chunk", [1, 7, 64, 4096])
    def test_chunked_identical(self, compiled_on, chunk):
        rng = np.random.default_rng(5)
        trace = (rng.zipf(1.2, size=1500) % 130).astype(np.int64)
        a = chunked_iaf(trace, chunk).curve
        b = chunked_iaf(trace, chunk, engine_backend="compiled").curve
        assert np.array_equal(a.hit_rate_array(), b.hit_rate_array())

    def test_parallel_threads_identical(self, compiled_on):
        rng = np.random.default_rng(9)
        trace = (rng.zipf(1.4, size=3000) % 200).astype(np.int64)
        want = iaf_distances(trace, workers=3)
        got = iaf_distances(trace, workers=3, engine_backend="compiled")
        assert np.array_equal(want, got)

    def test_solve_dispatch_identical(self, compiled_on):
        rng = np.random.default_rng(13)
        trace = (rng.zipf(1.3, size=800) % 64).astype(np.int64)
        a = solve(trace, SolveConfig())
        b = solve(trace, SolveConfig(engine_backend="compiled"))
        assert np.array_equal(a.curve.hit_rate_array(),
                              b.curve.hit_rate_array())

    def test_int32_mode_identical(self, compiled_on):
        rng = np.random.default_rng(17)
        trace = (rng.zipf(1.2, size=5000) % 500).astype(np.int32)
        fused = iaf_distances(trace, dtype=np.int32)
        comp = iaf_distances(trace, dtype=np.int32,
                             engine_backend="compiled")
        assert np.array_equal(fused, comp)

    def test_stats_parity_with_fused(self, compiled_on):
        rng = np.random.default_rng(23)
        trace = (rng.zipf(1.3, size=2000) % 111).astype(np.int64)
        sf, sc = EngineStats(), EngineStats()
        iaf_distances(trace, stats=sf)
        iaf_distances(trace, stats=sc, engine_backend="compiled")
        assert sf.levels == sc.levels
        assert sf.work == sc.work
        assert sf.ops_per_level == sc.ops_per_level
        assert sf.peak_level_ops == sc.peak_level_ops
        assert sf.span_basic == sc.span_basic

    def test_int32_head_overflow_raises(self, compiled_on):
        from repro.core.ops import POSTFIX, PREFIX

        n = 8
        kind = np.array([PREFIX] * 4 + [PREFIX, POSTFIX, PREFIX, POSTFIX],
                        dtype=np.uint8)
        t = np.array([n] * 4 + [0, 1, 1, 2], dtype=np.int32)
        r = np.array([2**30 - 1] * 4 + [0] * 4, dtype=np.int32)
        seg = Segments.single(kind, t, r, 0, n)
        values = np.zeros(n + 1, dtype=np.int64)
        with pytest.raises(CapacityError, match="int64"):
            solve_prepost_arrays(seg, values, engine_backend="compiled")

    def test_int32_kept_r_overflow_raises(self, compiled_on):
        """The kernel flags a kept op's ``r`` past int32 through ``err``,
        as it flags heads, instead of wrapping it."""
        from repro.core.ops import POSTFIX, PREFIX

        n = 8
        kind = np.array([POSTFIX, PREFIX] + [PREFIX] * 4, dtype=np.uint8)
        t = np.array([5, 0] + [n] * 4, dtype=np.int32)
        r = np.array([0, 0] + [2**30 - 1] * 4, dtype=np.int32)
        seg = Segments.single(kind, t, r, 0, n)
        values = np.zeros(n + 1, dtype=np.int64)
        with pytest.raises(CapacityError, match="4294967296"):
            solve_prepost_arrays(seg, values, engine_backend="compiled")

    def test_workspace_goes_quiet_after_warmup(self, compiled_on):
        rng = np.random.default_rng(29)
        trace = (rng.zipf(1.2, size=8192) % 900).astype(np.int64)
        ws = thread_workspace()
        first = iaf_distances(trace, engine_backend="compiled")
        grown = len(ws.grow_events)
        second = iaf_distances(trace, engine_backend="compiled")
        assert np.array_equal(first, second)
        assert len(ws.grow_events) == grown, (
            "steady-state compiled solve must not allocate level buffers"
        )


class TestPrevNextCompiled:
    CASES = [
        np.zeros(0, dtype=np.int64),
        np.zeros(1, dtype=np.int64),
        np.zeros(64, dtype=np.int64),                   # one hot address
        np.arange(64, dtype=np.int64),                  # all distinct
        np.array([5, 3, 5, 5, 3, 9, 3], dtype=np.int64),
    ]

    @pytest.mark.parametrize("trace", CASES, ids=range(len(CASES)))
    def test_matches_sort_implementation(self, trace):
        p1, n1 = prev_next_arrays(trace)
        p2, n2 = prev_next_arrays_compiled(trace)
        assert np.array_equal(p1, p2)
        assert np.array_equal(n1, n2)

    @pytest.mark.parametrize("seed", SWEEP_SEEDS[::3])
    def test_fuzz_matches_sort_implementation(self, seed):
        trace = case_from_seed(seed).trace
        p1, n1 = prev_next_arrays(trace)
        p2, n2 = prev_next_arrays_compiled(trace)
        assert np.array_equal(p1, p2)
        assert np.array_equal(n1, n2)

    def test_dispatch_through_backend_kwarg(self, compiled_on):
        rng = np.random.default_rng(31)
        trace = (rng.integers(0, 50, size=500)).astype(np.int64)
        base = prev_next_arrays(trace)
        routed = prev_next_arrays(trace, engine_backend="compiled")
        assert np.array_equal(base[0], routed[0])
        assert np.array_equal(base[1], routed[1])


class TestFallback:
    def test_registered_backend(self):
        assert ENGINE_BACKENDS == ("fused", "naive", "compiled")

    def test_unknown_backend_lists_all(self):
        with pytest.raises(ReproError) as exc:
            resolve_engine_backend("vectorized")
        msg = str(exc.value)
        for name in ENGINE_BACKENDS:
            assert name in msg

    def test_none_resolves_to_process_default(self):
        assert resolve_engine_backend(None) == engine.DEFAULT_ENGINE_BACKEND

    def test_degrades_once_with_warning(self, monkeypatch):
        if compiled.jit_enabled():
            pytest.skip("numba installed; the degrade path is unreachable")
        monkeypatch.delenv(compiled.PURE_ENV, raising=False)
        monkeypatch.setattr(engine, "_fallback_warned", False)
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert resolve_engine_backend("compiled") == "fused"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would fail
            assert resolve_engine_backend("compiled") == "fused"

    def test_degraded_results_identical_to_fused(self, monkeypatch):
        if compiled.jit_enabled():
            pytest.skip("numba installed; the degrade path is unreachable")
        monkeypatch.delenv(compiled.PURE_ENV, raising=False)
        monkeypatch.setattr(engine, "_fallback_warned", True)
        rng = np.random.default_rng(37)
        trace = (rng.zipf(1.3, size=1000) % 80).astype(np.int64)
        assert np.array_equal(
            iaf_distances(trace, engine_backend="compiled"),
            iaf_distances(trace, engine_backend="fused"),
        )

    def test_simulated_numba_absence(self, monkeypatch):
        """`sys.modules` patch: the module must degrade cleanly.

        Blocks the numba import, reloads :mod:`repro.core.compiled`,
        and asserts the degrade chain: not available -> one warning ->
        fused results.  Runs everywhere (on numba hosts it simulates
        the dependency disappearing).
        """
        monkeypatch.delenv(compiled.PURE_ENV, raising=False)
        real_import = builtins.__import__

        def blocked(name, *args, **kwargs):
            if name == "numba" or name.startswith("numba."):
                raise ImportError("numba blocked by test")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", blocked)
        monkeypatch.delitem(sys.modules, "numba", raising=False)
        try:
            importlib.reload(compiled)
            assert not compiled.NUMBA_AVAILABLE
            assert not compiled.is_available()
            monkeypatch.setattr(engine, "_fallback_warned", False)
            trace = np.array([1, 2, 1, 3, 2, 1], dtype=np.int64)
            with pytest.warns(RuntimeWarning, match="falling back"):
                got = iaf_distances(trace, engine_backend="compiled")
            assert np.array_equal(
                got, iaf_distances(trace, engine_backend="fused")
            )
        finally:
            monkeypatch.undo()
            importlib.reload(compiled)
            engine._fallback_warned = False

    def test_degraded_compiled_coalesces_with_fused(self, monkeypatch):
        if compiled.jit_enabled():
            pytest.skip("numba installed; compiled does not degrade")
        monkeypatch.delenv(compiled.PURE_ENV, raising=False)
        monkeypatch.setattr(engine, "_fallback_warned", True)
        assert (SolveConfig(engine_backend="compiled").batch_key()
                == SolveConfig(engine_backend="fused").batch_key())
        assert (SolveConfig(engine_backend="compiled").batch_key()
                == SolveConfig().batch_key())

    def test_available_compiled_gets_its_own_batch_key(self, compiled_on):
        assert (SolveConfig(engine_backend="compiled").batch_key()
                != SolveConfig().batch_key())


class TestEnvKnobs:
    def test_unknown_env_backend_rejected_at_import(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import repro.core.engine"],
            capture_output=True, text=True,
            env=_subprocess_env(REPRO_ENGINE_BACKEND="bogus"),
        )
        assert proc.returncode != 0
        assert "unknown engine backend" in proc.stderr
        assert "compiled" in proc.stderr  # the message lists every backend

    @pytest.mark.parametrize("backend", ["naive", "fused"])
    def test_env_default_backend_honored(self, backend):
        code = ("import repro.core.engine as e; "
                "print(e.DEFAULT_ENGINE_BACKEND)")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True,
            env=_subprocess_env(REPRO_ENGINE_BACKEND=backend),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == backend

    def test_pure_env_read_dynamically(self, monkeypatch):
        if compiled.jit_enabled():
            pytest.skip("always available with numba")
        monkeypatch.delenv(compiled.PURE_ENV, raising=False)
        assert not compiled.is_available()
        monkeypatch.setenv(compiled.PURE_ENV, "1")
        assert compiled.is_available()
        monkeypatch.setenv(compiled.PURE_ENV, "0")
        assert not compiled.is_available()


class TestOracleIntegration:
    def test_matrix_gains_compiled_rows_when_available(self, compiled_on):
        from repro.qa.oracle import run_case_detailed

        report = run_case_detailed(case_from_seed(3))
        joined = " ".join(report.comparisons)
        assert "compiled-iaf" in joined
        assert "compiled-chunked-iaf" in joined
        assert report.divergences == []

    def test_matrix_skips_compiled_rows_when_unavailable(self, monkeypatch):
        if compiled.jit_enabled():
            pytest.skip("numba installed; rows are always present")
        from repro.qa.oracle import run_case_detailed

        monkeypatch.delenv(compiled.PURE_ENV, raising=False)
        report = run_case_detailed(case_from_seed(3))
        assert "compiled-iaf" not in " ".join(report.comparisons)

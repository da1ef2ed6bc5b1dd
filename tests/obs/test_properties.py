"""Property-based tests for the observability layer.

Three families:

* structural — arbitrarily nested spans always produce a forest that
  :func:`repro.obs.validate_span_tree` accepts;
* algebraic — :meth:`Counters.merge` is associative and commutative,
  the law that makes fold-in-any-order aggregation across workers and
  chunks correct;
* behavioural — enabling the tracer never changes any algorithm's
  output, checked both on hypothesis-generated traces and through the
  full qa differential oracle on 25 seeded fuzz cases.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import SolveConfig, hit_rate_curve
from repro.obs import Counters, Tracer, tracing, validate_span_tree
from repro.qa import case_from_seed, run_case_detailed

from ..conftest import small_traces

# -- span nesting forms a valid tree -------------------------------------

#: A span tree shape: each node is a list of child shapes.
span_shapes = st.recursive(
    st.just([]),
    lambda children: st.lists(children, max_size=3),
    max_leaves=25,
)


def _open_spans(tracer: Tracer, shape, name="n") -> int:
    count = 0
    for i, child in enumerate(shape):
        with tracer.span(f"{name}.{i}"):
            count += 1 + _open_spans(tracer, child, name=f"{name}.{i}")
    return count


@given(shapes=st.lists(span_shapes, max_size=4))
def test_any_nesting_yields_valid_span_forest(shapes):
    t = Tracer(enabled=True)
    total = 0
    for shape in shapes:  # several roots in sequence
        total += _open_spans(t, shape, name="root")
    events = t.events()
    assert len(events) == total
    validate_span_tree(events)
    # Every event's depth equals the dot-count of its generated name.
    for e in events:
        assert e.depth == e.name.count(".") - 1


@given(shapes=span_shapes)
def test_nesting_with_exceptions_still_valid(shapes):
    t = Tracer(enabled=True)

    def open_failing(shape, name="root"):
        for i, child in enumerate(shape):
            try:
                with t.span(f"{name}.{i}"):
                    open_failing(child, name=f"{name}.{i}")
                    if i % 2:
                        raise ValueError("injected")
            except ValueError:
                pass

    open_failing(shapes)
    validate_span_tree(t.events())


# -- counter merge laws ---------------------------------------------------

def _counters_from(entries) -> Counters:
    c = Counters()
    for name, value in entries:
        # Kind is a function of the name, so registries never conflict.
        if name.startswith("s"):
            c.add(name, value)
        else:
            c.peak(name, value)
    return c


# Integer-valued counters (ops, blocks, bytes — what the adapters
# record): their float64 sums are exact below 2**52, so the merge laws
# hold with = rather than approx.  Raw float sums are associative only
# up to rounding, which is inherent to summation, not to merge().
counter_entries = st.lists(
    st.tuples(
        st.sampled_from(["s0", "s1", "s2", "m0", "m1", "m2"]),
        st.integers(min_value=0, max_value=2**40),
    ),
    max_size=8,
)
counters_st = counter_entries.map(_counters_from)


@given(a=counters_st, b=counters_st)
def test_merge_commutative(a, b):
    assert a.merge(b) == b.merge(a)


@given(a=counters_st, b=counters_st, c=counters_st)
def test_merge_associative(a, b, c):
    assert a.merge(b).merge(c) == a.merge(b.merge(c))


@given(a=counters_st)
def test_empty_is_merge_identity(a):
    assert a.merge(Counters()) == a
    assert Counters().merge(a) == a


@given(parts=st.lists(counters_st, max_size=5), seed=st.randoms())
def test_merge_all_order_independent(parts, seed):
    shuffled = list(parts)
    seed.shuffle(shuffled)
    assert Counters.merge_all(parts) == Counters.merge_all(shuffled)


# -- tracing never changes results ---------------------------------------

@given(trace=small_traces())
def test_enabled_tracing_preserves_curves(trace):
    for algorithm, kwargs in (
        ("iaf", {}),
        ("bounded-iaf", {"max_cache_size": 4}),
        ("parallel-iaf", {"workers": 2}),
    ):
        config = SolveConfig(algorithm=algorithm, **kwargs)
        plain = hit_rate_curve(trace, config)
        with tracing() as t:
            traced = hit_rate_curve(trace, config)
        assert np.array_equal(plain.hits_cumulative,
                              traced.hits_cumulative), algorithm
        assert plain.total_accesses == traced.total_accesses
        validate_span_tree(t.events(), allow_missing_parents=True)


@pytest.mark.parametrize("seed", range(25))
def test_oracle_matrix_green_under_tracing(seed):
    """The full implementation matrix agrees with itself while traced.

    This is the strongest differential statement available: every
    algorithm pair the qa oracle compares stays in agreement with the
    tracer enabled, on 25 deterministic seeded cases.
    """
    case = case_from_seed(seed, profile="quick")
    with tracing() as t:
        report = run_case_detailed(case)
    assert report.ok, [d.describe() for d in report.divergences]
    assert report.comparisons
    validate_span_tree(t.events(), allow_missing_parents=True)

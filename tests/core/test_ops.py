"""Tests for the operation languages (Increment/Freeze and Prefix/Postfix)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.naive import naive_backward_distances
from repro.core.ops import (
    POSTFIX,
    PREFIX,
    Freeze,
    Increment,
    PostfixOp,
    PrefixOp,
    apply_increment_freeze,
    apply_prepost,
    increment_freeze_sequence,
    is_full_interval,
    prepost_effect_on_cell,
    prepost_sequence,
    prepost_sequence_arrays,
    project_prepost,
)
from repro.core.prevnext import prev_next_arrays
from repro.errors import OperationError

from ..conftest import small_traces


class TestIncrementFreeze:
    def test_null_increment(self):
        assert Increment(5, 3, 1).is_null
        assert not Increment(3, 5, 1).is_null

    def test_null_freeze(self):
        assert Freeze(-1).is_null
        assert not Freeze(0).is_null

    def test_projection_shrinks_range(self):
        assert Increment(2, 9, 1).project(4, 6) == Increment(4, 6, 1)

    def test_projection_can_null(self):
        assert Increment(2, 3, 1).project(5, 9).is_null
        assert Freeze(2).project(5, 9).is_null

    def test_apply_respects_freeze(self):
        ops = [Increment(0, 2, 1), Freeze(1), Increment(0, 2, 5)]
        out = apply_increment_freeze(ops, 3)
        assert out.tolist() == [6, 1, 6]

    def test_double_freeze_rejected_on_real_cells(self):
        with pytest.raises(OperationError):
            apply_increment_freeze([Freeze(2), Freeze(2)], 3)

    def test_double_freeze_tolerated_on_sentinel(self):
        apply_increment_freeze([Freeze(0), Freeze(0)], 3)

    def test_sequence_has_two_ops_per_access(self):
        ops = increment_freeze_sequence([1, 2, 1])
        assert len(ops) == 6
        assert isinstance(ops[0], Increment) and isinstance(ops[1], Freeze)

    @given(small_traces())
    def test_arrays_from_a_given_prev_match_sorting(self, trace):
        prev, _ = prev_next_arrays(trace)
        for got, want in zip(prepost_sequence_arrays(trace, prev=prev),
                             prepost_sequence_arrays(trace)):
            assert np.array_equal(got, want) and got.dtype == want.dtype

    def test_prev_length_must_match_trace(self):
        with pytest.raises(OperationError, match="prev has 1 entries"):
            prepost_sequence_arrays([1, 2], prev=np.array([-1]))

    @given(small_traces())
    def test_sequence_computes_distances(self, trace):
        """Lemma 4.1: running S on A yields the distance vector."""
        ops = increment_freeze_sequence(trace)
        got = apply_increment_freeze(ops, trace.size + 1)[1:]
        assert np.array_equal(got, naive_backward_distances(trace))


class TestPrefixPostfixProjection:
    def test_prefix_inside_unchanged(self):
        assert project_prepost(PrefixOp(5, 2), 3, 8) == PrefixOp(5, 2)

    def test_prefix_above_becomes_full(self):
        # t > b: the +1 part covers the whole child -> Prefix(b, r).
        assert project_prepost(PrefixOp(9, 2), 3, 8) == PrefixOp(8, 2)

    def test_prefix_below_loses_its_one(self):
        assert project_prepost(PrefixOp(1, 2), 3, 8) == PrefixOp(8, 1)

    def test_postfix_inside_unchanged(self):
        assert project_prepost(PostfixOp(5, 2), 3, 8) == PostfixOp(5, 2)

    def test_postfix_below_becomes_full(self):
        assert project_prepost(PostfixOp(1, 2), 3, 8) == PrefixOp(8, 2)

    def test_postfix_above_loses_its_one(self):
        assert project_prepost(PostfixOp(9, 2), 3, 8) == PrefixOp(8, 1)

    def test_empty_interval_rejected(self):
        with pytest.raises(OperationError):
            project_prepost(PrefixOp(5, 1), 8, 3)

    def test_full_interval_detection(self):
        assert is_full_interval(PrefixOp(8, 0), 8)
        assert not is_full_interval(PrefixOp(7, 0), 8)
        assert not is_full_interval(PostfixOp(8, 0), 8)

    @given(
        st.integers(0, 15), st.integers(-3, 3),
        st.integers(0, 7), st.integers(8, 15),
        st.booleans(),
    )
    def test_projection_preserves_effect(self, t, r, a, b, postfix):
        """Projected op has the parent op's exact effect on unfrozen cells."""
        op = PostfixOp(t, r) if postfix else PrefixOp(t, r)
        proj = project_prepost(op, a, b)
        for cell in range(a, b + 1):
            want, _ = prepost_effect_on_cell(op, cell, False, 0, 15)
            got, _ = prepost_effect_on_cell(proj, cell, False, a, b)
            assert want == got, (op, proj, cell)


class TestPrepostSequence:
    def test_first_occurrences_compile_to_single_prefix(self):
        ops = prepost_sequence([1, 2, 3])
        assert ops == [PrefixOp(0, 0), PrefixOp(1, 0), PrefixOp(2, 0)]

    def test_reaccess_compiles_to_pair(self):
        ops = prepost_sequence([1, 1])
        assert ops == [PrefixOp(0, 0), PrefixOp(1, -1), PostfixOp(1, 0)]

    @given(small_traces())
    def test_arrays_match_object_sequence(self, trace):
        ops = prepost_sequence(trace)
        kind, t, r = prepost_sequence_arrays(trace)
        assert len(ops) == kind.size
        for i, op in enumerate(ops):
            assert kind[i] == (POSTFIX if isinstance(op, PostfixOp) else PREFIX)
            assert t[i] == op.t and r[i] == op.r

    @given(small_traces())
    def test_arrays_from_a_given_prev_match_sorting(self, trace):
        prev, _ = prev_next_arrays(trace)
        for got, want in zip(prepost_sequence_arrays(trace, prev=prev),
                             prepost_sequence_arrays(trace)):
            assert np.array_equal(got, want) and got.dtype == want.dtype

    def test_prev_length_must_match_trace(self):
        with pytest.raises(OperationError, match="prev has 1 entries"):
            prepost_sequence_arrays([1, 2], prev=np.array([-1]))

    @given(small_traces())
    def test_sequence_computes_distances(self, trace):
        got = apply_prepost(prepost_sequence(trace), 0, trace.size)[1:]
        assert np.array_equal(got, naive_backward_distances(trace))

    @given(small_traces())
    def test_equivalent_to_increment_freeze(self, trace):
        """The Section-8 encoding is a drop-in replacement (Figure 1)."""
        via_if = apply_increment_freeze(
            increment_freeze_sequence(trace), trace.size + 1
        )[1:]
        via_pp = apply_prepost(prepost_sequence(trace), 0, trace.size)[1:]
        assert np.array_equal(via_if, via_pp)

    def test_arrays_respect_dtype(self):
        kind, t, r = prepost_sequence_arrays([1, 2, 1], dtype=np.int32)
        assert t.dtype == np.int32 and r.dtype == np.int32
        assert kind.dtype == np.uint8


class TestEffectOnCell:
    def test_postfix_freeze_ordering(self):
        """The +1 lands before the freeze; the trailing r after it."""
        delta, frozen = prepost_effect_on_cell(PostfixOp(4, 7), 4, False, 0, 9)
        assert delta == 1 and frozen  # +1 applied, +7 skipped

    def test_postfix_trailing_r_on_other_cells(self):
        delta, frozen = prepost_effect_on_cell(PostfixOp(4, 7), 2, False, 0, 9)
        assert delta == 7 and not frozen
        delta, frozen = prepost_effect_on_cell(PostfixOp(4, 7), 6, False, 0, 9)
        assert delta == 8 and not frozen

    def test_frozen_cell_ignores_everything(self):
        assert prepost_effect_on_cell(PrefixOp(5, 3), 2, True, 0, 9) == (0, True)
        assert prepost_effect_on_cell(PostfixOp(2, 3), 2, True, 0, 9) == (0, True)

    def test_cell_outside_interval_rejected(self):
        with pytest.raises(OperationError):
            prepost_effect_on_cell(PrefixOp(5, 0), 12, False, 0, 9)

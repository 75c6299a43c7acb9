"""Tests for class-proportion interpolation and controlled matrix series."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confmeasures import ConfusionMatrix, InvalidInput
from confmeasures.discrimination import discrimination_line
from confmeasures.measures import MeasureKind, evaluate_stack, overall_measure
from confmeasures.series import (
    _MAX_GRID_POINTS,
    MAX_CLASSES,
    ProportionVector,
    SeriesMode,
    class_proportions,
    series_matrix,
    series_stack,
    uniform_grid,
)


class TestClassProportions:
    def test_balanced_endpoint_is_exact(self):
        for k in range(2, 11):
            pi = class_proportions(k, 0.0)
            assert all(v == 1.0 / k for v in pi.pi)

    def test_halving_endpoint_is_exact_fraction(self):
        for k in (2, 3, 5, 8):
            pi = class_proportions(k, 1.0)
            denom = 2**k - 1
            expected = [Fraction(2 ** (k - i), denom) for i in range(1, k + 1)]
            for got, want in zip(pi.pi, expected):
                assert got == pytest.approx(float(want), abs=1e-15)

    def test_five_class_halving_two_decimals(self):
        pi = class_proportions(5, 1.0)
        rounded = [round(v, 2) for v in pi.pi]
        assert rounded == [0.52, 0.26, 0.13, 0.06, 0.03]

    def test_midpoint_three_class_fractions(self):
        pi = class_proportions(3, 0.5)
        expected = [19 / 42, 13 / 42, 10 / 42]
        for got, want in zip(pi.pi, expected):
            assert got == pytest.approx(want, abs=1e-15)

    @given(
        st.integers(min_value=2, max_value=12),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_sums_to_one_and_orders(self, k, p):
        pi = class_proportions(k, p)
        assert abs(float(np.sum(pi.pi)) - 1.0) <= 1e-12
        assert (pi.pi > 0).all()
        diffs = np.diff(pi.pi)
        assert (diffs <= 1e-15).all()

    def test_strictly_decreasing_when_imbalanced(self):
        pi = class_proportions(4, 0.3)
        assert (np.diff(pi.pi) < 0).all()

    def test_parameter_validation(self):
        with pytest.raises(InvalidInput):
            class_proportions(1, 0.5)
        with pytest.raises(InvalidInput):
            class_proportions(3, -0.01)
        with pytest.raises(InvalidInput):
            class_proportions(3, 1.01)
        with pytest.raises(InvalidInput):
            class_proportions(3.0, 0.5)
        with pytest.raises(InvalidInput):
            class_proportions(True, 0.5)

    @pytest.mark.parametrize("k", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_integer_k(self, k):
        assert class_proportions(k, 0.5).pi.tobytes() == \
            class_proportions(3, 0.5).pi.tobytes()
        line = discrimination_line(MeasureKind.OSR, k, 0.5, grid_step=0.25)
        assert line.rows == discrimination_line(
            MeasureKind.OSR, 3, 0.5, grid_step=0.25).rows


class TestProportionVector:
    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInput):
            ProportionVector(np.array([0.5, 0.5, 0.0]))

    @pytest.mark.parametrize("pi", [[0.5, float("nan")],
                                    [float("nan"), 0.25, 0.75]])
    def test_rejects_nan(self, pi):
        with pytest.raises(InvalidInput) as exc:
            ProportionVector(np.array(pi))
        bad = int(np.flatnonzero(np.isnan(pi))[0]) + 1
        assert exc.value.parameter == f"pi[{bad}]"
        assert exc.value.message == f"proportion {bad} is not positive"

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidInput):
            ProportionVector(np.array([0.5, 0.6]))

    def test_read_only(self):
        pi = class_proportions(3, 0.0)
        with pytest.raises(ValueError):
            pi.pi[0] = 0.9


class TestUniformGrid:
    def test_default_has_101_points(self):
        grid = uniform_grid()
        assert len(grid) == 101
        assert grid[0] == 0.0
        assert grid[-1] == 1.0
        steps = np.diff(grid)
        assert np.max(np.abs(steps - 0.01)) < 1e-12

    def test_restricted_range(self):
        grid = uniform_grid(step=0.1, c_lo=0.6)
        assert len(grid) == 5
        assert grid[0] == 0.6
        assert grid[-1] == 1.0

    def test_validation(self):
        with pytest.raises(InvalidInput):
            uniform_grid(step=0.0)
        with pytest.raises(InvalidInput):
            uniform_grid(step=1.5)
        with pytest.raises(InvalidInput):
            uniform_grid(c_lo=1.0)


class TestSeries:
    def test_all_classes_mode_erodes_every_column(self):
        pi = class_proportions(3, 0.0)
        m = series_matrix(pi, 0.4, SeriesMode.ALL_CLASSES)
        assert overall_measure(m, MeasureKind.OSR).value == pytest.approx(0.4)
        assert np.diag(m.cells) == pytest.approx(0.4 * pi.pi)

    def test_first_class_mode_erodes_only_class_one(self):
        m = series_matrix(class_proportions(3, 0.0), 0.4,
                          SeriesMode.FIRST_CLASS_ONLY)
        # overall accuracy loses only class 1's share of the errors
        assert overall_measure(m, MeasureKind.OSR).value == pytest.approx(0.8)
        cells = np.asarray(m.cells)
        assert cells[1, 1] == pytest.approx(1 / 3)
        assert cells[2, 2] == pytest.approx(1 / 3)
        assert cells[0, 1] == 0.0

    def test_modes_coincide_at_full_retention(self):
        pi = class_proportions(3, 0.25)
        mx = series_matrix(pi, 1.0, SeriesMode.ALL_CLASSES)
        my = series_matrix(pi, 1.0, SeriesMode.FIRST_CLASS_ONLY)
        assert np.array_equal(np.asarray(mx.cells), np.asarray(my.cells))

    def test_series_length_matches_grid(self):
        grid = uniform_grid(step=0.25)
        for mode in SeriesMode:
            stack = series_stack(class_proportions(4, 1.0), grid, mode)
            assert stack.shape == (len(grid), 4, 4)

    def test_accuracy_is_monotone_along_series(self):
        grid = uniform_grid(step=0.05)
        pi = class_proportions(3, 0.5)
        for mode in SeriesMode:
            values, defined = evaluate_stack(series_stack(pi, grid, mode),
                                             MeasureKind.OSR)
            assert defined.all()
            assert (np.diff(values) >= 0).all()
            scalar = [overall_measure(series_matrix(pi, c, mode),
                                      MeasureKind.OSR).value for c in grid]
            assert values.tolist() == scalar


class TestSeriesStack:
    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("mode", list(SeriesMode))
    def test_equals_series_matrix_bit_for_bit(self, k, p, mode):
        pi = class_proportions(k, p)
        c = np.concatenate([np.linspace(0.0, 1.0, 23), [1 / 3, 0.1, 0.7]])
        stack = series_stack(pi, c, mode)
        assert stack.shape == (c.size, k, k)
        for member, value in zip(stack, c.tolist()):
            cells = series_matrix(pi, value, mode).cells
            assert member.tobytes() == cells.tobytes()

    @pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
    @pytest.mark.parametrize("mode", list(SeriesMode))
    def test_rejects_like_series_matrix(self, bad, mode):
        pi = class_proportions(3, 0.5)
        with pytest.raises(InvalidInput) as scalar:
            series_matrix(pi, bad, mode)
        with pytest.raises(InvalidInput) as stacked:
            series_stack(pi, [0.2, 1.0, bad, 0.5], mode)
        assert stacked.value.to_dict() == scalar.value.to_dict()

    @pytest.mark.parametrize("mode", list(SeriesMode))
    def test_nan_retention_names_the_rate(self, mode):
        pi = class_proportions(3, 0.5)
        for build in (lambda: series_matrix(pi, float("nan"), mode),
                      lambda: series_stack(pi, [0.5, float("nan")], mode)):
            with pytest.raises(InvalidInput) as exc:
                build()
            assert exc.value.message == "retention rate 1 is outside [0, 1]"
            assert exc.value.parameter == "c[1]"

    @given(st.integers(min_value=2, max_value=12),
           st.floats(min_value=0.0, max_value=1.0),
           st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=6),
           st.sampled_from(list(SeriesMode)))
    @settings(max_examples=200, deadline=None)
    def test_members_are_valid_matrices(self, k, p, c, mode):
        # series_stack does not check its cells: valid inputs make them valid
        pi = class_proportions(k, p)
        for member in series_stack(pi, [0.0, 1.0, *c], mode):
            assert ConfusionMatrix(member).cells.tobytes() == member.tobytes()

    @pytest.mark.parametrize("p", [0.0, 1.0])
    @pytest.mark.parametrize("mode", list(SeriesMode))
    def test_members_at_the_class_ceiling_are_valid(self, p, mode):
        pi = class_proportions(MAX_CLASSES, p)
        for member in series_stack(pi, [0.0, 0.5, 1.0], mode):
            ConfusionMatrix(member)

    def test_empty(self):
        pi = class_proportions(3, 0.0)
        assert series_stack(pi, [], SeriesMode.ALL_CLASSES).shape == (0, 3, 3)

    def test_column_error_splits_evenly(self):
        pi = class_proportions(3, 0.5)
        cells = series_stack(pi, [0.4], SeriesMode.FIRST_CLASS_ONLY)[0]
        assert cells[0, 0] == 0.4 * pi.pi[0]
        # the error mass of column 1 splits evenly over the other rows
        assert cells[1, 0] == cells[2, 0] == pytest.approx(0.3 * pi.pi[0])
        assert np.array_equal(cells[:, 1:], np.diag(pi.pi)[:, 1:])

    @pytest.mark.parametrize("mode", list(SeriesMode))
    def test_column_sums_match_proportions(self, mode):
        rng = np.random.default_rng(3)
        for k in range(2, 7):
            pi = class_proportions(k, float(rng.uniform(0, 1)))
            stack = series_stack(pi, rng.uniform(0, 1, size=5), mode)
            assert np.abs(stack.sum(axis=1) - pi.pi).max() < 1e-14

    def test_retention_endpoints(self):
        pi = class_proportions(4, 0.6)
        full, empty = series_stack(pi, [1.0, 0.0], SeriesMode.ALL_CLASSES)
        assert np.array_equal(full, np.diag(pi.pi))
        assert np.diag(empty).max() == 0.0


class TestClassCeiling:
    @pytest.mark.parametrize("k", [MAX_CLASSES + 1, 1024, 1100, 10**9])
    def test_rejected_before_any_work(self, k):
        with pytest.raises(InvalidInput) as exc:
            class_proportions(k, 0.5)
        assert exc.value.parameter == "k"
        assert exc.value.value == k

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_ceiling_itself_is_accepted(self, p):
        pi = class_proportions(MAX_CLASSES, p)
        assert pi.k == MAX_CLASSES
        assert (pi.pi > 0).all()

    @pytest.mark.parametrize("k", [2, 3, 5, 12, 40])
    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 1.0])
    def test_valid_proportions_unchanged(self, k, p):
        i = np.arange(1, k + 1)
        expected = (1.0 - p) / k + p * 2.0 ** (k - i) / (2.0 ** k - 1.0)
        assert class_proportions(k, p).pi.tobytes() == expected.tobytes()


class TestGridStep:
    @pytest.mark.parametrize("step,c_lo", [(0.3, 0.0), (0.03, 0.0), (0.7, 0.0),
                                           (0.15, 0.6), (0.5, 0.6)])
    def test_step_must_divide_the_range(self, step, c_lo):
        with pytest.raises(InvalidInput) as exc:
            uniform_grid(step=step, c_lo=c_lo)
        assert exc.value.parameter == "step"

    @pytest.mark.parametrize("step,c_lo,n", [(0.01, 0.0, 101), (0.02, 0.0, 51),
                                             (0.05, 0.0, 21), (0.1, 0.6, 5),
                                             (0.3, 0.1, 4), (0.1, 0.3, 8),
                                             (1.0, 0.0, 2), (0.25, 0.0, 5)])
    def test_dividing_steps_keep_their_grid(self, step, c_lo, n):
        grid = uniform_grid(step=step, c_lo=c_lo)
        expected = tuple(float(v) for v in np.linspace(c_lo, 1.0, n))
        assert grid == expected


class TestGridCeiling:
    def test_ceiling_itself_is_accepted(self):
        assert len(uniform_grid(1 / (_MAX_GRID_POINTS - 1))) == _MAX_GRID_POINTS
        assert len(uniform_grid(1e-5)) == 100_001

    @pytest.mark.parametrize("step,c_lo", [(1 / _MAX_GRID_POINTS, 0.0),
                                           (0.4 / _MAX_GRID_POINTS, 0.6)])
    def test_one_point_over_rejected_before_any_work(self, step, c_lo):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInput) as exc:
                uniform_grid(step, c_lo)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.parameter == "step"
        assert exc.value.value == step
        assert peak < 100_000  # the grid would take megabytes

    def test_subnormal_step_rejected(self):
        # the quotient 1 / step is infinite and cannot be rounded
        with pytest.raises(InvalidInput) as exc:
            uniform_grid(5e-324)
        assert exc.value.parameter == "step"

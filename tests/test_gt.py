"""Tests for the quasi-independence fit and the chance-floor index built on it."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confmeasures import gt
from confmeasures import (
    ConfmeasuresError,
    ConfusionMatrix,
    DegenerateChance,
    NoConvergence,
    PerfectClassification,
    TooFewClasses,
    fit_quasi_independence,
    from_counts,
    gt_index,
)
from confmeasures.gt import CONVERGENCE_TOL, MAX_ITERATIONS, QuasiIndependenceFit
from confmeasures.measures import MeasureKind, class_measure
from confmeasures.series import SeriesMode, class_proportions, series_matrix

from conftest import FIRST_CLASSIFIER_CELLS, SPREAD_ERRORS_CELLS


def forward_matrix(rng, k):
    """Build a matrix whose off-diagonal cells factor exactly as a_i * b_j.

    Returns (matrix, a, b).  a sums to 1 and every component stays away
    from 0 so the fit is well conditioned; b_j is a modest fraction of
    column j's mass so the diagonal stays positive.
    """
    a = rng.dirichlet(np.ones(k)) * 0.9 + 0.1 / k
    a /= a.sum()
    pi = rng.dirichlet(np.ones(k)) * 0.8 + 0.2 / k
    pi /= pi.sum()
    beta = rng.uniform(0.05, 0.5, size=k)
    b = beta * pi
    cells = np.outer(a, b)
    for j in range(k):
        cells[j, j] = pi[j] - b[j] * (1.0 - a[j])
    return ConfusionMatrix(cells), a, b


def off_diagonal(cells):
    arr = np.asarray(cells, dtype=float)
    return arr - np.diag(np.diag(arr))


class TestForwardInversion:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_recovers_generating_factors(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(20):
            matrix, a, b = forward_matrix(rng, k)
            fit = fit_quasi_independence(matrix)
            assert np.max(np.abs(np.asarray(fit.a) - a)) < 1e-6
            assert np.max(np.abs(np.asarray(fit.b) - b)) < 1e-6

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_reconstructs_off_diagonals(self, k):
        rng = np.random.default_rng(200 + k)
        for _ in range(20):
            matrix, _, _ = forward_matrix(rng, k)
            fit = fit_quasi_independence(matrix)
            expected = off_diagonal(matrix.cells)
            got = off_diagonal(fit.reconstructed())
            assert np.max(np.abs(got - expected)) < 1e-8
            assert fit.residual < 1e-8

    def test_theta_recovery_is_exact(self):
        # with factors known, theta_i = (TPR_i - a_i) / (1 - a_i) by definition
        rng = np.random.default_rng(31)
        matrix, a, _ = forward_matrix(rng, 4)
        result = gt_index(matrix)
        for i in range(4):
            tpr = class_measure(matrix, i + 1, MeasureKind.TPR).value
            expected = (tpr - a[i]) / (1.0 - a[i])
            assert result.theta[i] == pytest.approx(expected, abs=1e-9)

    def test_named_theta_vector_round_trips(self):
        # choose theta first, derive the matrix, then invert
        theta = np.array([0.8, 0.7, 0.6])
        a = np.array([0.5, 0.3, 0.2])
        pi = np.array([0.4, 0.35, 0.25])
        # TPR_i = theta_i + a_i (1 - theta_i); diag = TPR_i * pi_i
        tpr = theta + a * (1.0 - theta)
        b = pi * (1.0 - tpr) / (1.0 - a)
        cells = np.outer(a, b)
        for j in range(3):
            cells[j, j] = tpr[j] * pi[j]
        result = gt_index(ConfusionMatrix(cells))
        assert np.allclose(result.theta, theta, atol=1e-9)
        assert np.allclose(result.fit.a, a, atol=1e-9)


class TestFixedPoint:
    """The fit must satisfy the margin equations regardless of model fit."""

    def margin_residual(self, matrix, fit):
        a = np.asarray(fit.a)
        b = np.asarray(fit.b)
        off = off_diagonal(matrix.cells)
        row_targets = off.sum(axis=1)
        col_targets = off.sum(axis=0)
        total_a = a.sum()
        total_b = b.sum()
        row_err = np.abs(a * (total_b - b) - row_targets)
        col_err = np.abs(b * (total_a - a) - col_targets)
        return max(row_err.max(), col_err.max())

    def test_case_study_matrix(self, first_classifier):
        fit = fit_quasi_independence(first_classifier)
        assert self.margin_residual(first_classifier, fit) < 1e-8
        assert math.fsum(fit.a) == pytest.approx(1.0, abs=1e-12)

    def test_random_matrices(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            cells = rng.uniform(0.01, 1.0, size=(3, 3))
            cells /= cells.sum()
            matrix = ConfusionMatrix(cells)
            fit = fit_quasi_independence(matrix)
            assert self.margin_residual(matrix, fit) < 1e-8
            assert all(v >= 0.0 for v in fit.a)
            assert all(v >= 0.0 for v in fit.b)

    def test_misfit_is_flagged_not_fatal(self, spread_errors):
        # margins can always be matched; cell-level misfit shows up in residual
        fit = fit_quasi_independence(spread_errors)
        assert self.margin_residual(spread_errors, fit) < 1e-8
        assert fit.residual > 1e-3

    def test_first_classifier_frozen_factors(self, first_classifier):
        # regression pin: factors for the worked three-class example
        fit = fit_quasi_independence(first_classifier)
        assert np.allclose(fit.a, [4 / 7, 2 / 7, 1 / 7], atol=1e-9)
        result = gt_index(first_classifier)
        assert result.theta[0] == pytest.approx(0.787879, abs=5e-7)
        assert result.theta[1] == pytest.approx(0.382353, abs=5e-7)
        assert result.theta[2] == pytest.approx(0.893939, abs=5e-7)


class TestErrors:
    def test_two_classes_rejected(self):
        matrix = ConfusionMatrix([[0.4, 0.1], [0.1, 0.4]])
        with pytest.raises(TooFewClasses):
            fit_quasi_independence(matrix)
        with pytest.raises(TooFewClasses):
            gt_index(matrix)

    def test_diagonal_matrix_rejected(self, perfect):
        with pytest.raises(PerfectClassification):
            fit_quasi_independence(perfect)
        with pytest.raises(PerfectClassification):
            gt_index(perfect)

    def test_exhausted_iterations_raise_with_residual(self, first_classifier):
        with mock.patch.object(gt, "MAX_ITERATIONS", 1), \
                pytest.raises(NoConvergence) as excinfo:
            fit_quasi_independence(first_classifier)
        assert excinfo.value.residual is not None

    def test_dominant_chance_factor_rejected(self):
        # one estimated class soaks up nearly all errors: a_1 -> 1
        cells = np.array(
            [
                [0.05, 0.299, 0.299],
                [1e-9, 0.05, 1e-9],
                [1e-9, 1e-9, 0.3],
            ]
        )
        cells /= cells.sum()
        matrix = ConfusionMatrix(cells)
        fit = fit_quasi_independence(matrix)
        if max(fit.a) >= 1.0 - 1e-12:
            with pytest.raises(DegenerateChance):
                gt_index(matrix)
        else:
            # fit stayed barely below the pole; index must still be finite
            result = gt_index(matrix)
            assert all(v is None or math.isfinite(v) for v in result.theta)


class TestStructuredSeries:
    def test_single_error_column_pins_other_factors(self):
        pi = class_proportions(3, 0.0)
        matrix = series_matrix(pi, 0.6, SeriesMode.FIRST_CLASS_ONLY)
        result = gt_index(matrix)
        assert result.theta == pytest.approx((0.6, 1.0, 1.0), abs=1e-12)
        assert result.fit.a == pytest.approx((0.0, 0.5, 0.5), abs=1e-12)
        assert result.fit.b[1] == 0.0
        assert result.fit.b[2] == 0.0

    def test_uniform_error_spread_gives_flat_row_factor(self):
        # x-series off-diagonals are exactly rank one with a_i = 1/3
        pi = class_proportions(3, 0.0)
        matrix = series_matrix(pi, 0.7, SeriesMode.ALL_CLASSES)
        result = gt_index(matrix)
        assert np.allclose(result.fit.a, [1 / 3, 1 / 3, 1 / 3], atol=1e-10)
        expected_theta = (0.7 - 1 / 3) / (2 / 3)
        assert result.theta == pytest.approx(
            (expected_theta,) * 3, abs=1e-10
        )

    def test_empty_true_class_yields_none_component(self):
        cells = np.array(
            [
                [0.5, 0.1, 0.0],
                [0.1, 0.3, 0.0],
                [0.0, 0.0, 0.0],
            ]
        )
        # column 3 carries no mass: theta_3 undefined, others intact
        matrix = ConfusionMatrix(cells)
        result = gt_index(matrix)
        assert result.theta[2] is None
        assert result.theta[0] is not None
        assert result.theta[1] is not None


class TestThetaProperties:
    def test_theta_never_exceeds_tpr(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            cells = rng.uniform(0.005, 1.0, size=(3, 3))
            cells /= cells.sum()
            matrix = ConfusionMatrix(cells)
            try:
                result = gt_index(matrix)
            except DegenerateChance:
                continue
            for i, theta in enumerate(result.theta):
                if theta is None:
                    continue
                tpr = class_measure(matrix, i + 1, MeasureKind.TPR).value
                assert theta <= tpr + 1e-12
                # equality only when no chance mass or a saturated class
                if abs(theta - tpr) < 1e-12:
                    assert result.fit.a[i] < 1e-12 or tpr > 1.0 - 1e-12

    def test_scale_of_b_does_not_change_theta(self):
        # doubling every error cell (then renormalizing) moves b, not theta's
        # dependence on a: recompute from scratch and compare the a vectors
        rng = np.random.default_rng(9)
        matrix, a, b = forward_matrix(rng, 3)
        fit = fit_quasi_independence(matrix)
        scaled = np.outer(a, b * 0.5)
        pi = np.asarray(matrix.cells).sum(axis=0)
        for j in range(3):
            scaled[j, j] = pi[j] - 0.5 * b[j] * (1.0 - a[j])

        scaled_fit = fit_quasi_independence(ConfusionMatrix(scaled))
        assert np.allclose(scaled_fit.a, fit.a, atol=1e-6)
        assert np.allclose(
            np.asarray(scaled_fit.b), 0.5 * np.asarray(fit.b), atol=1e-6
        )


# The fit as it was before a and b shared one buffer and the margin update
# divided directly where every denominator is positive; kept verbatim as the
# reference that the fit must match bit for bit.
def _reference_fit(m, tol=CONVERGENCE_TOL, max_iterations=MAX_ITERATIONS):
    k = m.k
    if k < 3:
        raise TooFewClasses(
            f"quasi-independence needs at least 3 classes, got {k}",
            parameter="k", value=k,
        )
    off = np.array(m.cells)
    np.fill_diagonal(off, 0.0)
    row = off.sum(axis=1)
    col = off.sum(axis=0)
    if not (off > 0).any():
        raise PerfectClassification(
            "all off-diagonal cells are zero; nothing to fit",
            parameter="cells", value=0.0,
        )

    a = np.full(k, 1.0 / k)
    b = col.copy()
    iterations = max_iterations
    for it in range(1, max_iterations + 1):
        a_prev = a
        b_prev = b
        a = _reference_margin_update(row, b)
        b = _reference_margin_update(col, a)
        delta = max(np.abs(a - a_prev).max(), np.abs(b - b_prev).max())
        if delta < tol:
            iterations = it
            break
    else:
        residual = _reference_residual(off, a, b)
        raise NoConvergence(
            f"fit did not converge in {max_iterations} iterations "
            f"(residual {residual:.3e})",
            residual=residual, parameter="max_iterations", value=max_iterations,
        )

    total = a.sum()
    a = a / total
    b = b * total
    return QuasiIndependenceFit(a=a, b=b, iterations=iterations,
                                residual=_reference_residual(off, a, b))


def _reference_margin_update(target, other):
    # new_i = target_i / sum_{j != i} other_j; a zero target pins the factor at 0
    denom = other.sum() - other
    out = np.zeros_like(target)
    positive = denom > 0
    out[positive] = target[positive] / denom[positive]
    stuck = ~positive & (target > 0)
    if stuck.any():
        raise NoConvergence(
            "margin update has a zero denominator for a nonzero margin",
            parameter="cells", value=float(target[stuck][0]),
        )
    return out


def _reference_residual(off, a, b):
    rec = np.outer(a, b)
    np.fill_diagonal(rec, 0.0)
    return float(np.abs(off - rec).max())


def _reference_theta(m, fit):
    col = m.col_sums()
    theta = []
    for ix in range(m.k):
        a_i = float(fit.a[ix])
        if a_i >= 1.0:
            raise DegenerateChance(
                f"chance probability of class {ix + 1} is 1, index undefined",
                parameter="a", value=a_i,
            )
        if col[ix] == 0:
            theta.append(None)
            continue
        tpr = float(m.cells[ix, ix] / col[ix])
        theta.append((tpr - a_i) / (1.0 - a_i))
    return tuple(theta)


def _bits(x):
    return None if x is None else np.asarray(x, dtype=float).tobytes()


def _outcome(call):
    """("ok", result) of a call, or ("error", type, dict, residual bits)."""
    try:
        return "ok", call()
    except ConfmeasuresError as exc:
        return ("error", type(exc), exc.to_dict(),
                _bits(getattr(exc, "residual", None)))


class TestAgainstReferenceFit:
    @given(st.integers(3, 12).flatmap(lambda k: st.lists(
        st.lists(st.integers(0, 20), min_size=k, max_size=k),
        min_size=k, max_size=k)),
        st.sampled_from(["any", "zero row", "zero column", "zero row and column",
                         "one error row", "one error column", "huge cell",
                         "perfect"]),
        st.sampled_from([MAX_ITERATIONS, 1, 2, 5]))
    # a cell of 3e16 leaves the other off-diagonal mass below the rounding of
    # its column sum: a zero denominator for a nonzero margin
    @example([[2, 1, 0], [0, 0, 0], [0, 0, 5]], "huge cell", MAX_ITERATIONS)
    @example([[5, 1, 1], [1, 5, 1], [1, 1, 5]], "zero row", MAX_ITERATIONS)
    @example([[5, 1, 1], [1, 5, 1], [1, 1, 5]], "one error column",
             MAX_ITERATIONS)
    @settings(max_examples=150, deadline=None)
    def test_bit_for_bit(self, rows, shape, max_iterations):
        counts = np.array(rows, dtype=np.int64)
        diag = np.diag(np.diag(counts))
        if shape in ("zero row", "zero row and column"):  # pins a_1 at 0
            counts[0] = diag[0]
        if shape in ("zero column", "zero row and column"):  # pins b_k at 0
            counts[:, -1] = diag[:, -1]
        # every other off-diagonal sum is 0: a zero denominator, zero target
        if shape == "one error row":
            counts[1:] = diag[1:]
        if shape == "one error column":
            counts[:, 1:] = diag[:, 1:]
        if shape == "huge cell":
            counts[1, 0] = 3 * 10**16
        if shape == "perfect":
            counts = diag
        if not counts.any():
            counts[0, 0] = 1
        m = from_counts(counts)
        want = _outcome(lambda: _reference_fit(m, max_iterations=max_iterations))
        # patched in the body: a hypothesis test takes no function fixture
        with mock.patch.object(gt, "MAX_ITERATIONS", max_iterations):
            got = _outcome(lambda: fit_quasi_independence(m))
            theta = _outcome(lambda: tuple(map(_bits, gt_index(m).theta)))
        if want[0] == "error":
            assert got == want
            return
        (_, fit), (_, ref) = got, want
        assert (_bits(fit.a), _bits(fit.b), fit.iterations, _bits(fit.residual)) \
            == (_bits(ref.a), _bits(ref.b), ref.iterations, _bits(ref.residual))
        assert theta == _outcome(lambda: tuple(map(_bits,
                                                   _reference_theta(m, ref))))

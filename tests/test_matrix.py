"""Matrix core: construction, marginals, one-vs-rest decomposition."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confmeasures import (
    ConfusionMatrix,
    EmptyMatrix,
    InvalidInput,
    MeasureKind,
    evaluate,
    from_counts,
)
from confmeasures.matrix import SUM_TOLERANCE
from conftest import FIRST_CLASSIFIER_COUNTS, random_matrix


def counts_strategy(max_k: int = 4):
    def build(k):
        return st.lists(
            st.lists(st.integers(min_value=0, max_value=500), min_size=k,
                     max_size=k),
            min_size=k, max_size=k,
        ).filter(lambda rows: sum(map(sum, rows)) > 0)
    return st.integers(min_value=2, max_value=max_k).flatmap(build)


def cells_strategy(max_k: int = 4):
    def build(k):
        return st.lists(
            st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=k,
                     max_size=k),
            min_size=k, max_size=k,
        ).filter(lambda rows: sum(map(sum, rows)) > 1e-6)
    return st.integers(min_value=2, max_value=max_k).flatmap(build)


def normalized(rows) -> ConfusionMatrix:
    arr = np.array(rows, dtype=float)
    return ConfusionMatrix(arr / arr.sum())


class TestConstruction:
    def test_valid(self, first_classifier):
        assert first_classifier.k == 3
        assert first_classifier.cells.sum() == pytest.approx(1.0)

    def test_cells_read_only(self, first_classifier):
        with pytest.raises(ValueError):
            first_classifier.cells[0, 0] = 0.5

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInput):
            ConfusionMatrix(np.array([[0.5, 0.5]]))

    def test_rejects_one_class(self):
        with pytest.raises(InvalidInput):
            ConfusionMatrix(np.array([[1.0]]))

    def test_rejects_negative_cell(self):
        with pytest.raises(InvalidInput) as err:
            ConfusionMatrix(np.array([[0.6, -0.1], [0.3, 0.2]]))
        assert "negative" in str(err.value)

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidInput) as err:
            ConfusionMatrix(np.array([[0.5, 0.2], [0.1, 0.1]]))
        assert "sum" in str(err.value)

    def test_sum_tolerance_accepts_tiny_drift(self):
        cells = np.array([[0.25, 0.25], [0.25, 0.25 + 5e-10]])
        ConfusionMatrix(cells)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            ConfusionMatrix(np.array([[0.5, np.nan], [0.25, 0.25]]))


def reference_cells(cells) -> np.ndarray:
    """The constructor's checks without a fast path for valid grids: shape,
    class count, finite cells, signs and sum, in that order, each with its
    error; the read-only copy of the cells when all pass."""
    name = "cells"
    arr = np.asarray(cells, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidInput(
            f"{name} must be a square 2-D grid, got shape {arr.shape}",
            parameter=name, value=arr.shape,
        )
    if arr.shape[0] < 2:
        raise InvalidInput(
            f"{name} needs at least 2 classes, got {arr.shape[0]}",
            parameter=name, value=arr.shape[0],
        )
    if not np.isfinite(arr).all():
        raise InvalidInput(f"{name} contains non-finite cells", parameter=name,
                           value=arr[~np.isfinite(arr)][0])
    if (arr < 0).any():
        i, j = np.argwhere(arr < 0)[0]
        raise InvalidInput(
            f"cell ({i + 1}, {j + 1}) is negative",
            parameter=f"cells[{i + 1},{j + 1}]", value=arr[i, j],
        )
    total = float(arr.sum())
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise InvalidInput(
            f"cells must sum to 1 within {SUM_TOLERANCE}, got {total!r}",
            parameter="cells", value=total,
        )
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def check_outcome(build, grid):
    """What ``build(grid)`` gives: the error's type, message, parameter and
    value, or the kept cells, their dtype and whether they are read-only
    and share memory with ``grid``."""
    try:
        with np.errstate(over="ignore"):  # a sum of huge cells overflows
            cells = build(grid)
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "parameter", None),
                repr(getattr(exc, "value", None)))
    return (cells.dtype, cells.shape, cells.tobytes(), cells.flags.writeable,
            isinstance(grid, np.ndarray) and np.shares_memory(cells, grid))


_OFF = SUM_TOLERANCE * (1 + 1e-6)  # just past the sum tolerance
_IN = SUM_TOLERANCE * (1 - 1e-6)  # just within it


class TestChecksMatchReference:
    """A valid grid takes one min and one sum; every grid must still give
    the outcome of the full checks, error for error."""

    @pytest.mark.parametrize("grid", [
        [[0.5, np.nan], [0.25, 0.25]],
        [[0.5, np.inf], [0.25, 0.25]],
        [[0.5, -np.inf], [0.25, 0.25]],
        [[np.inf, -np.inf], [np.nan, 0.0]],
        [[0.5, -0.0], [0.25, 0.25]],
        [[-0.0, -0.0], [-0.0, 1.0]],
        [[0.6, -0.1], [0.3, 0.2]],
        [[0.25, 0.25], [0.25, 0.25 + _OFF]],
        [[0.25, 0.25], [0.25, 0.25 - _OFF]],
        [[0.25, 0.25], [0.25, 0.25 + _IN]],
        [[0.25, 0.25], [0.25, 0.25 - _IN]],
        [[1e308, 1e308], [0.0, 0.0]],
        [[0.5, 0.5]],
        [[0.5, 0.25, 0.25], [0.0, 0.0, 0.0]],
        [[1.0]],
        np.zeros((0, 0)),
        np.zeros((0, 3)),
        np.full((2, 2, 2), 0.125),
        [0.5, 0.5],
        0.5,
        np.array([[1, 0], [0, 0]]),
        np.array([[1, 0], [0, 1]]),
        np.array([[1, -1], [1, 0]]),
        [[0.3, 0.2], [0.1, 0.4]],
        np.array([[0.3, 0.2], [0.1, 0.4]], dtype=np.float32),
        [[0.3, 0.2], [0.1]],
    ], ids=repr)
    def test_edge_grids(self, grid):
        assert (check_outcome(lambda g: ConfusionMatrix(g).cells, grid)
                == check_outcome(reference_cells, grid))

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_generated_grids(self, data):
        shape = data.draw(st.one_of(
            st.integers(min_value=0, max_value=5).map(lambda k: (k, k)),
            st.tuples(st.integers(min_value=0, max_value=4),
                      st.integers(min_value=0, max_value=4)),
            st.sampled_from([(2, 2, 2), (4,), (1, 2, 2)])))
        size = int(np.prod(shape))
        form = data.draw(st.sampled_from(["array", "list", "int"]))
        if form == "int":
            values = st.integers(min_value=-1, max_value=1)
            grid = np.array(data.draw(st.lists(values, min_size=size,
                                               max_size=size)), dtype=int)
            grid = grid.reshape(shape)
        else:
            grid = np.array(data.draw(st.lists(
                st.floats(min_value=0.0, max_value=1.0), min_size=size,
                max_size=size)), dtype=float).reshape(shape)
            if grid.sum() > 0:
                grid /= grid.sum()
            cells = st.integers(min_value=0, max_value=max(size - 1, 0))
            if size:
                drift = data.draw(st.sampled_from([0.0, _OFF, -_OFF, _IN, -_IN]))
                grid.flat[data.draw(cells)] += drift
                for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
                    grid.flat[data.draw(cells)] = data.draw(st.sampled_from(
                        [0.0, -0.0, np.nan, np.inf, -np.inf, -1e-300, 1e308]))
            if form == "list":
                grid = grid.tolist()
        assert (check_outcome(lambda g: ConfusionMatrix(g).cells, grid)
                == check_outcome(reference_cells, grid))


class TestFromCounts:
    def test_case_study_counts(self, first_classifier):
        m = from_counts(np.array(FIRST_CLASSIFIER_COUNTS))
        assert np.allclose(m.cells, first_classifier.cells, atol=1e-12)

    def test_empty_grid(self):
        with pytest.raises(EmptyMatrix):
            from_counts(np.zeros((3, 3)))

    def test_negative_count(self):
        with pytest.raises(InvalidInput):
            from_counts(np.array([[5, -1], [2, 3]]))

    def test_fractional_count(self):
        with pytest.raises(InvalidInput):
            from_counts(np.array([[5.5, 1], [2, 3]]))

    @given(counts_strategy())
    @settings(max_examples=100)
    def test_round_trip(self, counts):
        arr = np.array(counts, dtype=float)
        m = from_counts(arr)
        total = arr.sum()
        assert np.array_equal(np.rint(m.cells * total), arr)


class TestMarginals:
    def test_case_study(self, first_classifier):
        rows, cols = first_classifier.row_sums(), first_classifier.col_sums()
        assert rows == pytest.approx([0.44, 0.22, 0.34])
        assert cols == pytest.approx([0.33, 0.34, 0.33])

    @given(cells_strategy())
    @settings(max_examples=100)
    def test_both_sum_to_one(self, rows):
        m = normalized(rows)
        r, c = m.row_sums(), m.col_sums()
        assert r.sum() == pytest.approx(1.0, abs=1e-12)
        assert c.sum() == pytest.approx(1.0, abs=1e-12)


class TestClassCounts:
    """The one-vs-rest counts, read back through the ratio measures:
    TPR = tp / col, PPV = tp / row, TNR = tn / (1 - col), NPV = tn / (1 - row)."""

    def test_case_study_class_1(self, first_classifier):
        # tp 0.30, fp 0.14, fn 0.03, tn 0.53
        def value(kind):
            return evaluate(first_classifier, kind, 1).value
        assert value(MeasureKind.TPR) == pytest.approx(0.30 / 0.33)
        assert value(MeasureKind.PPV) == pytest.approx(0.30 / 0.44)
        assert value(MeasureKind.TNR) == pytest.approx(0.53 / 0.67)
        assert value(MeasureKind.NPV) == pytest.approx(0.53 / 0.56)

    def test_index_out_of_range(self, first_classifier):
        for bad in (0, 4, -1):
            with pytest.raises(InvalidInput):
                evaluate(first_classifier, MeasureKind.TPR, bad)

    def test_index_not_integer(self, first_classifier):
        with pytest.raises(InvalidInput):
            evaluate(first_classifier, MeasureKind.TPR, 1.5)

    @given(cells_strategy())
    @settings(max_examples=100)
    def test_decomposition_identities(self, rows):
        m = normalized(rows)
        r, c = m.row_sums(), m.col_sums()
        for i in range(1, m.k + 1):
            tpr, ppv, tnr, npv = (evaluate(m, kind, i).value for kind in (
                MeasureKind.TPR, MeasureKind.PPV, MeasureKind.TNR,
                MeasureKind.NPV))
            row, col, tp = r[i - 1], c[i - 1], m.cells[i - 1, i - 1]
            if tpr is not None and ppv is not None:  # tp from both margins
                assert tpr * col == pytest.approx(tp, abs=1e-12)
                assert ppv * row == pytest.approx(tp, abs=1e-12)
            if tnr is not None and npv is not None:  # tn from both margins
                tn = tnr * (1 - col)
                assert tn == pytest.approx(npv * (1 - row), abs=1e-12)
                # tp + fp + fn + tn = 1, with fp = row - tp, fn = col - tp
                assert row + col - tp + tn == pytest.approx(1.0, abs=1e-12)
            for v in (tpr, ppv, tnr, npv):
                assert v is None or 0.0 <= v <= 1.0


def test_random_matrix_helper_is_valid():
    rng = np.random.default_rng(0)
    for k in (2, 3, 5):
        m = random_matrix(rng, k=k)
        assert m.k == k
        assert m.cells.sum() == pytest.approx(1.0)

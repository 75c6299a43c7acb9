"""Metamorphic identities: a measure on a matrix against a measure on its
transpose, on a relabelling of its classes, or on its counts scaled.

Transposing a matrix swaps the estimated and the true classes, so fp and fn
trade places and tp and tn stay. Relabelling permutes the classes of both
axes alike. Either transform sums the cells in another order, so most
identities hold only to within rounding. Each bound below sits a little above
the largest difference measured on 20,000 stacks of eight members drawn by
``member`` at k 2 to 13, GT on the 2,000 or so of them with k <= 6 (numpy
2.4, x86-64).

What these identities cannot see is a swap of fp and fn in the one-vs-rest
counts: TPR and PPV trade places, and TPR(M) = PPV(Mᵀ) still holds. The
printed case-study values of ``test_acceptance.py`` catch that.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confmeasures import (
    ConfmeasuresError,
    ConfusionMatrix,
    MeasureKind,
    evaluate_stack,
    from_counts,
    gt,
)

K = MeasureKind

# largest |difference| allowed where both sides are defined, each a little
# above the largest measured (in brackets)
RECALL_PRECISION_BOUND = 3e-16  # TPR_i(M) vs PPV_i(Mᵀ) [2.2e-16]
# TNR_i(M) vs NPV_i(Mᵀ), tn being 1 less the other counts [1.6e-15]
SPECIFICITY_NPV_BOUND = 2e-15
TRANSPOSE_BOUND = 5e-16  # F, JCC, ICSI, KUL, CKC and CSI of Mᵀ [4.4e-16]
# relabelled [3.3e-16, 4.4e-16, 8.9e-16, 4.4e-16, 1.4e-12]: SPC's rounding
# grows as its Pe nears 1
RELABEL_BOUND = {K.OSR: 4e-16, K.CSI: 5e-16, K.COHEN_KAPPA: 1e-15,
                 K.MAXWELL_RE: 5e-16, K.SCOTT_PI: 2e-12}
GT_RELABEL_BOUND = 5e-13  # [1.5e-13]

SHAPES = ["floats", "counts", "empty true class", "never predicted",
          "perfect"]


def member(rng: np.random.Generator, k: int, shape: str) -> np.ndarray:
    """Cells of one matrix: Dirichlet floats, or a table of counts 0 to 30
    with an empty true class (column), a class never predicted (row) or no
    error at all."""
    if shape == "floats":
        return rng.dirichlet(np.ones(k * k)).reshape(k, k)
    counts = rng.integers(0, 31, size=(k, k))
    if shape == "empty true class":
        counts[:, rng.integers(k)] = 0
    elif shape == "never predicted":
        counts[rng.integers(k), :] = 0
    elif shape == "perfect":
        counts = np.diag(np.diag(counts))
    if not counts.any():
        counts[-1, 0] = 1
    return from_counts(counts).cells


@st.composite
def stacks(draw, max_k: int = 13) -> np.ndarray:
    """An ``(n, k, k)`` stack of 1 to 8 members at k 2 to ``max_k``."""
    k = draw(st.integers(2, max_k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = draw(st.lists(st.sampled_from(SHAPES), min_size=1, max_size=8))
    return np.stack([member(rng, k, shape) for shape in shapes])


def transposed(cells: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(cells.transpose(0, 2, 1))


def relabelled(cells: np.ndarray, order: list[int]) -> np.ndarray:
    """Class ``i`` of the result is class ``order[i]`` of ``cells``."""
    return np.ascontiguousarray(cells[:, order][:, :, order])


def assert_same(got, want, bound: float, label) -> None:
    """Equal ``defined`` masks, and values within ``bound`` where defined."""
    (values, defined), (ref, ref_defined) = got, want
    assert defined.tolist() == ref_defined.tolist(), label
    diff = np.abs(values - ref)[defined]
    assert diff.max(initial=0.0) <= bound, (label, diff.max())


class TestTransposition:
    @settings(max_examples=60, deadline=None)
    @given(stacks())
    def test_recall_is_precision_of_the_transpose(self, cells):
        t = transposed(cells)
        for i in range(1, cells.shape[-1] + 1):
            assert_same(evaluate_stack(cells, K.TPR, i),
                        evaluate_stack(t, K.PPV, i),
                        RECALL_PRECISION_BOUND, i)
            assert_same(evaluate_stack(cells, K.TNR, i),
                        evaluate_stack(t, K.NPV, i),
                        SPECIFICITY_NPV_BOUND, i)

    @settings(max_examples=60, deadline=None)
    @given(stacks())
    def test_symmetric_kinds_unchanged(self, cells):
        t = transposed(cells)
        for kind in (K.F_MEASURE, K.JCC, K.ICSI, K.KULCZYNSKI):
            for i in range(1, cells.shape[-1] + 1):
                assert_same(evaluate_stack(t, kind, i),
                            evaluate_stack(cells, kind, i),
                            TRANSPOSE_BOUND, (kind, i))
        for kind in (K.COHEN_KAPPA, K.CSI):
            assert_same(evaluate_stack(t, kind), evaluate_stack(cells, kind),
                        TRANSPOSE_BOUND, kind)
        for kind in (K.OSR, K.MAXWELL_RE):  # the trace alone: exact
            assert_same(evaluate_stack(t, kind), evaluate_stack(cells, kind),
                        0.0, kind)

    def test_scott_pi_squares_the_true_margins(self):
        # README, "The measure catalog": SPC's chance term is the sum of the
        # squared column (true-class) sums, so transposition changes it
        m = np.array([[[0.4, 0.1], [0.2, 0.3]]])
        # columns (0.6, 0.4): Pe = 0.52; rows (0.5, 0.5): Pe = 0.5
        assert evaluate_stack(m, K.SCOTT_PI)[0][0] == pytest.approx(0.375)
        assert evaluate_stack(transposed(m), K.SCOTT_PI)[0][0] == \
            pytest.approx(0.4)
        for cells in (m, transposed(m)):
            assert evaluate_stack(cells, K.COHEN_KAPPA)[0][0] == \
                pytest.approx(0.4)
        # one true class: Pe = 1 and SPC is undefined; its transpose has two
        one_class = np.array([[[0.5, 0.0], [0.5, 0.0]]])
        assert evaluate_stack(one_class, K.SCOTT_PI)[1].tolist() == [False]
        values, defined = evaluate_stack(transposed(one_class), K.SCOTT_PI)
        assert defined.tolist() == [True] and values[0] == 0.0


class TestRelabelling:
    @settings(max_examples=60, deadline=None)
    @given(stacks(), st.data())
    def test_multiclass_kinds_unchanged(self, cells, data):
        order = data.draw(st.permutations(range(cells.shape[-1])))
        moved = relabelled(cells, order)
        for kind, bound in RELABEL_BOUND.items():
            assert_same(evaluate_stack(moved, kind),
                        evaluate_stack(cells, kind), bound, kind)

    @settings(max_examples=25, deadline=None)
    @given(stacks(max_k=6), st.data())
    def test_gt_theta_is_permuted(self, cells, data):
        order = data.draw(st.permutations(range(cells.shape[-1])))
        for cells_m, cells_r in zip(cells, relabelled(cells, order)):
            try:
                fit = gt.gt_index(ConfusionMatrix(cells_m))
            except ConfmeasuresError as exc:
                with pytest.raises(type(exc)):
                    gt.gt_index(ConfusionMatrix(cells_r))
                continue
            moved = gt.gt_index(ConfusionMatrix(cells_r))
            assert moved.fit.iterations == fit.fit.iterations
            for i, theta in enumerate(moved.theta):
                want = fit.theta[order[i]]
                assert (theta is None) == (want is None), i
                if theta is not None:
                    assert abs(theta - want) <= GT_RELABEL_BOUND, i


class TestScaledCounts:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 13).flatmap(lambda k: st.lists(
        st.integers(0, 10**6), min_size=k * k, max_size=k * k).map(
            lambda flat: np.array(flat).reshape(k, k))))
    def test_seven_times_the_counts_is_bit_identical(self, counts):
        if not counts.any():
            counts[0, 0] = 1
        once, scaled = from_counts(counts), from_counts(7 * counts)
        assert scaled.cells.tobytes() == once.cells.tobytes()

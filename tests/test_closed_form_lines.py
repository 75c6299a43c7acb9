"""Discrimination lines against their closed form.

On the FIRST_CLASS_ONLY series only column 1 moves with the retention c_y,
and every cell is affine in it. So are the one-vs-rest counts of every class,
the observed agreement, and the chance terms of CKC (row sums times the fixed
column sums), SPC (the fixed column sums) and MRE (1/k). TPR, TNR, PPV, NPV,
FPR, F and JCC of any class, and OSR, CKC, SPC and MRE, are then ratios
N(c_y) / D(c_y) of affine functions, and a line row with target t solves one
linear equation:

    c_y = (t d0 - n0) / (dn - t dd),  N = n0 + dn c_y,  D = d0 + dd c_y.

The cells, counts and measures below are written out from their definitions;
they share no code with the package or with the line solver's references.
"""

import numpy as np
import pytest

from confmeasures.discrimination import Preference, discrimination_line
from confmeasures.measures import MeasureKind as K

GRID = [i / 100 for i in range(101)]

# one-vs-rest (tp, fp, fn, tn) -> (numerator, denominator)
CLASS_RATIOS = {
    K.TPR: lambda tp, fp, fn, tn: (tp, tp + fn),
    K.TNR: lambda tp, fp, fn, tn: (tn, tn + fp),
    K.PPV: lambda tp, fp, fn, tn: (tp, tp + fp),
    K.NPV: lambda tp, fp, fn, tn: (tn, tn + fn),
    K.FPR: lambda tp, fp, fn, tn: (fp, tn + fp),
    K.F_MEASURE: lambda tp, fp, fn, tn: (2 * tp, 2 * tp + fp + fn),
    K.JCC: lambda tp, fp, fn, tn: (tp, tp + fp + fn),
}
AGREEMENT = (K.OSR, K.COHEN_KAPPA, K.SCOTT_PI, K.MAXWELL_RE)


def proportions(k, p):
    """Balanced at p = 0, the halving sequence 2^(k-i) / (2^k - 1) at p = 1."""
    return [(1 - p) / k + p * 2.0 ** (k - i) / (2.0 ** k - 1)
            for i in range(1, k + 1)]


def controlled(pi, rates):
    """Column j holds rates[j] of class j on the diagonal and the rest of it
    spread evenly over the other rows (rows estimated, columns true)."""
    k = len(pi)
    cells = np.empty((k, k))
    for j in range(k):
        cells[:, j] = (1 - rates[j]) * pi[j] / (k - 1)
        cells[j, j] = rates[j] * pi[j]
    return cells


def first_series(pi, c):
    return controlled(pi, [c] * len(pi))


def second_series(pi, c):
    return controlled(pi, [c] + [1.0] * (len(pi) - 1))


def ratio(kind, class_index, cells):
    """(N, D) of ``kind`` on ``cells``; the measure is N / D."""
    if kind in CLASS_RATIOS:
        i = class_index - 1
        tp = cells[i, i]
        fn = cells[:, i].sum() - tp
        fp = cells[i, :].sum() - tp
        tn = np.delete(np.delete(cells, i, axis=0), i, axis=1).sum()
        return CLASS_RATIOS[kind](tp, fp, fn, tn)
    rows, cols = cells.sum(axis=1), cells.sum(axis=0)
    chance = {K.OSR: 0.0, K.COHEN_KAPPA: rows @ cols, K.SCOTT_PI: cols @ cols,
              K.MAXWELL_RE: 1 / len(cells)}[kind]
    return np.trace(cells) - chance, 1 - chance


def lines(k):
    for kind in CLASS_RATIOS:
        for class_index in range(1, k + 1):
            yield kind, class_index
    for kind in AGREEMENT:
        yield kind, None


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_every_crossing_solves_the_linear_equation(k, p):
    pi = proportions(k, p)
    crossings = 0
    for kind, class_index in lines(k):
        line = discrimination_line(kind, k, p, class_index=class_index,
                                   grid_step=0.01)
        n0, d0 = ratio(kind, class_index, second_series(pi, 0.0))
        n1, d1 = ratio(kind, class_index, second_series(pi, 1.0))
        for row, c_x in zip(line.rows, GRID, strict=True):
            assert row.c_x == pytest.approx(c_x, abs=1e-15)
            n_x, d_x = ratio(kind, class_index, first_series(pi, c_x))
            where = (kind, class_index, c_x)
            # D is affine and not negative: zero somewhere only at an end
            if d_x == 0 or min(d0, d1) == 0:
                assert row.preference is None, where
                continue
            assert row.preference is not None, where
            t = n_x / d_x
            num, den = t * d0 - n0, (n1 - n0) - t * (d1 - d0)
            if num == den == 0:
                # N - t D vanishes for every c_y: a tie, held at c_x itself
                assert row.crossing and row.c_y == c_x, where
                assert row.preference is Preference.TIE, where
            elif row.crossing:
                assert abs(row.c_y - num / den) <= 1e-12, where
                crossings += 1
            elif den != 0:
                # a root well inside the range would be a crossing
                assert not 1e-9 < num / den < 1 - 1e-9, where
    assert crossings > 100

"""Discrimination lines against their closed form.

On the FIRST_CLASS_ONLY series only column 1 moves with the retention c_y,
and every cell is affine in it. So are the one-vs-rest counts of every class,
the observed agreement, and the chance terms of CKC (row sums times the fixed
column sums), SPC (the fixed column sums) and MRE (1/k). TPR, TNR, PPV, NPV,
FPR, F and JCC of any class, and OSR, CKC, SPC and MRE, are then ratios
N(c_y) / D(c_y) of affine functions, and a line row with target t solves one
linear equation:

    c_y = (t d0 - n0) / (dn - t dd),  N = n0 + dn c_y,  D = d0 + dd c_y.

ICSI = PPV + TPR - 1 and KUL = (PPV + TPR) / 2 join them: on that series
PPV of class 1 is 1 for c_y > 0 (row 1 holds only the diagonal) and TPR of
every other class is 1 (its column holds only the diagonal), so either
measure is the other ratio plus a constant. PPV of class 1 is undefined at
c_y = 0, so its ICSI and KUL lines start at c_lo = 0.5.

CSI, the mean of ICSI over the classes, is then c_y / k for class 1 plus,
for each class j >= 2, PPV_j / k with PPV_j = pi_j / (pi_j + (1 - c_y) a)
and a = pi_1 / (k - 1). It rises strictly with c_y, and times the k - 1
denominators, CSI = t is a polynomial equation of degree k: a crossing is
its one root in [c_lo, 1], c_lo = 0.5 as for ICSI of class 1.

The cells, counts and measures below are written out from their definitions;
they share no code with the package or with the line solver's references.
"""

import numpy as np
import pytest
from numpy.polynomial import Polynomial

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
# (PPV, TPR) -> measure
PAIRED = {
    K.ICSI: lambda ppv, tpr: ppv + tpr - 1,
    K.KULCZYNSKI: lambda ppv, tpr: (ppv + tpr) / 2,
}


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


def measure(kind, class_index, cells):
    """``kind`` on ``cells``, or None where a denominator is 0."""
    kinds = (K.PPV, K.TPR) if kind in PAIRED else (kind,)
    parts = [ratio(part, class_index, cells) for part in kinds]
    if any(d == 0 for _, d in parts):
        return None
    values = [n / d for n, d in parts]
    return PAIRED[kind](*values) if kind in PAIRED else values[0]


def second_ratio(kind, class_index, cells):
    """(N, D) of ``kind`` on a second-series member, both affine in c_y; for
    ICSI and KUL, the one of PPV and TPR that is not constantly 1 there."""
    if kind not in PAIRED:
        return ratio(kind, class_index, cells)
    fixed, moving = (K.PPV, K.TPR) if class_index == 1 else (K.TPR, K.PPV)
    n, d = ratio(fixed, class_index, cells)
    assert n == d, (kind, class_index)
    n, d = ratio(moving, class_index, cells)
    return (n, d) if kind is K.ICSI else (n + d, 2 * d)


def lines(k):
    """(kind, class_index, c_lo) of every line with a closed form."""
    for kind in CLASS_RATIOS:
        for class_index in range(1, k + 1):
            yield kind, class_index, 0.0
    for kind in PAIRED:
        for class_index in range(1, k + 1):
            yield kind, class_index, 0.5 if class_index == 1 else 0.0
    for kind in AGREEMENT:
        yield kind, None, 0.0


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_every_crossing_solves_the_linear_equation(k, p):
    pi = proportions(k, p)
    crossings = 0
    for kind, class_index, c_lo in lines(k):
        line = discrimination_line(kind, k, p, class_index=class_index,
                                   grid_step=0.01, c_lo=c_lo)
        # N and D at c_y = 0 and 1 fix them; D at c_lo and 1 bounds it
        n0, d0 = second_ratio(kind, class_index, second_series(pi, 0.0))
        n1, d1 = second_ratio(kind, class_index, second_series(pi, 1.0))
        _, d_lo = second_ratio(kind, class_index, second_series(pi, c_lo))
        grid = [c for c in GRID if c >= c_lo]
        for row, c_x in zip(line.rows, grid, strict=True):
            assert row.c_x == pytest.approx(c_x, abs=1e-15)
            t = measure(kind, class_index, first_series(pi, c_x))
            where = (kind, class_index, c_x)
            # D is affine and not negative: zero somewhere only at an end
            if t is None or min(d_lo, d1) == 0:
                assert row.preference is None, where
                continue
            assert row.preference is not None, where
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
                assert not c_lo + 1e-9 < num / den < 1 - 1e-9, where
    assert crossings > 100


def csi(cells):
    """CSI on ``cells``: the mean over the classes of ICSI."""
    values = [measure(K.ICSI, j, cells) for j in range(1, len(cells) + 1)]
    return sum(values) / len(values)


def csi_polynomial(pi, t):
    """P(c_y), zero exactly where CSI on the second series equals ``t``:
    (c_y - k t) prod_j L_j + sum_j pi_j prod_{i != j} L_i over the classes
    j >= 2, with L_j = pi_j + (1 - c_y) pi_1 / (k - 1) > 0."""
    a = pi[0] / (len(pi) - 1)
    factors = [Polynomial([q + a, -a]) for q in pi[1:]]
    poly = Polynomial([-len(pi) * t, 1.0])
    for factor in factors:
        poly *= factor
    for j, q in enumerate(pi[1:]):
        term = Polynomial([q])
        for i, factor in enumerate(factors):
            if i != j:
                term *= factor
        poly += term
    return poly


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_every_csi_crossing_is_a_polynomial_root(k, p):
    pi = proportions(k, p)
    a = pi[0] / (k - 1)
    grid = [c for c in GRID if c >= 0.5]
    for c_y in grid:  # the closed form against the definition
        closed = (c_y + sum(q / (q + (1 - c_y) * a) for q in pi[1:])) / k
        assert closed == pytest.approx(csi(second_series(pi, c_y)),
                                       abs=1e-15)
    line = discrimination_line(K.CSI, k, p, grid_step=0.01, c_lo=0.5)
    crossings = 0
    for row, c_x in zip(line.rows, grid, strict=True):
        where = (k, p, c_x)
        assert row.c_x == pytest.approx(c_x, abs=1e-15), where
        assert row.preference is not None, where
        roots = csi_polynomial(pi, csi(first_series(pi, c_x))).roots()
        if row.crossing:
            assert np.abs(roots - row.c_y).min() <= 1e-12, where
            crossings += 1
        else:
            # a real root well inside the range would be a crossing
            real = roots[np.abs(roots.imag) <= 1e-9].real
            assert not ((0.5 + 1e-9 < real) & (real < 1 - 1e-9)).any(), where
    assert crossings >= 10

"""Quasi-independence model for misclassification and the GT accuracy index.

Off-diagonal cells are modeled as a product p_ij = a_i * b_j (i != j): a share
b_j of each true class is handed to a random classifier that lands in
estimated class i with probability a_i, while the rest is classified
correctly. The factors are estimated by iterative proportional fitting on the
off-diagonal cells (the diagonal is unconstrained) and reported under the
convention sum(a) = 1. The per-class index is then the chance-corrected hit
rate

    theta_i = (TPR_i - a_i) / (1 - a_i).

The fit is only identified with at least 3 classes, and needs at least one
misclassified cell.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import (
    DegenerateChance,
    NoConvergence,
    PerfectClassification,
    TooFewClasses,
)
from .matrix import ConfusionMatrix

CONVERGENCE_TOL = 1e-10
MAX_ITERATIONS = 1000


@dataclasses.dataclass(frozen=True, eq=False)
class QuasiIndependenceFit:
    """Fitted product factors for the off-diagonal cells.

    ``residual`` is the largest absolute gap between an observed off-diagonal
    cell and its reconstruction a_i * b_j; a residual well above float noise
    means the matrix genuinely violates quasi-independence (the fit still
    stands as the best margin-matching product model).
    """

    a: np.ndarray
    b: np.ndarray
    iterations: int
    residual: float

    def reconstructed(self) -> np.ndarray:
        """Model off-diagonal cells (diagonal left at 0)."""
        rec = np.outer(self.a, self.b)
        np.fill_diagonal(rec, 0.0)
        return rec


@dataclasses.dataclass(frozen=True, eq=False)
class GtIndexResult:
    """Per-class GT index plus the underlying fit.

    ``theta[i]`` is None when TPR_i is undefined (empty true class).
    """

    theta: tuple[float | None, ...]
    fit: QuasiIndependenceFit


def fit_quasi_independence(m: ConfusionMatrix) -> QuasiIndependenceFit:
    """Fit p_ij = a_i * b_j (i != j) by alternating margin matching.

    Starts from a_i = 1/k and b_j = off-diagonal column sum; each iteration
    updates all a_i from the off-diagonal row sums, then all b_j from the
    off-diagonal column sums, until no parameter moves by ``CONVERGENCE_TOL``
    or more. A zero off-diagonal row or column pins its parameter at 0; a
    nonzero margin whose denominator is 0, or no convergence within
    ``MAX_ITERATIONS`` (read at each call), raises ``NoConvergence``.
    """
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

    # a and b are halves of one buffer: one reduction finds the largest change
    ab = np.concatenate([np.full(k, 1.0 / k), col])
    for iterations in range(1, MAX_ITERATIONS + 1):
        prev, ab = ab, np.empty(2 * k)
        a, b = ab[:k], ab[k:]
        _margin_update(row, prev[k:], out=a)
        _margin_update(col, a, out=b)
        if np.abs(ab - prev).max() < CONVERGENCE_TOL:
            break
    else:  # every pass ran: ``iterations`` is the budget
        residual = _residual(off, a, b)
        raise NoConvergence(
            f"fit did not converge in {iterations} iterations "
            f"(residual {residual:.3e})",
            residual=residual, parameter="max_iterations", value=iterations,
        )

    total = a.sum()
    a = a / total
    b = b * total
    return QuasiIndependenceFit(a=a, b=b, iterations=iterations,
                                residual=_residual(off, a, b))


def _margin_update(target: np.ndarray, other: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    # out_i = target_i / sum_{j != i} other_j; a zero target pins the factor at 0
    denom = other.sum() - other
    if denom.min() > 0:
        return np.divide(target, denom, out=out)
    positive = denom > 0
    stuck = ~positive & (target > 0)
    if stuck.any():
        raise NoConvergence(
            "margin update has a zero denominator for a nonzero margin",
            parameter="cells", value=float(target[stuck][0]),
        )
    out[:] = 0.0
    return np.divide(target, denom, out=out, where=positive)


def _residual(off: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    rec = np.outer(a, b)
    np.fill_diagonal(rec, 0.0)
    return float(np.abs(off - rec).max())


def gt_index(m: ConfusionMatrix) -> GtIndexResult:
    """Per-class chance-corrected hit rates from the quasi-independence fit,
    within the ``MAX_ITERATIONS`` budget of ``fit_quasi_independence``."""
    fit = fit_quasi_independence(m)
    col = m.col_sums()
    theta: list[float | None] = []
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
    return GtIndexResult(theta=tuple(theta), fit=fit)

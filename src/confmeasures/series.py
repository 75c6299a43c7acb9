"""Parametric families of confusion matrices with controlled error rates.

Class proportions interpolate linearly between a balanced split and a halving
sequence, steered by an imbalance parameter p in [0, 1]:

    pi_i = (1 - p) / k + p * 2^(k-i) / (2^k - 1)

A controlled matrix places a retention rate c_j of each true class on the
diagonal and spreads the remainder uniformly over the other estimated classes,
so column j is (c_j * pi_j on the diagonal, (1 - c_j) / (k - 1) * pi_j off it).

Two one-parameter series are derived from a grid of retention values c:
ALL_CLASSES erodes every class at rate c; FIRST_CLASS_ONLY erodes only class 1
and keeps the rest perfect. ``series_matrix`` builds one member of a series
at a retention c, and ``series_stack`` many members at once, as an
``(n, k, k)`` array of cells; both share one formula. The proportions and
the retentions are checked where they enter; cells built from valid ones are
valid, so ``series_stack`` does not check its cells again.

The number of classes is at most ``MAX_CLASSES`` (1023): 2^k overflows a
float at k = 1024.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from .errors import InvalidInput
from .matrix import ConfusionMatrix

MAX_CLASSES = 1023
# relative slack when a grid step must divide the retention range
_STEP_TOLERANCE = 1e-9
# grid points: step 5e-6 on [0, 1]; an OSR line at k = 3 peaks at ~160 MB
_MAX_GRID_POINTS = 200_001


@dataclasses.dataclass(frozen=True, eq=False)
class ProportionVector:
    """Positive true-class proportions summing to 1."""

    pi: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pi, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise InvalidInput("proportions must be a 1-D vector of length >= 2",
                               parameter="pi", value=arr.shape)
        if not (arr > 0).all():  # NaN included
            bad = int(np.flatnonzero(~(arr > 0))[0])
            raise InvalidInput(f"proportion {bad + 1} is not positive",
                               parameter=f"pi[{bad + 1}]", value=arr[bad])
        total = float(arr.sum())
        if abs(total - 1.0) > 1e-12:
            raise InvalidInput("proportions must sum to 1 within 1e-12",
                               parameter="pi", value=total)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "pi", arr)

    @property
    def k(self) -> int:
        return self.pi.size


class SeriesMode(enum.Enum):
    ALL_CLASSES = "all"
    FIRST_CLASS_ONLY = "first"


def _check_k(k) -> None:
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 2:
        raise InvalidInput("k must be an integer >= 2", parameter="k", value=k)
    if k > MAX_CLASSES:
        raise InvalidInput(f"k must be at most {MAX_CLASSES}", parameter="k",
                           value=k)


def _check_grid(c_lo: float, grid=()) -> None:
    """``c_lo`` lies in [0, 1), and ``grid`` has at most
    ``_MAX_GRID_POINTS`` values, none below ``c_lo``."""
    if not 0.0 <= c_lo < 1.0:
        raise InvalidInput("c_lo must be in [0, 1)", parameter="c_lo", value=c_lo)
    if len(grid) > _MAX_GRID_POINTS:
        raise InvalidInput(f"a grid has at most {_MAX_GRID_POINTS} points",
                           parameter="grid", value=len(grid))
    below = [c for c in grid if c < c_lo]
    if below:
        raise InvalidInput(f"grid value {below[0]!r} lies below c_lo",
                           parameter="c_lo", value=c_lo)


def uniform_grid(step: float = 0.01, c_lo: float = 0.0) -> tuple[float, ...]:
    """Evenly spaced retention grid over [c_lo, 1], endpoints included.

    ``step`` must divide ``1 - c_lo`` up to float noise (a relative 1e-9),
    and the grid has at most ``_MAX_GRID_POINTS`` points.
    """
    if not 0 < step <= 1:
        raise InvalidInput("step must be in (0, 1]", parameter="step", value=step)
    _check_grid(c_lo)
    span = 1.0 - c_lo
    # before round(), which fails on a subnormal step; n + 1 > max from here
    if span / step > _MAX_GRID_POINTS - 0.5:
        raise InvalidInput(f"a grid has at most {_MAX_GRID_POINTS} points",
                           parameter="step", value=step)
    n = round(span / step)
    if abs(n * step - span) > _STEP_TOLERANCE * span:
        raise InvalidInput(f"step must divide the range [{c_lo}, 1]",
                           parameter="step", value=step)
    return tuple(float(v) for v in np.linspace(c_lo, 1.0, n + 1))


def class_proportions(k: int, p: float) -> ProportionVector:
    """Interpolated proportions: balanced at p = 0, halving sequence at p = 1."""
    _check_k(k)
    if not 0.0 <= p <= 1.0:
        raise InvalidInput("p must be in [0, 1]", parameter="p", value=p)
    i = np.arange(1, k + 1)
    pi = (1.0 - p) / k + p * 2.0 ** (k - i) / (2.0 ** k - 1.0)
    return ProportionVector(pi)


def _check_rates(rates: np.ndarray) -> None:
    """Every retention rate of an ``(n, k)`` array is a number in [0, 1]."""
    # min and max cost less than a mask, and a NaN fails them
    if rates.size and not 0.0 <= rates.min() <= rates.max() <= 1.0:
        member, j = np.argwhere(~((rates >= 0) & (rates <= 1)))[0]
        raise InvalidInput(f"retention rate {j + 1} is outside [0, 1]",
                           parameter=f"c[{j + 1}]", value=rates[member, j])


def _controlled_cells(pi: ProportionVector, rates: np.ndarray) -> np.ndarray:
    """Cells of the controlled matrices of ``(n, k)`` retention rates."""
    n, k = rates.shape
    off = 1.0 - rates
    off /= k - 1
    off *= pi.pi
    cells = np.empty((n, k, k))
    cells[:] = off[:, None, :]
    cells.reshape(n, k * k)[:, ::k + 1] = rates * pi.pi
    return cells


def _series_rates(k: int, c: np.ndarray, mode: SeriesMode) -> np.ndarray:
    """``(n, k)`` retention rates of the series members at retentions ``c``."""
    if mode == SeriesMode.ALL_CLASSES:
        return np.repeat(c[:, None], k, axis=1)
    if mode == SeriesMode.FIRST_CLASS_ONLY:
        rates = np.ones((c.size, k))
        rates[:, 0] = c
        return rates
    raise InvalidInput("unknown series mode", parameter="mode", value=mode)


def series_matrix(pi: ProportionVector, c: float, mode: SeriesMode,
                  ) -> ConfusionMatrix:
    """A single series member at retention ``c``."""
    rates = _series_rates(pi.k, np.array([c], dtype=float), mode)
    _check_rates(rates)
    return ConfusionMatrix(_controlled_cells(pi, rates)[0])


def series_stack(pi: ProportionVector, c, mode: SeriesMode) -> np.ndarray:
    """Cells of the series members at the retentions ``c``, as ``(n, k, k)``.

    Member ``i`` equals ``series_matrix(pi, c[i], mode).cells`` bit for bit.
    The retentions are checked as in ``series_matrix``, the first bad one
    raising its error; the cells are not, since valid proportions and
    retentions give cells that are finite, non-negative and sum to 1.
    """
    rates = _series_rates(pi.k, np.asarray(c, dtype=float).reshape(-1), mode)
    _check_rates(rates)
    return _controlled_cells(pi, rates)

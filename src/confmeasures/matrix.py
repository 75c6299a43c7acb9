"""Confusion matrices as joint proportions.

A confusion matrix here is a k x k grid of proportions of the whole dataset:
rows are estimated classes, columns are true classes, and all cells sum to 1.
Column sums are therefore the true class proportions. All downstream measures
are computed from this representation; raw count grids enter through
``from_counts``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import EmptyMatrix, InvalidInput

SUM_TOLERANCE = 1e-9


def _as_square_float_array(cells, name: str) -> np.ndarray:
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
    return arr


@dataclasses.dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Immutable k x k joint-proportion matrix (rows estimated, columns true)."""

    cells: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.cells, dtype=float)
        # a valid grid passes one min and one sum (a NaN fails the min, an
        # inf the sum); any other grid meets the check that names its fault
        if not (arr.ndim == 2 and arr.shape[0] == arr.shape[1] >= 2
                and arr.min() >= 0 and abs(arr.sum() - 1.0) <= SUM_TOLERANCE):
            _as_square_float_array(arr, "cells")
            if (arr < 0).any():
                i, j = np.argwhere(arr < 0)[0]
                raise InvalidInput(
                    f"cell ({i + 1}, {j + 1}) is negative",
                    parameter=f"cells[{i + 1},{j + 1}]", value=arr[i, j],
                )
            total = float(arr.sum())
            raise InvalidInput(
                f"cells must sum to 1 within {SUM_TOLERANCE}, got {total!r}",
                parameter="cells", value=total,
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "cells", arr)

    @staticmethod
    def check_stack(cells: np.ndarray) -> None:
        """Run the checks of the constructor on every member of an
        ``(n, k, k)`` stack of cells; the first bad member raises the error
        its constructor raises."""
        n, k = cells.shape[0], cells.shape[-1]
        flat = cells.reshape(n, k * k)
        bad = (~np.isfinite(flat).all(axis=1) | (flat < 0).any(axis=1)
               | (np.abs(flat.sum(axis=1) - 1.0) > SUM_TOLERANCE))
        if bad.any():
            ConfusionMatrix(cells[int(bad.argmax())])

    @property
    def k(self) -> int:
        return self.cells.shape[0]

    def row_sums(self) -> np.ndarray:
        """Estimated-class marginals p_i+."""
        return self.cells.sum(axis=1)

    def col_sums(self) -> np.ndarray:
        """True-class proportions p_+j."""
        return self.cells.sum(axis=0)


def from_counts(counts) -> ConfusionMatrix:
    """Convert a raw count grid into a joint-proportion matrix.

    Counts must be non-negative whole numbers with a positive total.
    """
    arr = _as_square_float_array(counts, "counts")
    if (arr < 0).any():
        i, j = np.argwhere(arr < 0)[0]
        raise InvalidInput(f"count ({i + 1}, {j + 1}) is negative",
                           parameter=f"counts[{i + 1},{j + 1}]", value=arr[i, j])
    rounded = np.rint(arr)
    if np.abs(arr - rounded).max() > 1e-9:
        i, j = np.argwhere(np.abs(arr - rounded) > 1e-9)[0]
        raise InvalidInput(f"count ({i + 1}, {j + 1}) is not a whole number",
                           parameter=f"counts[{i + 1},{j + 1}]", value=arr[i, j])
    total = float(rounded.sum())
    if total == 0:
        raise EmptyMatrix("count grid has zero total instances",
                          parameter="counts", value=0)
    return ConfusionMatrix(rounded / total)


def _check_class_index(k: int, i: int) -> int:
    if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
        raise InvalidInput("class index must be an integer",
                           parameter="class_index", value=i)
    if not 1 <= i <= k:
        raise InvalidInput(f"class index must be in 1..{k}",
                           parameter="class_index", value=i)
    return int(i) - 1


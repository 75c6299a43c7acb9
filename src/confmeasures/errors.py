"""Error types raised across the package.

Every error message names the offending parameter and its value where one
exists, so CLI callers get a machine-usable report on stderr.
"""

from __future__ import annotations

import math

import numpy as np


class ConfmeasuresError(Exception):
    """Base class for all package errors."""

    def __init__(self, message: str, parameter: str | None = None, value=None):
        super().__init__(message)
        self.message = message
        self.parameter = parameter
        self.value = value

    def to_dict(self) -> dict:
        out = {"error": type(self).__name__, "message": self.message}
        if self.parameter is not None:
            out["parameter"] = self.parameter
            out["value"] = _json_value(self.value)
        return out


def _json_value(v):
    """``v`` as a JSON-native value that strict JSON can carry.

    Numpy scalars and arrays become Python numbers and lists, tuples become
    lists, and non-finite floats the strings "nan", "inf" and "-inf".
    Anything else falls back to its ``repr``. Nested lists are converted
    from a work list, not by recursion, so a JSON cell nested as deep as
    ``json.loads`` reads is reported, not a ``RecursionError``.
    """
    root = [v]
    todo = [root]
    while todo:
        items = todo.pop()
        for i, x in enumerate(items):
            if isinstance(x, (np.generic, np.ndarray)):
                x = x.tolist()
            if isinstance(x, (list, tuple)):
                x = list(x)
                todo.append(x)
            elif isinstance(x, float) and not math.isfinite(x):
                x = str(x)
            elif not (x is None or isinstance(x, (bool, int, float, str))):
                x = repr(x)
            items[i] = x
    return root[0]


class InvalidInput(ConfmeasuresError):
    """Input violates a structural precondition (shape, sign, sum, range)."""


class EmptyMatrix(InvalidInput):
    """A count grid with zero total instances."""


class DegenerateChance(ConfmeasuresError):
    """Chance agreement is 1, so chance correction divides by zero."""


class TooFewClasses(ConfmeasuresError):
    """The operation needs at least 3 classes."""


class PerfectClassification(ConfmeasuresError):
    """No off-diagonal mass, so the error model has nothing to fit."""


class NoConvergence(ConfmeasuresError):
    """Iterative fit did not converge; carries the last residual."""

    def __init__(self, message: str, residual: float | None = None, **kw):
        super().__init__(message, **kw)
        self.residual = residual


class NotComparable(ConfmeasuresError):
    """A preference was requested where at least one side is undefined."""


class InsufficientData(ConfmeasuresError):
    """No comparable pairs to base a concordance verdict on."""

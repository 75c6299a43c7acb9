"""Catalog of accuracy measures over joint-proportion confusion matrices.

Class-specific measures are ratios of the one-vs-rest cells:

    TPR = tp / (tp + fn)        TNR = tn / (tn + fp)
    PPV = tp / (tp + fp)        NPV = tn / (tn + fn)
    FPR = 1 - TNR
    F   = 2 tp / (2 tp + fn + fp)   (harmonic mean of PPV and TPR)
    JCC = tp / (tp + fp + fn)
    ICSI = PPV + TPR - 1
    KUL  = (PPV + TPR) / 2

Multiclass measures are the observed agreement Po (OSR), the mean ICSI
(CSI), and the chance-corrected agreement family A = (Po - Pe) / (1 - Pe)
with Pe the chance term of the respective coefficient (CKC, SPC, MRE),
undefined where Pe >= 1. Po is the trace clipped to at most 1, since cells
sum to 1 only within ``SUM_TOLERANCE``: a perfect matrix scores exactly 1.

A 0/0 ratio is an explicit Undefined outcome, carried as ``value=None``; it is
never silently reported as 0 or NaN. ``evaluate_stack`` evaluates one kind on
an ``(n, k, k)`` stack of matrices and carries Undefined as a boolean mask.
Both paths read one definition of each formula (``_CLASS_FORMULAS``, ``_csi``,
``_agreement``), the scalar path with Python floats and the stack with arrays.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from . import gt
from .errors import ConfmeasuresError, DegenerateChance, InvalidInput
from .matrix import (
    BinaryCounts,
    ConfusionMatrix,
    _check_class_index,
    class_counts,
)


class MeasureKind(enum.Enum):
    OSR = "osr"
    TPR = "tpr"
    TNR = "tnr"
    PPV = "ppv"
    NPV = "npv"
    FPR = "fpr"
    F_MEASURE = "f"
    JCC = "jcc"
    ICSI = "icsi"
    KULCZYNSKI = "kul"
    CSI = "csi"
    COHEN_KAPPA = "ckc"
    SCOTT_PI = "spc"
    MAXWELL_RE = "mre"
    GT_INDEX = "gt"

    @property
    def class_specific(self) -> bool:
        return self in _CLASS_SPECIFIC

    @property
    def short_name(self) -> str:
        return self.value.upper()


_CLASS_SPECIFIC = {
    MeasureKind.TPR, MeasureKind.TNR, MeasureKind.PPV, MeasureKind.NPV,
    MeasureKind.FPR, MeasureKind.F_MEASURE, MeasureKind.JCC, MeasureKind.ICSI,
    MeasureKind.KULCZYNSKI, MeasureKind.GT_INDEX,
}

_ALIASES = {kind.value: kind for kind in MeasureKind} | {
    "f-measure": MeasureKind.F_MEASURE, "f_measure": MeasureKind.F_MEASURE,
    "f1": MeasureKind.F_MEASURE, "jaccard": MeasureKind.JCC,
    "kulczynski": MeasureKind.KULCZYNSKI, "ckp": MeasureKind.COHEN_KAPPA,
    "kappa": MeasureKind.COHEN_KAPPA, "pi": MeasureKind.SCOTT_PI,
    "gt_index": MeasureKind.GT_INDEX,
}


def parse_kind(name: str) -> MeasureKind:
    """Resolve a measure name or alias (case-insensitive) to a MeasureKind."""
    kind = _ALIASES.get(str(name).strip().lower())
    if kind is None:
        raise InvalidInput(f"unknown measure kind {name!r}; valid names: "
                           + ", ".join(sorted(_ALIASES)),
                           parameter="measure", value=name)
    return kind


def value_range(kind: MeasureKind, k: int) -> tuple[float, float]:
    """Declared [lo, hi] bounds of a measure for a k-class matrix.

    The margin-weighted agreement coefficients have no finite floor: with
    observed agreement 0 and a chance term near 1, (Po - Pe) / (1 - Pe)
    falls below any bound, so only their ceiling is declared.
    """
    if kind in (MeasureKind.ICSI, MeasureKind.CSI):
        return (-1.0, 1.0)
    if kind == MeasureKind.MAXWELL_RE:
        return (-1.0 / (k - 1), 1.0)
    if kind in (MeasureKind.COHEN_KAPPA, MeasureKind.SCOTT_PI,
                MeasureKind.GT_INDEX):
        return (-math.inf, 1.0)
    return (0.0, 1.0)


@dataclasses.dataclass(frozen=True)
class MeasureValue:
    """A measure outcome; ``value is None`` marks an undefined (0/0) result."""

    kind: MeasureKind
    value: float | None
    class_index: int | None = None

    @property
    def defined(self) -> bool:
        return self.value is not None


def _tpr(tp, fp, fn, tn):
    return tp, tp + fn


def _tnr(tp, fp, fn, tn):
    return tn, tn + fp


def _ppv(tp, fp, fn, tn):
    return tp, tp + fp


# Per-class ratio measures: kind -> (ratios, combination). A ratio maps the
# one-vs-rest counts (tp, fp, fn, tn) to (numerator, denominator); the
# combination maps the ratio values to the measure, which is undefined where
# a ratio is 0/0. The scalar path applies them to floats, evaluate_stack to
# arrays.
_CLASS_FORMULAS = {
    MeasureKind.TPR: ((_tpr,), None),
    MeasureKind.TNR: ((_tnr,), None),
    MeasureKind.PPV: ((_ppv,), None),
    MeasureKind.NPV: ((lambda tp, fp, fn, tn: (tn, tn + fn),), None),
    MeasureKind.FPR: ((_tnr,), lambda tnr: 1.0 - tnr),
    MeasureKind.F_MEASURE: ((lambda tp, fp, fn, tn: (2 * tp, 2 * tp + fn + fp),),
                            None),
    MeasureKind.JCC: ((lambda tp, fp, fn, tn: (tp, tp + fp + fn),), None),
    MeasureKind.ICSI: ((_ppv, _tpr), lambda ppv, tpr: ppv + tpr - 1.0),
    MeasureKind.KULCZYNSKI: ((_ppv, _tpr), lambda ppv, tpr: (ppv + tpr) / 2.0),
}


def _class_value(c: BinaryCounts, kind: MeasureKind) -> tuple[float, bool]:
    ratios, combine = _CLASS_FORMULAS[kind]
    parts = []
    for ratio in ratios:
        num, den = ratio(c.tp, c.fp, c.fn, c.tn)
        if den == 0:
            return 0.0, False
        parts.append(num / den)
    return (parts[0] if combine is None else combine(*parts)), True


def _csi(icsi, k: int) -> tuple:
    """CSI, the mean ICSI, and where it is defined: where every class is.
    ``icsi(ix, defined)`` gives the ICSI of class ``ix`` (0-based) and where
    it is defined, given ``defined`` of the classes before it: floats and
    bools on one matrix, where an undefined class ends the sum, or arrays."""
    total, defined = 0, True
    for ix in range(k):
        value, ok = icsi(ix, defined)
        defined = defined & ok
        if defined is False:
            break
        total = total + value
    return total / k, defined


def _agreement(kind: MeasureKind, po, cells: np.ndarray) -> tuple:
    """Numerator and denominator of (Po - Pe) / (1 - Pe) on one matrix, ``po``
    a float, or on an ``(n, k, k)`` stack, ``po`` an array; the coefficient
    is undefined where the denominator is not positive (Pe >= 1)."""
    if kind == MeasureKind.MAXWELL_RE:
        pe = 1.0 / cells.shape[-1]
    else:
        cols = cells.sum(axis=-2)
        rows = cells.sum(axis=-1) if kind == MeasureKind.COHEN_KAPPA else cols
        pe = np.vecdot(rows, cols)
    return po - pe, 1.0 - pe


def class_measure(m: ConfusionMatrix, i: int, kind: MeasureKind) -> MeasureValue:
    """Evaluate a class-specific ratio measure for class ``i`` (1-based)."""
    if not kind.class_specific or kind == MeasureKind.GT_INDEX:
        raise InvalidInput(
            f"{kind.short_name} is not evaluated per class here; use "
            "overall_measure or the quasi-independence fit",
            parameter="kind", value=kind.short_name,
        )
    value, defined = _class_value(class_counts(m, i), kind)
    return MeasureValue(kind, value if defined else None, class_index=i)


def overall_measure(m: ConfusionMatrix, kind: MeasureKind) -> MeasureValue:
    """Evaluate a multiclass measure (OSR, CSI, or an agreement coefficient)."""
    if kind == MeasureKind.CSI:
        value, defined = _csi(lambda ix, _: _class_value(
            class_counts(m, ix + 1), MeasureKind.ICSI), m.k)
        return MeasureValue(kind, value if defined else None)
    po = min(float(np.trace(m.cells)), 1.0)
    if kind == MeasureKind.OSR:
        return MeasureValue(kind, po)
    if kind.class_specific:
        raise InvalidInput(f"{kind.short_name} is not a multiclass measure",
                           parameter="kind", value=kind.short_name)
    num, den = _agreement(kind, po, m.cells)
    if den <= 0.0:
        raise DegenerateChance("chance agreement is 1, correction undefined",
                               parameter="pe", value=float(1.0 - den))
    return MeasureValue(kind, float(num / den))


def _class_specific(kind: MeasureKind, class_index: int | None) -> bool:
    """Whether ``kind`` is class-specific, once ``class_index`` is checked
    to be given exactly when it is."""
    if kind.class_specific:
        if class_index is None:
            raise InvalidInput(f"{kind.short_name} needs a class index",
                               parameter="class_index", value=None)
        return True
    if class_index is not None:
        raise InvalidInput(f"{kind.short_name} is multiclass; drop the class index",
                           parameter="class_index", value=class_index)
    return False


def evaluate(m: ConfusionMatrix, kind: MeasureKind,
             class_index: int | None = None) -> MeasureValue:
    """Uniform dispatcher over every cataloged kind.

    Class-specific kinds need ``class_index``; the GT index routes through the
    quasi-independence fit and maps fit failures to Undefined.
    """
    if _class_specific(kind, class_index):
        if kind == MeasureKind.GT_INDEX:
            return _gt_value(m, class_index)
        return class_measure(m, class_index, kind)
    try:
        return overall_measure(m, kind)
    except DegenerateChance:
        return MeasureValue(kind, None)


def _gt_value(m: ConfusionMatrix, class_index: int) -> MeasureValue:
    ix = _check_class_index(m.k, class_index)
    try:
        res = gt.gt_index(m)
    except ConfmeasuresError:
        return MeasureValue(MeasureKind.GT_INDEX, None, class_index=class_index)
    return MeasureValue(MeasureKind.GT_INDEX, res.theta[ix],
                        class_index=class_index)


def evaluate_stack(cells: np.ndarray, kind: MeasureKind,
                   class_index: int | None = None,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """``evaluate`` on every member of an ``(n, k, k)`` stack of valid cells.

    Returns ``(values, defined)``. Where ``defined[i]`` is True, ``values[i]``
    equals ``evaluate(ConfusionMatrix(cells[i]), kind, class_index).value``
    bit for bit; where it is False the measure is undefined there and
    ``values[i]`` means nothing. Arguments are checked, and errors raised, as
    ``evaluate`` does; the cells are taken as valid and not checked again.
    The GT index runs one quasi-independence fit per member.
    """
    class_specific = _class_specific(kind, class_index)
    n, k = cells.shape[0], cells.shape[-1]
    if kind == MeasureKind.GT_INDEX:
        _check_class_index(k, class_index)
        theta = [_gt_value(ConfusionMatrix(m), class_index).value for m in cells]
        defined = np.array([t is not None for t in theta], dtype=bool)
        values = np.array([0.0 if t is None else t for t in theta], dtype=float)
        return values, defined
    if class_specific or kind == MeasureKind.CSI:
        rows, cols = cells.sum(axis=2), cells.sum(axis=1)
        if class_specific:
            counts = _stack_counts(cells, rows, cols,
                                   _check_class_index(k, class_index))
            return _stack_class_value(counts, kind)
        return _csi(lambda ix, where: _stack_class_value(
            _stack_counts(cells, rows, cols, ix, where), MeasureKind.ICSI), k)
    po = np.minimum(np.trace(cells, axis1=1, axis2=2), 1.0)
    if kind == MeasureKind.OSR:
        return po, np.ones(n, dtype=bool)
    num, den = _agreement(kind, po, cells)
    den = np.full(n, den)  # a float for MRE
    defined = den > 0.0
    return _divide(num, den, defined), defined


def _divide(num: np.ndarray, den: np.ndarray, defined: np.ndarray) -> np.ndarray:
    return np.divide(num, den, out=np.zeros_like(den), where=defined)


def _stack_counts(cells: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                  ix: int, where=True) -> tuple:
    """(tp, fp, fn, tn) arrays of class ``ix`` (0-based), as ``class_counts``
    computes them; members in ``where`` are checked as ``BinaryCounts``."""
    tp = cells[:, ix, ix]
    fn = cols[:, ix] - tp
    fp = rows[:, ix] - tp
    tn = 1.0 - tp - fp - fn
    tp, fp, fn, tn = (np.where((-1e-12 < v) & (v < 0.0), 0.0, v)
                      for v in (tp, fp, fn, tn))
    bad = ((tp < 0) | (fp < 0) | (fn < 0) | (tn < 0)
           | (np.abs(tp + fp + fn + tn - 1.0) > 1e-9)) & where
    if bad.any():
        i = int(bad.argmax())
        BinaryCounts(tp=float(tp[i]), fp=float(fp[i]), fn=float(fn[i]),
                     tn=float(tn[i]))
    return tp, fp, fn, tn


def _stack_class_value(counts: tuple, kind: MeasureKind,
                       ) -> tuple[np.ndarray, np.ndarray]:
    ratios, combine = _CLASS_FORMULAS[kind]
    parts, defined = [], np.ones(len(counts[0]), dtype=bool)
    for ratio in ratios:
        num, den = ratio(*counts)
        ok = den != 0
        parts.append(_divide(num, den, ok))
        defined &= ok
    return (parts[0] if combine is None else combine(*parts)), defined


def round_half_up(x: float, places: int = 2) -> float:
    """Decimal display rounding; exact halves go up (0.685 -> 0.69)."""
    q = Decimal(10) ** -places
    return float(Decimal(repr(x)).quantize(q, rounding=ROUND_HALF_UP))


@dataclasses.dataclass(frozen=True)
class MeasureReport:
    """Full evaluation grid: every class-specific kind per class, plus the
    multiclass kinds. Undefined cells stay marked, they never abort the report."""

    k: int
    per_class: dict[MeasureKind, tuple[MeasureValue, ...]]
    multiclass: dict[MeasureKind, MeasureValue]

    def to_text(self) -> str:
        headers = [""] + [f"Cls.{i}" for i in range(1, self.k + 1)] + ["Multi."]
        rows = []
        for kind in MeasureKind:
            row = [kind.short_name]
            if kind.class_specific:
                row += [_fmt(v) for v in self.per_class[kind]]
                row.append("-")
            else:
                row += ["-"] * self.k
                row.append(_fmt(self.multiclass[kind]))
            rows.append(row)
        widths = [max(len(r[c]) for r in [headers] + rows)
                  for c in range(len(headers))]
        lines = []
        for r in [headers] + rows:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        per_class = []
        for i in range(self.k):
            entry: dict = {"class": i + 1}
            for kind in MeasureKind:
                if kind.class_specific:
                    entry[kind.value] = self.per_class[kind][i].value
            per_class.append(entry)
        overall = {kind.value: self.multiclass[kind].value
                   for kind in MeasureKind if not kind.class_specific}
        return {"k": self.k, "per_class": per_class, "overall": overall}


def _fmt(v: MeasureValue) -> str:
    if not v.defined:
        return "undef"
    return f"{round_half_up(v.value, 2):.2f}"


def report(m: ConfusionMatrix) -> MeasureReport:
    """Evaluate the whole catalog on one matrix."""
    per_class = {kind: tuple(evaluate(m, kind, i) for i in range(1, m.k + 1))
                 for kind in MeasureKind if kind.class_specific}
    multiclass = {kind: evaluate(m, kind)
                  for kind in MeasureKind if not kind.class_specific}
    return MeasureReport(k=m.k, per_class=per_class, multiclass=multiclass)

"""Catalog of accuracy measures over joint-proportion confusion matrices.

Class-specific measures are ratios of the one-vs-rest cells:

    TPR = tp / (tp + fn)        TNR = tn / (tn + fp)
    PPV = tp / (tp + fp)        NPV = tn / (tn + fn)
    FPR = 1 - TNR
    F   = 2 tp / (2 tp + fn + fp)   (harmonic mean of PPV and TPR)
    JCC = tp / (tp + fp + fn)
    ICSI = PPV + TPR - 1
    KUL  = (PPV + TPR) / 2

Multiclass measures are the trace (OSR), the mean ICSI (CSI), and the
chance-corrected agreement family A = (Po - Pe) / (1 - Pe) with Po the trace
and Pe the chance term of the respective coefficient (CKC, SPC, MRE).

A 0/0 ratio is an explicit Undefined outcome, carried as ``value=None``; it is
never silently reported as 0 or NaN. ``evaluate_stack`` evaluates one kind on
an ``(n, k, k)`` stack of matrices and carries Undefined as a boolean mask.
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
        return _SHORT_NAMES[self]


_CLASS_SPECIFIC = {
    MeasureKind.TPR, MeasureKind.TNR, MeasureKind.PPV, MeasureKind.NPV,
    MeasureKind.FPR, MeasureKind.F_MEASURE, MeasureKind.JCC, MeasureKind.ICSI,
    MeasureKind.KULCZYNSKI, MeasureKind.GT_INDEX,
}

_SHORT_NAMES = {
    MeasureKind.OSR: "OSR", MeasureKind.TPR: "TPR", MeasureKind.TNR: "TNR",
    MeasureKind.PPV: "PPV", MeasureKind.NPV: "NPV", MeasureKind.FPR: "FPR",
    MeasureKind.F_MEASURE: "F", MeasureKind.JCC: "JCC", MeasureKind.ICSI: "ICSI",
    MeasureKind.KULCZYNSKI: "KUL", MeasureKind.CSI: "CSI",
    MeasureKind.COHEN_KAPPA: "CKC", MeasureKind.SCOTT_PI: "SPC",
    MeasureKind.MAXWELL_RE: "MRE", MeasureKind.GT_INDEX: "GT",
}

_ALIASES = {
    "osr": MeasureKind.OSR, "tpr": MeasureKind.TPR, "tnr": MeasureKind.TNR,
    "ppv": MeasureKind.PPV, "npv": MeasureKind.NPV, "fpr": MeasureKind.FPR,
    "f": MeasureKind.F_MEASURE, "f-measure": MeasureKind.F_MEASURE,
    "f_measure": MeasureKind.F_MEASURE, "f1": MeasureKind.F_MEASURE,
    "jcc": MeasureKind.JCC, "jaccard": MeasureKind.JCC,
    "icsi": MeasureKind.ICSI, "kul": MeasureKind.KULCZYNSKI,
    "kulczynski": MeasureKind.KULCZYNSKI, "csi": MeasureKind.CSI,
    "ckc": MeasureKind.COHEN_KAPPA, "ckp": MeasureKind.COHEN_KAPPA,
    "kappa": MeasureKind.COHEN_KAPPA, "spc": MeasureKind.SCOTT_PI,
    "pi": MeasureKind.SCOTT_PI, "mre": MeasureKind.MAXWELL_RE,
    "gt": MeasureKind.GT_INDEX, "gt_index": MeasureKind.GT_INDEX,
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


@dataclasses.dataclass(frozen=True)
class AgreementDecomposition:
    """Observed and chance agreement for a chance-corrected coefficient."""

    po: float
    pe: float

    def __post_init__(self):
        if not 0.0 <= self.po <= 1.0:
            raise InvalidInput("observed agreement must be in [0, 1]",
                               parameter="po", value=self.po)
        if not 0.0 <= self.pe <= 1.0:
            raise InvalidInput("chance agreement must be in [0, 1]",
                               parameter="pe", value=self.pe)


def agreement(d: AgreementDecomposition) -> float:
    """Chance-corrected agreement (Po - Pe) / (1 - Pe)."""
    if d.pe >= 1.0:
        raise DegenerateChance("chance agreement is 1, correction undefined",
                               parameter="pe", value=d.pe)
    return (d.po - d.pe) / (1.0 - d.pe)


def chance_expectation(m: ConfusionMatrix, kind: MeasureKind) -> float:
    """Chance term Pe used by the agreement coefficients."""
    if kind == MeasureKind.COHEN_KAPPA:
        return float(np.dot(m.row_sums(), m.col_sums()))
    if kind == MeasureKind.SCOTT_PI:
        pi = m.col_sums()
        return float(np.dot(pi, pi))
    if kind == MeasureKind.MAXWELL_RE:
        return 1.0 / m.k
    raise InvalidInput(f"{kind.short_name} has no chance term",
                       parameter="kind", value=kind.short_name)


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


def _class_formula(kind: MeasureKind) -> tuple:
    formula = _CLASS_FORMULAS.get(kind)
    if formula is None:
        raise InvalidInput(f"{kind.short_name} is not a per-class ratio measure",
                           parameter="kind", value=kind.short_name)
    return formula


def _class_value(c: BinaryCounts, kind: MeasureKind) -> float | None:
    ratios, combine = _class_formula(kind)
    parts = []
    for ratio in ratios:
        num, den = ratio(c.tp, c.fp, c.fn, c.tn)
        if den == 0:
            return None
        parts.append(num / den)
    return parts[0] if combine is None else combine(*parts)


def class_measure(m: ConfusionMatrix, i: int, kind: MeasureKind) -> MeasureValue:
    """Evaluate a class-specific ratio measure for class ``i`` (1-based)."""
    if not kind.class_specific or kind == MeasureKind.GT_INDEX:
        raise InvalidInput(
            f"{kind.short_name} is not evaluated per class here; use "
            "overall_measure or the quasi-independence fit",
            parameter="kind", value=kind.short_name,
        )
    c = class_counts(m, i)
    return MeasureValue(kind=kind, value=_class_value(c, kind), class_index=i)


def overall_measure(m: ConfusionMatrix, kind: MeasureKind) -> MeasureValue:
    """Evaluate a multiclass measure (OSR, CSI, or an agreement coefficient)."""
    if kind == MeasureKind.OSR:
        return MeasureValue(kind, float(np.trace(m.cells)))
    if kind == MeasureKind.CSI:
        parts = []
        for i in range(1, m.k + 1):
            v = class_measure(m, i, MeasureKind.ICSI)
            if not v.defined:
                return MeasureValue(kind, None)
            parts.append(v.value)
        return MeasureValue(kind, sum(parts) / m.k)
    if kind in (MeasureKind.COHEN_KAPPA, MeasureKind.SCOTT_PI,
                MeasureKind.MAXWELL_RE):
        d = AgreementDecomposition(po=float(np.trace(m.cells)),
                                   pe=chance_expectation(m, kind))
        return MeasureValue(kind, agreement(d))
    raise InvalidInput(f"{kind.short_name} is not a multiclass measure",
                       parameter="kind", value=kind.short_name)


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
    rows, cols = cells.sum(axis=2), cells.sum(axis=1)
    if class_specific:
        counts = _stack_counts(cells, rows, cols, _check_class_index(k, class_index))
        return _stack_class_value(counts, kind)
    po = np.trace(cells, axis1=1, axis2=2)
    if kind == MeasureKind.OSR:
        return po, np.ones(n, dtype=bool)
    if kind == MeasureKind.CSI:
        total, defined = 0, np.ones(n, dtype=bool)
        for ix in range(k):
            counts = _stack_counts(cells, rows, cols, ix, where=defined)
            icsi, icsi_defined = _stack_class_value(counts, MeasureKind.ICSI)
            total = total + icsi
            defined &= icsi_defined
        return total / k, defined
    if kind == MeasureKind.COHEN_KAPPA:
        pe = (rows[:, None, :] @ cols[:, :, None])[:, 0, 0]
    elif kind == MeasureKind.SCOTT_PI:
        pe = (cols[:, None, :] @ cols[:, :, None])[:, 0, 0]
    else:
        pe = np.full(n, 1.0 / k)
    bad = ~((0.0 <= po) & (po <= 1.0) & (0.0 <= pe) & (pe <= 1.0))
    if bad.any():
        i = int(bad.argmax())
        AgreementDecomposition(po=float(po[i]), pe=float(pe[i]))
    defined = pe < 1.0
    return _divide(po - pe, 1.0 - pe, defined), defined


def _divide(num: np.ndarray, den: np.ndarray, defined: np.ndarray) -> np.ndarray:
    return np.divide(num, den, out=np.zeros_like(den), where=defined)


def _stack_counts(cells: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                  ix: int, where: np.ndarray | None = None) -> tuple:
    """(tp, fp, fn, tn) arrays of class ``ix`` (0-based), as ``class_counts``
    computes them; members in ``where`` are checked as ``BinaryCounts``."""
    tp = cells[:, ix, ix]
    fn = cols[:, ix] - tp
    fp = rows[:, ix] - tp
    tn = 1.0 - tp - fp - fn
    tp, fp, fn, tn = (np.where((-1e-12 < v) & (v < 0.0), 0.0, v)
                      for v in (tp, fp, fn, tn))
    bad = ((tp < 0) | (fp < 0) | (fn < 0) | (tn < 0)
           | (np.abs(tp + fp + fn + tn - 1.0) > 1e-9))
    if where is not None:
        bad &= where
    if bad.any():
        i = int(bad.argmax())
        BinaryCounts(tp=float(tp[i]), fp=float(fp[i]), fn=float(fn[i]),
                     tn=float(tn[i]))
    return tp, fp, fn, tn


def _stack_class_value(counts: tuple, kind: MeasureKind,
                       ) -> tuple[np.ndarray, np.ndarray]:
    ratios, combine = _class_formula(kind)
    parts, defined = [], np.ones(len(counts[0]), dtype=bool)
    for ratio in ratios:
        num, den = ratio(*counts)
        ok = den != 0
        parts.append(_divide(num, den, ok))
        defined &= ok
    return (parts[0] if combine is None else combine(*parts)), defined


_REPORT_ORDER = [
    MeasureKind.OSR, MeasureKind.TPR, MeasureKind.TNR, MeasureKind.PPV,
    MeasureKind.NPV, MeasureKind.FPR, MeasureKind.F_MEASURE, MeasureKind.JCC,
    MeasureKind.ICSI, MeasureKind.KULCZYNSKI, MeasureKind.CSI,
    MeasureKind.COHEN_KAPPA, MeasureKind.SCOTT_PI, MeasureKind.MAXWELL_RE,
    MeasureKind.GT_INDEX,
]


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
        for kind in _REPORT_ORDER:
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
            for kind in _REPORT_ORDER:
                if kind.class_specific:
                    entry[kind.value] = self.per_class[kind][i].value
            per_class.append(entry)
        overall = {kind.value: self.multiclass[kind].value
                   for kind in _REPORT_ORDER if not kind.class_specific}
        return {"k": self.k, "per_class": per_class, "overall": overall}


def _fmt(v: MeasureValue) -> str:
    if not v.defined:
        return "undef"
    return f"{round_half_up(v.value, 2):.2f}"


def report(m: ConfusionMatrix) -> MeasureReport:
    """Evaluate the whole catalog on one matrix."""
    per_class: dict[MeasureKind, tuple[MeasureValue, ...]] = {}
    for kind in _REPORT_ORDER:
        if kind.class_specific:
            per_class[kind] = tuple(evaluate(m, kind, i)
                                    for i in range(1, m.k + 1))
    multiclass = {kind: evaluate(m, kind)
                  for kind in _REPORT_ORDER if not kind.class_specific}
    return MeasureReport(k=m.k, per_class=per_class, multiclass=multiclass)

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
never silently reported as 0 or NaN. ``_evaluate_kinds`` is the one
implementation of every measure: it evaluates many kinds on an ``(n, k, k)``
stack in one pass, taking the one-vs-rest counts once, and carries Undefined
as a boolean mask. ``evaluate_stack`` is its one-kind view, ``evaluate``,
``class_measure`` and ``overall_measure`` are views of that on a stack of one.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from . import gt
from .errors import ConfmeasuresError, DegenerateChance, InvalidInput
from .matrix import ConfusionMatrix, _check_class_index


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


# tuples in catalog order: membership compares by identity, where a set
# would call the Python-level ``Enum.__hash__``
_CLASS_SPECIFIC = (
    MeasureKind.TPR, MeasureKind.TNR, MeasureKind.PPV, MeasureKind.NPV,
    MeasureKind.FPR, MeasureKind.F_MEASURE, MeasureKind.JCC, MeasureKind.ICSI,
    MeasureKind.KULCZYNSKI, MeasureKind.GT_INDEX,
)
_MULTICLASS = tuple(kind for kind in MeasureKind if kind not in _CLASS_SPECIFIC)

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
# a ratio is 0/0. They are applied to the (n, k) counts of every class.
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


def _counts(cells: np.ndarray) -> tuple:
    """One-vs-rest (tp, fp, fn, tn) of every class, each ``(n, k)``, from an
    ``(n, k, k)`` stack of valid cells: tp = p_ii, fn = column sum minus tp,
    fp = row sum minus tp, tn = the rest. fp and fn are sums of non-negative
    cells; a negative tn is round-off, since cells sum to 1 only within
    ``SUM_TOLERANCE``, and reads 0."""
    tp = np.diagonal(cells, axis1=1, axis2=2)
    fn = cells.sum(axis=1) - tp
    fp = cells.sum(axis=2) - tp
    tn = 1.0 - tp - fp - fn
    return tp, fp, fn, np.where(tn < 0.0, 0.0, tn)


def _ratio_values(counts, ratios, combine) -> tuple[np.ndarray, np.ndarray]:
    """``(n, k)`` values of one ``_CLASS_FORMULAS`` entry on the ``_counts``
    of a stack, and where they are defined."""
    parts, defined = [], True
    for ratio in ratios:
        num, den = ratio(*counts)
        ok = den != 0
        parts.append(_divide(num, den, ok))
        defined = defined & ok
    return (parts[0] if combine is None else combine(*parts)), defined


def _gt_values(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GT of every class of each member; a failed fit leaves its row undefined."""
    values = np.zeros(cells.shape[:2])
    defined = np.zeros(cells.shape[:2], dtype=bool)
    for member, row, ok in zip(cells, values, defined):
        try:
            theta = gt.gt_index(ConfusionMatrix(member)).theta
        except ConfmeasuresError:
            continue
        ok[:] = [t is not None for t in theta]
        row[ok] = [t for t in theta if t is not None]
    return values, defined


def _chance(kind: MeasureKind, cells: np.ndarray) -> np.ndarray:
    """Pe of an agreement coefficient on each member of an ``(n, k, k)``
    stack: the dot product of the margins (rows and columns for CKC, columns
    twice for SPC), or 1/k for MRE."""
    if kind == MeasureKind.MAXWELL_RE:
        return np.full(cells.shape[0], 1.0 / cells.shape[-1])
    cols = cells.sum(axis=1)
    rows = cells.sum(axis=2) if kind == MeasureKind.COHEN_KAPPA else cols
    return np.vecdot(rows, cols)


def _divide(num: np.ndarray, den: np.ndarray, defined: np.ndarray) -> np.ndarray:
    return np.divide(num, den, out=np.zeros_like(den), where=defined)


def class_measure(m: ConfusionMatrix, i: int, kind: MeasureKind) -> MeasureValue:
    """Evaluate a class-specific ratio measure for class ``i`` (1-based)."""
    if not kind.class_specific or kind == MeasureKind.GT_INDEX:
        raise InvalidInput(
            f"{kind.short_name} is not evaluated per class here; use "
            "overall_measure or the quasi-independence fit",
            parameter="kind", value=kind.short_name,
        )
    return evaluate(m, kind, i)


def overall_measure(m: ConfusionMatrix, kind: MeasureKind) -> MeasureValue:
    """Evaluate a multiclass measure (OSR, CSI, or an agreement coefficient).
    An undefined CSI is returned as such; an agreement coefficient with
    Pe >= 1 raises ``DegenerateChance``."""
    if kind.class_specific:
        raise InvalidInput(f"{kind.short_name} is not a multiclass measure",
                           parameter="kind", value=kind.short_name)
    value = evaluate(m, kind)
    if not value.defined and kind != MeasureKind.CSI:
        raise DegenerateChance("chance agreement is 1, correction undefined",
                               parameter="pe",
                               value=float(_chance(kind, m.cells[None])[0]))
    return value


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
    """Uniform dispatcher over every cataloged kind: ``evaluate_stack`` on a
    stack of one. Class-specific kinds need ``class_index``; GT fit failures
    and Pe >= 1 are Undefined."""
    values, defined = evaluate_stack(m.cells[None], kind, class_index)
    return MeasureValue(kind, float(values[0]) if defined[0] else None,
                        class_index=class_index)


def evaluate_stack(cells: np.ndarray, kind: MeasureKind,
                   class_index: int | None = None,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate one kind on every member of an ``(n, k, k)`` stack of valid
    cells: the one-kind view of ``_evaluate_kinds``.

    Returns ``(values, defined)``. Where ``defined[i]`` is False the measure
    is undefined on member ``i`` and ``values[i]`` means nothing. Arguments
    are checked before any work; the cells are taken as valid and not
    checked again. The GT index runs one quasi-independence fit per member.
    """
    if _class_specific(kind, class_index):
        ix = _check_class_index(cells.shape[-1], class_index)
        values, defined = next(_evaluate_kinds(cells, (kind,)))
        return values[:, ix], defined[:, ix]
    return next(_evaluate_kinds(cells, (kind,)))


def _evaluate_kinds(cells: np.ndarray, kinds):
    """Yield ``(values, defined)`` of each of ``kinds`` on an ``(n, k, k)``
    stack of valid cells: ``(n, k)``, a column per class, for a
    class-specific kind and ``(n,)`` for a multiclass one. The one-vs-rest
    counts are taken at most once, and only if a kind needs them."""
    k = cells.shape[-1]
    counts = None
    for kind in kinds:
        if kind == MeasureKind.GT_INDEX:
            yield _gt_values(cells)
        elif kind in _CLASS_SPECIFIC or kind == MeasureKind.CSI:
            counts = _counts(cells) if counts is None else counts
            if kind == MeasureKind.CSI:
                icsi, defined = _ratio_values(
                    counts, *_CLASS_FORMULAS[MeasureKind.ICSI])
                # summed in class order: a pairwise sum changes the bits at k >= 8
                yield sum(icsi.T) / k, defined.all(axis=1)
            else:
                yield _ratio_values(counts, *_CLASS_FORMULAS[kind])
        else:
            po = np.minimum(np.trace(cells, axis1=1, axis2=2), 1.0)
            if kind == MeasureKind.OSR:
                yield po, np.ones(po.shape, dtype=bool)
            else:
                pe = _chance(kind, cells)
                den = 1.0 - pe
                defined = den > 0.0
                yield _divide(po - pe, den, defined), defined


def round_half_up(x: float) -> float:
    """Decimal display rounding to 2 places; halves go up (0.685 -> 0.69)."""
    return float(Decimal(repr(x)).quantize(Decimal("0.01"), ROUND_HALF_UP))


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
        names = [kind.value for kind in self.per_class]
        rows = zip(*self.per_class.values())
        per_class = [{"class": i, **{name: v.value for name, v in zip(names, row)}}
                     for i, row in enumerate(rows, start=1)]
        overall = {kind.value: v.value for kind, v in self.multiclass.items()}
        return {"k": self.k, "per_class": per_class, "overall": overall}


def _fmt(v: MeasureValue) -> str:
    if not v.defined:
        return "undef"
    return f"{round_half_up(v.value):.2f}"


def report(m: ConfusionMatrix) -> MeasureReport:
    """Evaluate the whole catalog on one matrix: every class-specific kind
    for all classes from one ``_evaluate_kinds`` call, GT from one fit, and
    each multiclass kind through ``evaluate``."""
    columns = _evaluate_kinds(m.cells[None], _CLASS_SPECIFIC)
    per_class = {
        kind: tuple(MeasureValue(kind, v if ok else None, class_index=i)
                    for i, (v, ok) in enumerate(zip(values[0].tolist(),
                                                    defined[0].tolist()), start=1))
        for kind, (values, defined) in zip(_CLASS_SPECIFIC, columns)}
    # these calls alone fill the benchmark's traced ``measures.evaluate_us``
    multiclass = {kind: evaluate(m, kind) for kind in _MULTICLASS}
    return MeasureReport(k=m.k, per_class=per_class, multiclass=multiclass)

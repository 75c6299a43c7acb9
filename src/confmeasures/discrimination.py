"""Discrimination lines and rank concordance between measures.

Two classifiers are compared on the (c_x, c_y) plane: the first comes from the
ALL_CLASSES series at retention c_x, the second from the FIRST_CLASS_ONLY
series at retention c_y. For a fixed c_x, the discrimination line of a measure
is the c_y at which the measure values itself equal; above the line the second
classifier wins, below it the first does. Where the difference never changes
sign on [c_lo, 1] there is no crossing and one side is constantly preferred.

Two measures are rank-concordant on a pair set when they issue the same
verdict (first / second / tie) for every pair; measures that are concordant on
every pair collapse into one equivalence class.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from .errors import InsufficientData, InvalidInput, NotComparable
from .matrix import ConfusionMatrix
from .measures import MeasureKind, evaluate
from .series import (
    ProportionVector,
    SeriesMode,
    class_proportions,
    series_matrix,
    uniform_grid,
)

TIE_TOLERANCE = 1e-12
SOLVER_TOLERANCE = 1e-9
_SCAN_SAMPLES = 32
_BISECT_ITERATIONS = 60


class Preference(enum.Enum):
    FIRST = "first"
    SECOND = "second"
    TIE = "tie"


def preference(kind: MeasureKind, first: ConfusionMatrix,
               second: ConfusionMatrix, class_index: int | None = None,
               tie_tolerance: float = TIE_TOLERANCE) -> Preference:
    """Which matrix the measure ranks higher; ties within ``tie_tolerance``."""
    va = evaluate(first, kind, class_index)
    vb = evaluate(second, kind, class_index)
    if not va.defined or not vb.defined:
        raise NotComparable(
            f"{kind.short_name} is undefined on one of the matrices",
            parameter="kind", value=kind.short_name,
        )
    if va.value > vb.value + tie_tolerance:
        return Preference.FIRST
    if vb.value > va.value + tie_tolerance:
        return Preference.SECOND
    return Preference.TIE


@dataclasses.dataclass(frozen=True)
class LineRow:
    """Outcome at one grid value c_x.

    Crossing rows carry the solved c_y (the measures tie exactly there);
    no-crossing rows carry the constant winner; rows where the measure was
    undefined somewhere on the probe range carry ``preference=None``.
    """

    c_x: float
    c_y: float | None
    crossing: bool
    preference: Preference | None


@dataclasses.dataclass(frozen=True)
class DiscriminationLine:
    kind: MeasureKind
    class_index: int | None
    k: int
    p: float
    c_lo: float
    rows: tuple[LineRow, ...]

    @property
    def points(self) -> list[tuple[float, float]]:
        return [(r.c_x, r.c_y) for r in self.rows if r.crossing]

    @property
    def no_crossing(self) -> list[tuple[float, Preference]]:
        return [(r.c_x, r.preference) for r in self.rows
                if not r.crossing and r.preference is not None]


def discrimination_line(kind: MeasureKind, k: int, p: float,
                        class_index: int | None = None,
                        grid_step: float = 0.01, c_lo: float = 0.0,
                        grid=None,
                        solver_tolerance: float = SOLVER_TOLERANCE,
                        tie_tolerance: float = TIE_TOLERANCE,
                        ) -> DiscriminationLine:
    """Solve measure(second series at c_y) = measure(first series at c_x)
    for every c_x on the grid, by bisection over c_y in [c_lo, 1]."""
    if kind.class_specific and class_index is None:
        raise InvalidInput(f"{kind.short_name} needs a class index",
                           parameter="class_index", value=None)
    pi = class_proportions(k, p)
    if grid is None:
        grid = uniform_grid(step=grid_step, c_lo=c_lo)

    def measure_on(mode: SeriesMode, c: float) -> float | None:
        return evaluate(series_matrix(pi, c, mode), kind, class_index).value

    rows = []
    for c_x in grid:
        target = measure_on(SeriesMode.ALL_CLASSES, c_x)
        if target is None:
            rows.append(LineRow(c_x, None, False, None))
            continue
        rows.append(_solve_row(c_x, target, measure_on, c_lo,
                               tie_tolerance))
    return DiscriminationLine(kind=kind, class_index=class_index, k=k, p=p,
                              c_lo=c_lo, rows=tuple(rows))


def _solve_row(c_x, target, measure_on, c_lo, tie_tol) -> LineRow:
    def g(c_y: float) -> float | None:
        v = measure_on(SeriesMode.FIRST_CLASS_ONLY, c_y)
        return None if v is None else v - target

    # sign pre-scan: finds the bracket and guards against non-monotone shapes
    samples = np.linspace(c_lo, 1.0, _SCAN_SAMPLES)
    values = []
    for s in samples:
        gv = g(float(s))
        if gv is None:
            return LineRow(c_x, None, False, None)
        values.append(gv)
    values = np.asarray(values)

    if np.abs(values).max() <= tie_tol:
        # both series hit the target everywhere; the tie holds at c_x itself
        return LineRow(c_x, min(max(c_x, c_lo), 1.0), True, Preference.TIE)
    if values.min() > tie_tol:
        return LineRow(c_x, None, False, Preference.SECOND)
    if values.max() < -tie_tol:
        return LineRow(c_x, None, False, Preference.FIRST)

    for idx in range(len(samples) - 1):
        if values[idx] == 0.0:
            return LineRow(c_x, float(samples[idx]), True, Preference.TIE)
        if values[idx] * values[idx + 1] <= 0.0:
            root = _bisect(g, float(samples[idx]), float(samples[idx + 1]),
                           values[idx])
            if root is None:
                return LineRow(c_x, None, False, None)
            return LineRow(c_x, root, True, Preference.TIE)
    # sign pattern inconsistent with a zero (numeric noise around the tolerance)
    side = Preference.SECOND if values.mean() > 0 else Preference.FIRST
    return LineRow(c_x, None, False, side)


def _bisect(g, lo: float, hi: float, g_lo: float) -> float | None:
    """First-sign-change bisection; assumes g(lo) and g(hi) straddle zero."""
    for _ in range(_BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm is None:
            return None
        if gm == 0.0:
            return mid
        if (gm < 0) == (g_lo < 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclasses.dataclass(frozen=True)
class ConcordanceResult:
    """Verdict agreement of two measures over a pair set."""

    kind_a: MeasureKind
    kind_b: MeasureKind
    total: int
    concordant: int
    excluded: int

    @property
    def fraction(self) -> float | None:
        return None if self.total == 0 else self.concordant / self.total


def _index_pairs(pairs) -> tuple[list[ConfusionMatrix], np.ndarray]:
    """Distinct matrices of ``pairs`` and a ``(2, n_pairs)`` slot index.

    Matrices are told apart by identity. The list of pairs keeps every
    matrix alive while ids are taken, so a freed id is never reused.
    """
    pairs = list(pairs)
    slots: dict[int, int] = {}
    matrices: list[ConfusionMatrix] = []
    index = np.empty((2, len(pairs)), dtype=np.intp)
    for col, (first, second) in enumerate(pairs):
        for row, m in enumerate((first, second)):
            slot = slots.get(id(m))
            if slot is None:
                slot = slots[id(m)] = len(matrices)
                matrices.append(m)
            index[row, col] = slot
    return matrices, index


def _verdicts(kind: MeasureKind, matrices, index: np.ndarray,
              class_index: int | None,
              tie_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair verdict of one kind and where it is defined on both sides.

    ``kind`` is evaluated once per distinct matrix. The verdict is +1 when
    the first matrix ranks higher, -1 when the second does and 0 for a tie;
    it is meaningless where the mask is False.
    """
    ci = class_index if kind.class_specific else None
    values = np.zeros(len(matrices))
    defined = np.ones(len(matrices), dtype=bool)
    for slot, m in enumerate(matrices):
        v = evaluate(m, kind, ci).value
        if v is None:
            defined[slot] = False
        else:
            values[slot] = v
    a, b = values[index[0]], values[index[1]]
    verdict = ((a > b + tie_tol).astype(np.int8)
               - (b > a + tie_tol).astype(np.int8))
    return verdict, defined[index[0]] & defined[index[1]]


def consistency(kind_a: MeasureKind, kind_b: MeasureKind, pairs,
                class_index: int | None = None,
                tie_tolerance: float = TIE_TOLERANCE) -> ConcordanceResult:
    """Count pairs on which the two measures issue the same verdict.

    ``pairs`` is any iterable of (first, second) ConfusionMatrix tuples,
    generators included; each kind is evaluated once per distinct matrix.
    Pairs where either measure is undefined on either matrix are excluded
    from the total and reported separately.
    """
    matrices, index = _index_pairs(pairs)
    va, da = _verdicts(kind_a, matrices, index, class_index, tie_tolerance)
    vb, db = _verdicts(kind_b, matrices, index, class_index, tie_tolerance)
    both = da & db
    total = int(both.sum())
    return ConcordanceResult(
        kind_a=kind_a, kind_b=kind_b, total=total,
        concordant=int((va == vb)[both].sum()),
        excluded=index.shape[1] - total,
    )


@dataclasses.dataclass(frozen=True)
class EquivalencePartition:
    """Kinds grouped by perfect pairwise concordance (transitively closed)."""

    groups: tuple[tuple[MeasureKind, ...], ...]
    pairs_compared: int


def equivalence_classes(kinds, pairs, class_index: int | None = None,
                        tie_tolerance: float = TIE_TOLERANCE,
                        ) -> EquivalencePartition:
    """Partition ``kinds`` by rank concordance over ``pairs``.

    Kinds land in the same group when their pairwise concordance fraction is
    exactly 1.0; the relation is closed transitively. A single kind forms its
    own group without needing any pairs. ``pairs`` is any iterable of
    (first, second) tuples, generators included; each kind is evaluated once
    per distinct matrix, and the verdict vectors of two kinds are compared
    where both are defined.
    """
    kinds = list(dict.fromkeys(kinds))
    if not kinds:
        raise InvalidInput("need at least one measure kind", parameter="kinds",
                           value=kinds)
    pairs = list(pairs)
    if len(kinds) == 1:
        return EquivalencePartition(groups=(tuple(kinds),), pairs_compared=0)
    matrices, index = _index_pairs(pairs)

    verdicts: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def verdict_of(ix: int) -> tuple[np.ndarray, np.ndarray]:
        # computed on first use, so errors surface in kind-pair order
        if ix not in verdicts:
            verdicts[ix] = _verdicts(kinds[ix], matrices, index, class_index,
                                     tie_tolerance)
        return verdicts[ix]

    parent = list(range(len(kinds)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ia in range(len(kinds)):
        for ib in range(ia + 1, len(kinds)):
            va, da = verdict_of(ia)
            vb, db = verdict_of(ib)
            both = da & db
            if not both.any():
                raise InsufficientData(
                    f"no comparable pairs for {kinds[ia].short_name} vs "
                    f"{kinds[ib].short_name}",
                    parameter="pairs", value=len(pairs),
                )
            if (va == vb)[both].all():
                parent[find(ia)] = find(ib)

    grouped: dict[int, list[MeasureKind]] = {}
    for ix, kind in enumerate(kinds):
        grouped.setdefault(find(ix), []).append(kind)
    groups = sorted(grouped.values(), key=lambda g: kinds.index(g[0]))
    return EquivalencePartition(groups=tuple(tuple(g) for g in groups),
                                pairs_compared=len(pairs))


def series_pairs(k: int, p: float, grid_step: float = 0.01,
                 c_lo: float = 0.0, grid=None,
                 ) -> list[tuple[ConfusionMatrix, ConfusionMatrix]]:
    """Cross product of the two series: every (all-classes, first-class) pair."""
    pi = class_proportions(k, p)
    if grid is None:
        grid = uniform_grid(step=grid_step, c_lo=c_lo)
    xs = [series_matrix(pi, c, SeriesMode.ALL_CLASSES) for c in grid]
    ys = [series_matrix(pi, c, SeriesMode.FIRST_CLASS_ONLY) for c in grid]
    return [(x, y) for x in xs for y in ys]

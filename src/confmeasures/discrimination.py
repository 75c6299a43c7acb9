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
import itertools

import numpy as np

from .errors import InsufficientData, InvalidInput, NotComparable
from .matrix import ConfusionMatrix, _check_class_index
from .measures import MeasureKind, _class_specific, evaluate, evaluate_stack
from .series import (
    SeriesMode,
    _check_c_lo,
    class_proportions,
    series_matrix,
    series_stack,
    uniform_grid,
)

TIE_TOLERANCE = 1e-12
_SCAN_SAMPLES = 32
_BISECT_ITERATIONS = 60
# cells per stack: a line over a grid of large matrices is solved in chunks
_STACK_CELLS = 1 << 20


def _grid(grid, grid_step: float | None, c_lo: float) -> list | tuple:
    """A given ``grid`` read once and checked against ``c_lo``, or else the
    uniform grid of ``grid_step`` (0.01 when None) over [c_lo, 1]."""
    if grid is None:
        return uniform_grid(0.01 if grid_step is None else grid_step, c_lo)
    if grid_step is not None:
        raise InvalidInput("grid_step cannot be given with a grid",
                           parameter="grid_step", value=grid_step)
    grid = list(grid)
    _check_c_lo(c_lo, grid)
    return grid


class Preference(enum.Enum):
    FIRST = "first"
    SECOND = "second"
    TIE = "tie"


def _verdict(a, b, tie_tol):
    """+1 where ``a`` ranks above ``b`` by more than ``tie_tol``, -1 where
    ``b`` ranks above ``a`` by more, 0 for a tie; on floats or arrays."""
    return np.subtract(a > b + tie_tol, b > a + tie_tol, dtype=np.int8)


_PREFERENCES = {1: Preference.FIRST, -1: Preference.SECOND, 0: Preference.TIE}


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
    return _PREFERENCES[int(_verdict(va.value, vb.value, tie_tolerance))]


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
                        grid_step: float | None = None, c_lo: float = 0.0,
                        grid=None,
                        tie_tolerance: float = TIE_TOLERANCE,
                        ) -> DiscriminationLine:
    """Solve measure(second series at c_y) = measure(first series at c_x)
    for every c_x on the grid, by bisection over c_y in [c_lo, 1].

    The line is solved on stacks of series members, not one matrix at a
    time. The targets, the measure on the first series at every c_x, are one
    stack. The second series is scanned at 32 points over [c_lo, 1] once per
    line, since the scan does not depend on c_x. Each row's outcome is
    decided in this order: no verdict where its target or a scan point is
    undefined; a tie at c_x (clamped to [c_lo, 1]) where the whole scan lies
    within ``tie_tolerance`` of its target; a crossing at its first sign
    change in scan order, an exact zero at a scan point included, where
    there is one, bisected for 60 steps with every such row in the same
    stacked probe (no verdict where a probe is undefined); otherwise no
    crossing, and the side of the first scan point is preferred throughout.
    ``grid_step`` (0.01 when None) and ``grid`` exclude each other; ``c_lo``
    lies in [0, 1), and no value of a given ``grid`` lies below it.
    """
    pi = class_proportions(k, p)
    grid = _grid(grid, grid_step, c_lo)

    def measure_on(mode: SeriesMode, c) -> tuple[np.ndarray, np.ndarray]:
        c = np.asarray(c, dtype=float)
        step = max(1, _STACK_CELLS // pi.k ** 2)
        parts = [evaluate_stack(series_stack(pi, c[i:i + step], mode), kind,
                                class_index)
                 for i in range(0, max(c.size, 1), step)]
        return (np.concatenate([v for v, _ in parts]),
                np.concatenate([d for _, d in parts]))

    targets, has_target = measure_on(SeriesMode.ALL_CLASSES, grid)
    samples = np.linspace(c_lo, 1.0, _SCAN_SAMPLES)
    scan, scan_defined = measure_on(SeriesMode.FIRST_CLASS_ONLY, samples)
    solved = _solve_rows(targets, has_target & scan_defined.all(), samples,
                         scan, measure_on, tie_tolerance)
    tie, crossing, c_y, second, has_verdict = (a.tolist() for a in solved)
    rows = []
    for r, c_x in enumerate(grid):
        if not has_verdict[r]:
            row = LineRow(c_x, None, False, None)
        elif tie[r]:
            # both series hit the target everywhere; the tie holds at c_x itself
            row = LineRow(c_x, min(max(c_x, c_lo), 1.0), True, Preference.TIE)
        elif crossing[r]:
            row = LineRow(c_x, c_y[r], True, Preference.TIE)
        else:
            side = Preference.SECOND if second[r] else Preference.FIRST
            row = LineRow(c_x, None, False, side)
        rows.append(row)
    return DiscriminationLine(kind=kind, class_index=class_index, k=k, p=p,
                              c_lo=c_lo, rows=tuple(rows))


def _solve_rows(targets, defined, samples, scan, measure_on, tie_tol):
    """Per-row arrays ``(tie, crossing, c_y, second, has_verdict)`` of a line.

    ``defined`` marks the rows whose target and scan are defined;
    ``has_verdict`` is it less the rows with an undefined probe. A row that
    neither ties nor changes sign keeps one strict sign, a zero counting as
    a change, so ``second`` (g > 0 at the first scan point) is its side.
    """
    g = scan[None, :] - targets[:, None]
    tie = np.abs(g).max(axis=1) <= tie_tol
    # first sign change in scan order, an exact zero included
    change = (g[:, :-1] == 0.0) | (g[:, :-1] * g[:, 1:] <= 0.0)
    crossing = ~tie & change.any(axis=1)
    idx = change.argmax(axis=1)
    g_lo = g[np.arange(len(g)), idx]
    lo, hi = samples[idx], samples[idx + 1]
    c_y = lo.copy()
    has_verdict = defined.copy()
    active = np.flatnonzero(has_verdict & crossing & (g_lo != 0.0))
    for _ in range(_BISECT_ITERATIONS):
        if not active.size:
            break
        mid = 0.5 * (lo[active] + hi[active])
        value, ok = measure_on(SeriesMode.FIRST_CLASS_ONLY, mid)
        gm = value - targets[active]
        same = (gm < 0) == (g_lo[active] < 0)
        lo[active] = np.where(same, mid, lo[active])
        hi[active] = np.where(same, hi[active], mid)
        # a row retires at an undefined probe or one that hits its target
        hit = ok & (gm == 0.0)
        c_y[active[hit]] = mid[hit]
        has_verdict[active[~ok]] = False
        active = active[ok & ~hit]
    c_y[active] = 0.5 * (lo[active] + hi[active])
    return tie, crossing, c_y, g[:, 0] > 0, has_verdict


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


class _SeriesPairs(tuple):
    """The pairs ``(xs[i], ys[j])`` at items ``i * len(ys) + j``, keeping
    ``members = (xs, ys)``; ``+`` and slices give plain tuples."""

    def __new__(cls, xs, ys):
        self = super().__new__(cls, itertools.product(xs, ys))
        object.__setattr__(self, "members", (tuple(xs), tuple(ys)))
        return self

    def __getnewargs__(self):
        return self.members

    def __setattr__(self, *args):
        raise AttributeError("a series pair set cannot be changed")

    __delattr__ = __setattr__


def _index_pairs(pairs, class_index: int | None) -> tuple[list, np.ndarray]:
    """Stacks of the distinct matrices of ``pairs``, one per k, each with the
    slots of its members, and a ``(2, n_pairs)`` slot index; a given
    ``class_index`` is checked against the k of every stack.

    A series pair set is indexed as the outer product of its members. Other
    matrices are told apart by identity; the list of pairs keeps them alive
    while ids are taken, so a freed id is never reused.
    """
    if isinstance(pairs, _SeriesPairs):
        xs, ys = pairs.members
        matrices = xs + ys
        index = np.stack([np.repeat(np.arange(len(xs)), len(ys)),
                          np.tile(np.arange(len(xs), len(matrices)), len(xs))])
        groups = [np.arange(len(matrices))] if matrices else []
    else:
        pairs = list(pairs)
        slots: dict[int, int] = {}
        by_k: dict[int, list[int]] = {}
        matrices = []
        index = np.empty((2, len(pairs)), dtype=np.intp)
        for col, (first, second) in enumerate(pairs):
            for row, m in enumerate((first, second)):
                slot = slots.get(id(m))
                if slot is None:
                    slot = slots[id(m)] = len(matrices)
                    matrices.append(m)
                    by_k.setdefault(m.k, []).append(slot)
                index[row, col] = slot
        groups = list(by_k.values())
    stacks = [(group, np.stack([matrices[s].cells for s in group]))
              for group in groups]
    if class_index is not None:
        for _, cells in stacks:
            _check_class_index(cells.shape[-1], class_index)
    return stacks, index


def _verdicts(kind: MeasureKind, stacks, index: np.ndarray,
              class_index: int | None,
              tie_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair verdict of one kind and where it is defined on both sides.

    ``kind`` is evaluated once on each stack of ``_index_pairs``. The verdict
    is +1 when the first matrix ranks higher, -1 when the second does and 0
    for a tie; it is meaningless where the mask is False.
    """
    ci = class_index if kind.class_specific else None
    size = sum(len(group) for group, _ in stacks)
    values, defined = np.zeros(size), np.zeros(size, dtype=bool)
    for group, cells in stacks:
        values[group], defined[group] = evaluate_stack(cells, kind, ci)
    verdict = _verdict(values[index[0]], values[index[1]], tie_tol)
    return verdict, defined[index[0]] & defined[index[1]]


def consistency(kind_a: MeasureKind, kind_b: MeasureKind, pairs,
                class_index: int | None = None,
                tie_tolerance: float = TIE_TOLERANCE) -> ConcordanceResult:
    """Count pairs on which the two measures issue the same verdict.

    ``pairs`` is any iterable of (first, second) ConfusionMatrix tuples,
    generators included; a ``series_pairs`` result is indexed as the outer
    product of its members. Each kind is evaluated once per distinct matrix,
    and ``class_index`` is checked against every k, also for multiclass
    kinds. Pairs where either measure is undefined on either matrix are
    excluded from the total and reported separately.
    """
    stacks, index = _index_pairs(pairs, class_index)
    va, da = _verdicts(kind_a, stacks, index, class_index, tie_tolerance)
    vb, db = _verdicts(kind_b, stacks, index, class_index, tie_tolerance)
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
    own group without comparing any pairs. ``pairs`` and ``class_index``
    are as for ``consistency``, and the verdict vectors of two kinds are
    compared where both are defined.
    """
    kinds = list(dict.fromkeys(kinds))
    if not kinds:
        raise InvalidInput("need at least one measure kind", parameter="kinds",
                           value=kinds)
    stacks, index = _index_pairs(pairs, class_index)
    for kind in kinds:  # checked here: a single kind evaluates nothing
        _class_specific(kind, class_index if kind.class_specific else None)
    if len(kinds) == 1:
        return EquivalencePartition(groups=(tuple(kinds),), pairs_compared=0)

    verdicts = [_verdicts(kind, stacks, index, class_index, tie_tolerance)
                for kind in kinds]
    parent = list(range(len(kinds)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ia in range(len(kinds)):
        for ib in range(ia + 1, len(kinds)):
            va, da = verdicts[ia]
            vb, db = verdicts[ib]
            both = da & db
            if not both.any():
                raise InsufficientData(
                    f"no comparable pairs for {kinds[ia].short_name} vs "
                    f"{kinds[ib].short_name}",
                    parameter="pairs", value=index.shape[1],
                )
            if (va == vb)[both].all():
                parent[find(ia)] = find(ib)

    grouped: dict[int, list[MeasureKind]] = {}
    for ix, kind in enumerate(kinds):
        grouped.setdefault(find(ix), []).append(kind)
    groups = sorted(grouped.values(), key=lambda g: kinds.index(g[0]))
    return EquivalencePartition(groups=tuple(tuple(g) for g in groups),
                                pairs_compared=index.shape[1])


def series_pairs(k: int, p: float, grid_step: float | None = None,
                 c_lo: float = 0.0, grid=None,
                 ) -> tuple[tuple[ConfusionMatrix, ConfusionMatrix], ...]:
    """Cross product of the two series: every (all-classes, first-class) pair.

    An immutable tuple: item ``i * n + j`` pairs the first series at
    ``grid[i]`` with the second at ``grid[j]``. Partitions index it as the
    outer product of its two member lists; the grid is as for a line.
    """
    pi = class_proportions(k, p)
    grid = _grid(grid, grid_step, c_lo)
    return _SeriesPairs(
        [series_matrix(pi, c, SeriesMode.ALL_CLASSES) for c in grid],
        [series_matrix(pi, c, SeriesMode.FIRST_CLASS_ONLY) for c in grid])

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
                        grid_step: float | None = None, c_lo: float = 0.0,
                        grid=None,
                        tie_tolerance: float = TIE_TOLERANCE,
                        ) -> DiscriminationLine:
    """Solve measure(second series at c_y) = measure(first series at c_x)
    for every c_x on the grid, by bisection over c_y in [c_lo, 1].

    The line is solved on stacks of series members, not one matrix at a
    time. The targets, the measure on the first series at every c_x, are one
    stack. The second series is scanned at 32 points over [c_lo, 1] once per
    line, since the scan does not depend on c_x. A row whose scan stays more
    than ``tie_tolerance`` on one side of its target has no crossing;
    otherwise its first sign change in scan order is bisected for 60 steps,
    every such row in the same stacked probe. A row has no verdict where its
    target, a scan point or one of its probes is undefined. ``grid_step``
    (0.01 when None) and ``grid`` exclude each other; ``c_lo`` lies in
    [0, 1), and no value of a given ``grid`` lies below it.
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

    rows = [LineRow(c_x, None, False, None) for c_x in grid]
    targets, has_target = measure_on(SeriesMode.ALL_CLASSES, grid)
    if has_target.any():
        samples = np.linspace(c_lo, 1.0, _SCAN_SAMPLES)
        scan, scan_defined = measure_on(SeriesMode.FIRST_CLASS_ONLY, samples)
        if scan_defined.all():
            solved = np.flatnonzero(has_target)
            for r, row in zip(solved.tolist(),
                              _solve_rows(targets[solved], samples, scan,
                                          measure_on, c_lo, tie_tolerance,
                                          [grid[r] for r in solved])):
                rows[r] = row
    return DiscriminationLine(kind=kind, class_index=class_index, k=k, p=p,
                              c_lo=c_lo, rows=tuple(rows))


def _solve_rows(targets, samples, scan, measure_on, c_lo, tie_tol, c_xs,
                ) -> list[LineRow]:
    """Rows of the c_x values ``c_xs`` whose targets and scan are defined."""
    values = scan[None, :] - targets[:, None]  # g(sample) per row
    tie = np.abs(values).max(axis=1) <= tie_tol
    second = ~tie & (values.min(axis=1) > tie_tol)
    first = ~tie & ~second & (values.max(axis=1) < -tie_tol)
    # first sign change in scan order, an exact zero included
    change = ((values[:, :-1] == 0.0)
              | (values[:, :-1] * values[:, 1:] <= 0.0))
    idx = change.argmax(axis=1)
    g_lo = values[np.arange(len(values)), idx]
    undecided = ~(tie | second | first)
    bracket = undecided & change.any(axis=1) & (g_lo != 0.0)
    roots = _bisect_rows(np.flatnonzero(bracket), samples[idx], samples[idx + 1],
                         g_lo, targets, measure_on)

    out = []
    for r, c_x in enumerate(c_xs):
        if tie[r]:
            # both series hit the target everywhere; the tie holds at c_x itself
            out.append(LineRow(c_x, min(max(c_x, c_lo), 1.0), True,
                               Preference.TIE))
        elif second[r]:
            out.append(LineRow(c_x, None, False, Preference.SECOND))
        elif first[r]:
            out.append(LineRow(c_x, None, False, Preference.FIRST))
        elif not change[r].any():
            # sign pattern inconsistent with a zero (numeric noise around the
            # tolerance)
            side = (Preference.SECOND if values[r].mean() > 0
                    else Preference.FIRST)
            out.append(LineRow(c_x, None, False, side))
        elif not bracket[r]:
            out.append(LineRow(c_x, float(samples[idx[r]]), True, Preference.TIE))
        elif roots[r] is None:
            out.append(LineRow(c_x, None, False, None))
        else:
            out.append(LineRow(c_x, roots[r], True, Preference.TIE))
    return out


def _bisect_rows(active, lo, hi, g_lo, targets, measure_on) -> dict:
    """First-sign-change bisection of the rows ``active``, all at once.

    ``lo``, ``hi`` and ``g_lo`` hold each row's bracket and g(lo). Returns
    the root of each active row, or None where a probe was undefined.
    """
    roots: dict[int, float | None] = {}
    lo, hi, g_lo, target = lo[active], hi[active], g_lo[active], targets[active]
    for _ in range(_BISECT_ITERATIONS):
        if not active.size:
            break
        mid = 0.5 * (lo + hi)
        value, defined = measure_on(SeriesMode.FIRST_CLASS_ONLY, mid)
        gm = value - target
        zero = defined & (gm == 0.0)
        for r in active[~defined].tolist():
            roots[r] = None
        for r, m in zip(active[zero].tolist(), mid[zero].tolist()):
            roots[r] = m
        same = (gm < 0) == (g_lo < 0)
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
        keep = defined & ~zero
        active, lo, hi, g_lo, target = (active[keep], lo[keep], hi[keep],
                                        g_lo[keep], target[keep])
    for r, m in zip(active.tolist(), (0.5 * (lo + hi)).tolist()):
        roots[r] = m
    return roots


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
    a, b = values[index[0]], values[index[1]]
    verdict = ((a > b + tie_tol).astype(np.int8)
               - (b > a + tie_tol).astype(np.int8))
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

    verdicts: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def verdict_of(ix: int) -> tuple[np.ndarray, np.ndarray]:
        # computed on first use, so errors surface in kind-pair order
        if ix not in verdicts:
            verdicts[ix] = _verdicts(kinds[ix], stacks, index, class_index,
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

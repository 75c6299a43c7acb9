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
from .measures import (
    MeasureKind, _class_specific, _evaluate_kinds, evaluate, evaluate_stack,
)
from .series import (
    SeriesMode,
    class_proportions,
    series_matrix,  # unused: bench's tracer wraps it until ROADMAP item 1
    series_stack,
    uniform_grid,
)

TIE_TOLERANCE = 1e-12
_SCAN_SAMPLES = 32
_BISECT_ITERATIONS = 60
_SPECULATIVE_LEVELS = 8  # bisection levels probed in one stack per pass
# cells per stack: a line over a grid of large matrices is solved in chunks
_STACK_CELLS = 1 << 20
_MAX_PAIRS = 2_000_000  # a 1,414-point grid: ~280 MB for five kinds at k = 3


class Preference(enum.Enum):
    FIRST = "first"
    SECOND = "second"
    TIE = "tie"


def _verdict(a, b):
    """+1 where ``a`` ranks above ``b`` by more than ``TIE_TOLERANCE``, -1
    where ``b`` ranks above ``a`` by more, 0 for a tie; on floats or arrays."""
    return np.subtract(a > b + TIE_TOLERANCE, b > a + TIE_TOLERANCE,
                       dtype=np.int8)


_PREFERENCES = {1: Preference.FIRST, -1: Preference.SECOND, 0: Preference.TIE}


def preference(kind: MeasureKind, first: ConfusionMatrix,
               second: ConfusionMatrix,
               class_index: int | None = None) -> Preference:
    """Which matrix the measure ranks higher; ties within ``TIE_TOLERANCE``."""
    va = evaluate(first, kind, class_index)
    vb = evaluate(second, kind, class_index)
    if not va.defined or not vb.defined:
        raise NotComparable(
            f"{kind.short_name} is undefined on one of the matrices",
            parameter="kind", value=kind.short_name,
        )
    return _PREFERENCES[int(_verdict(va.value, vb.value))]


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


def discrimination_line(kind: MeasureKind, k: int, p: float,
                        class_index: int | None = None,
                        grid_step: float = 0.01, c_lo: float = 0.0,
                        ) -> DiscriminationLine:
    """Solve measure(second series at c_y) = measure(first series at c_x)
    for every c_x of ``uniform_grid(grid_step, c_lo)``, by bisection over
    c_y in [c_lo, 1].

    The targets are one stack, the second series is scanned once at 32
    points, and rows are decided as in ``_solve_rows``: a crossing takes 60
    halvings, up to 8 in one stacked probe along the path the secant through
    the bracket ends predicts, keeping only halvings whose probes confirm
    it.
    """
    pi = class_proportions(k, p)
    grid = uniform_grid(grid_step, c_lo)

    def measure_on(mode: SeriesMode, c) -> tuple[np.ndarray, np.ndarray]:
        c = np.asarray(c, dtype=float)
        step = max(1, _STACK_CELLS // pi.k ** 2)
        if c.size <= step:
            return evaluate_stack(series_stack(pi, c, mode), kind, class_index)
        parts = [measure_on(mode, c[i:i + step]) for i in range(0, c.size, step)]
        return tuple(np.concatenate(part) for part in zip(*parts))

    targets, has_target = measure_on(SeriesMode.ALL_CLASSES, grid)
    samples = np.linspace(c_lo, 1.0, _SCAN_SAMPLES)
    scan, scan_defined = measure_on(SeriesMode.FIRST_CLASS_ONLY, samples)
    solved = _solve_rows(targets, has_target & scan_defined.all(), samples,
                         scan, measure_on)
    tie, crossing, c_y, second, has_verdict = (a.tolist() for a in solved)
    rows = []
    for r, c_x in enumerate(grid):
        if not has_verdict[r]:
            row = LineRow(c_x, None, False, None)
        elif tie[r]:
            # both series hit the target everywhere; the tie holds at c_x itself
            row = LineRow(c_x, c_x, True, Preference.TIE)
        elif crossing[r]:
            row = LineRow(c_x, c_y[r], True, Preference.TIE)
        else:
            side = Preference.SECOND if second[r] else Preference.FIRST
            row = LineRow(c_x, None, False, side)
        rows.append(row)
    return DiscriminationLine(kind=kind, class_index=class_index, k=k, p=p,
                              c_lo=c_lo, rows=tuple(rows))


def _solve_rows(targets, defined, samples, scan, measure_on):
    """Per-row arrays ``(tie, crossing, c_y, second, has_verdict)`` of a line.

    With g the scan less a row's target: a tie where |g| <=
    ``TIE_TOLERANCE`` at every scan point; else a crossing at the first sign
    change in scan order, a zero included, bisected unless g is 0 there;
    else g keeps one strict sign, and ``second`` (g > 0 at the first scan
    point) is its side. ``has_verdict`` is ``defined`` less the rows with an
    undefined probe. A pass probes ``_SPECULATIVE_LEVELS`` secant-predicted
    midpoints per row and keeps halvings up to the first undefined, on
    target, off the path or past 60: each kept one probed plain bisection's
    own midpoint.
    """
    g = scan[None, :] - targets[:, None]
    tie = np.abs(g).max(axis=1) <= TIE_TOLERANCE
    # first sign change in scan order, an exact zero included
    change = (g[:, :-1] == 0.0) | (g[:, :-1] * g[:, 1:] <= 0.0)
    crossing = ~tie & change.any(axis=1)
    idx = change.argmax(axis=1)
    g_lo = g[np.arange(len(g)), idx]
    c_y = samples[idx]
    has_verdict = defined.copy()
    active = np.flatnonzero(has_verdict & crossing & (g_lo != 0.0))
    lo, hi = samples[idx[active]], samples[idx[active] + 1]
    g_a, g_b = g_lo[active], g[active, idx[active] + 1]
    left = np.full(active.size, _BISECT_ITERATIONS)
    levels = np.arange(_SPECULATIVE_LEVELS)
    while active.size:
        rows = np.arange(active.size)
        with np.errstate(all="ignore"):  # inf/NaN if g_a = g_b: only compared
            root = lo - g_a * (hi - lo) / (g_b - g_a)
        mids = np.empty((rows.size, levels.size))
        plo, phi = lo, hi
        for j in levels:
            mids[:, j] = mid = 0.5 * (plo + phi)
            rise = mid < root
            plo, phi = np.where(rise, mid, plo), np.where(rise, phi, mid)
        up = mids < root[:, None]
        # a midpoint equal to lo, hi or the one before is a bracket end: its
        # side is that end's (or the scan's exact zero at hi), the bracket
        # cannot move again, and plain bisection ends with c_y there
        flat = mids == np.column_stack([lo, mids[:, :-1]])
        flat |= mids == hi[:, None]
        probe = ~flat & (levels < left[:, None])
        gm, ok = np.zeros(mids.shape), np.zeros(mids.shape, dtype=bool)
        gm[probe], ok[probe] = measure_on(SeriesMode.FIRST_CLASS_ONLY,
                                          mids[probe])
        gm -= targets[active, None]
        # g at lo has the sign of g_lo: a NaN probe moves lo only where g_lo > 0
        same = (gm < 0) == (g_a < 0)[:, None]
        # an unprobed level (flat or past the budget) is not ``ok``
        stop = ~ok | (gm == 0.0) | (same != up) | (levels >= left[:, None] - 1)
        stop[:, -1] = True
        last = stop.argmax(axis=1)
        at = (rows, last)
        hit = flat[at] | ok[at] & (gm[at] == 0.0)
        has_verdict[active[probe[at] & ~ok[at]]] = False
        # new ends: the last kept midpoint on each side, else the old (-2, -1)
        before, now = levels < last[:, None], levels == last[:, None]
        ilo = np.where(before & up | now & same, levels, -2).max(axis=1)
        ihi = np.where(before & ~up | now & ~same, levels, -1).max(axis=1)
        ends = np.column_stack([mids, lo, hi]), np.column_stack([gm, g_a, g_b])
        (lo, hi), (g_a, g_b) = ((e[rows, ilo], e[rows, ihi]) for e in ends)
        left -= last + 1
        alive = ok[at] & ~hit
        done = hit | alive & (left == 0)
        c_y[active[done]] = np.where(hit, mids[at], 0.5 * (lo + hi))[done]
        active, lo, hi, g_a, g_b, left = (
            v[alive & (left > 0)] for v in (active, lo, hi, g_a, g_b, left))
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


@dataclasses.dataclass(frozen=True, eq=False)
class _SeriesPairs:
    """The ``series_pairs`` of one grid: the read-only ``(n, k, k)`` stacks of
    the two series, ``first`` the ALL_CLASSES one. Its pairs are their outer
    product, pair ``i * n + j`` being ``(first[i], second[j])``."""

    first: np.ndarray
    second: np.ndarray

    def __post_init__(self):
        for stack in (self.first, self.second):
            stack.setflags(write=False)

    def __reduce__(self):  # copies and pickles pass __post_init__ too
        return _SeriesPairs, (self.first, self.second)


def _index_pairs(pairs, class_index: int | None,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The distinct matrices of ``pairs`` as one ``(N, k, k)`` stack, and a
    ``(2, n_pairs)`` index of each pair's members in it; a given
    ``class_index`` is checked against k, unless there is no pair.

    A series pair set gives its two stacks as one, first series first,
    indexed as their outer product, with no matrix built.
    Any other iterable is read up to one pair past ``_MAX_PAIRS``; more
    pairs, or a matrix whose k is not the first matrix's, are an error. Its matrices are
    told apart by identity, and the list of pairs keeps them alive while ids
    are taken, so a freed id is never reused.
    """
    if isinstance(pairs, _SeriesPairs):
        n, m = len(pairs.first), len(pairs.second)
        index = np.indices((n, m)).reshape(2, -1) + [[0], [n]]
        cells = np.concatenate([pairs.first, pairs.second])
    else:
        pairs = list(itertools.islice(pairs, _MAX_PAIRS + 1))
        if len(pairs) > _MAX_PAIRS:
            raise InvalidInput(f"a pair set has at most {_MAX_PAIRS} pairs",
                               parameter="pairs")
        slots: dict[int, int] = {}
        matrices = []
        index = np.empty((2, len(pairs)), dtype=np.intp)
        for col, (first, second) in enumerate(pairs):
            for row, m in enumerate((first, second)):
                slot = slots.get(id(m))
                if slot is None:
                    slot = slots[id(m)] = len(matrices)
                    matrices.append(m)
                    if m.k != matrices[0].k:
                        raise InvalidInput(
                            f"pair {col + 1} holds a {m.k}-class matrix, the "
                            f"first matrix has {matrices[0].k} classes",
                            parameter="pairs", value=col + 1)
                index[row, col] = slot
        cells = np.array([m.cells for m in matrices])
    if class_index is not None and len(cells):
        _check_class_index(cells.shape[-1], class_index)
    return cells, index


def _verdicts(kinds, cells: np.ndarray, index: np.ndarray,
              class_index: int | None) -> list:
    """Per-pair verdict of each of ``kinds``, from one ``_evaluate_kinds``
    call on the stack of ``_index_pairs``, and where it is defined on both
    sides: +1 where the first matrix ranks higher, -1 where the second does
    and 0 for a tie. With no pair nothing is checked or evaluated.
    """
    if not len(cells):
        return [(np.zeros(0, np.int8), np.zeros(0, bool))] * len(kinds)
    for kind in kinds:
        _class_specific(kind, class_index if kind.class_specific else None)
    first, second = index
    verdicts = []
    for kind, (values, defined) in zip(kinds, _evaluate_kinds(cells, kinds)):
        if kind.class_specific:
            ix = class_index - 1
            values, defined = values[:, ix], defined[:, ix]
        verdicts.append((_verdict(values[first], values[second]),
                         defined[first] & defined[second]))
    return verdicts


def consistency(kind_a: MeasureKind, kind_b: MeasureKind, pairs,
                class_index: int | None = None) -> ConcordanceResult:
    """Count pairs on which the two measures issue the same verdict.

    ``pairs`` is any iterable of at most ``_MAX_PAIRS`` (first, second)
    ConfusionMatrix tuples of one k, generators included, or a
    ``series_pairs`` result, whose pairs are the outer product of its two
    stacks. Both kinds are evaluated in one pass over the distinct matrices,
    and ``class_index`` is checked against k, also for multiclass kinds.
    Pairs where either measure is undefined on either matrix are excluded
    from the total and reported separately.
    """
    cells, index = _index_pairs(pairs, class_index)
    (va, da), (vb, db) = _verdicts((kind_a, kind_b), cells, index, class_index)
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
    cells, index = _index_pairs(pairs, class_index)
    for kind in kinds:  # checked here: a single kind evaluates nothing
        _class_specific(kind, class_index if kind.class_specific else None)
    if len(kinds) == 1:
        return EquivalencePartition(groups=(tuple(kinds),), pairs_compared=0)

    verdicts = _verdicts(kinds, cells, index, class_index)
    label = list(range(len(kinds)))  # each kind's group: one member's index

    for ia, ib in itertools.combinations(range(len(kinds)), 2):
        (va, da), (vb, db) = verdicts[ia], verdicts[ib]
        both = da & db
        if not both.any():
            raise InsufficientData(
                f"no comparable pairs for {kinds[ia].short_name} vs "
                f"{kinds[ib].short_name}",
                parameter="pairs", value=index.shape[1],
            )
        if label[ia] != label[ib] and (va == vb)[both].all():
            old, new = label[ia], label[ib]
            label = [new if x == old else x for x in label]

    # keyed in order of first appearance, so groups keep that order
    grouped: dict[int, list[MeasureKind]] = {}
    for x, kind in zip(label, kinds):
        grouped.setdefault(x, []).append(kind)
    return EquivalencePartition(groups=tuple(map(tuple, grouped.values())),
                                pairs_compared=index.shape[1])


def series_pairs(k: int, p: float, grid_step: float = 0.01, c_lo: float = 0.0,
                 ) -> _SeriesPairs:
    """Cross product of the two series: every (all-classes, first-class) pair.

    The two series on the grid of a line, ``uniform_grid(grid_step, c_lo)``,
    as read-only ``(n, k, k)`` stacks ``first`` and ``second``; its at most
    ``_MAX_PAIRS`` pairs are their outer product, pair ``i * n + j`` being
    the first series at ``grid[i]`` with the second at ``grid[j]``. It is
    read by ``consistency`` and ``equivalence_classes``, which build no
    matrix from it; it has no items, no ``len`` and no ``+``.
    """
    pi = class_proportions(k, p)
    grid = uniform_grid(grid_step, c_lo)
    if len(grid) ** 2 > _MAX_PAIRS:
        raise InvalidInput(f"a pair set has at most {_MAX_PAIRS} pairs",
                           parameter="pairs", value=len(grid) ** 2)
    return _SeriesPairs(*(series_stack(pi, grid, mode) for mode in SeriesMode))

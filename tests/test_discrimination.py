"""Tests for discrimination lines, concordance, and equivalence grouping."""

import copy
import dataclasses
import functools
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confmeasures import discrimination, measures
from confmeasures import (
    ConfusionMatrix,
    InsufficientData,
    InvalidInput,
    NotComparable,
)
from confmeasures.discrimination import (
    _MAX_PAIRS,
    TIE_TOLERANCE,
    ConcordanceResult,
    LineRow,
    Preference,
    _index_pairs,
    _solve_rows,
    consistency,
    discrimination_line,
    equivalence_classes,
    preference,
    series_pairs,
)
from confmeasures.measures import MeasureKind as K
from confmeasures.measures import evaluate
from confmeasures.series import (
    _MAX_GRID_POINTS,
    SeriesMode,
    class_proportions,
    series_matrix,
    series_stack,
    uniform_grid,
)

from conftest import random_matrix


def random_pairs(seed, n, positive=True):
    rng = np.random.default_rng(seed)
    return [
        (random_matrix(rng, positive=positive),
         random_matrix(rng, positive=positive))
        for _ in range(n)
    ]


class TestPreference:
    def test_case_study_disagreement(self, first_classifier, second_classifier):
        assert (preference(K.OSR, first_classifier, second_classifier)
                == Preference.FIRST)
        assert (preference(K.CSI, first_classifier, second_classifier)
                == Preference.SECOND)

    def test_identical_matrices_tie(self, first_classifier):
        assert (preference(K.OSR, first_classifier, first_classifier)
                == Preference.TIE)

    def test_class_specific_kinds(self, first_classifier, second_classifier):
        got = preference(K.TPR, first_classifier, second_classifier,
                         class_index=2)
        assert got in (Preference.FIRST, Preference.SECOND)

    def test_undefined_measure_not_comparable(self, first_classifier):
        empty_col = ConfusionMatrix([
            [0.5, 0.0, 0.1],
            [0.2, 0.0, 0.0],
            [0.1, 0.0, 0.1],
        ])
        with pytest.raises(NotComparable):
            preference(K.TPR, first_classifier, empty_col, class_index=2)


class TestAccuracyLine:
    """Closed form at k = 3, p = 0: c_y = 3 c_x - 2 on [2/3, 1]."""

    def test_crossings_match_closed_form(self):
        line = discrimination_line(K.OSR, k=3, p=0.0)
        crossings = [r for r in line.rows if r.crossing]
        assert crossings, "expected a crossing branch"
        for row in crossings:
            assert row.c_x >= 2 / 3 - 1e-9
            assert row.c_y == pytest.approx(3 * row.c_x - 2, abs=1e-9)

    def test_below_crossing_range_second_wins(self):
        line = discrimination_line(K.OSR, k=3, p=0.0)
        for row in line.rows:
            if row.c_x < 2 / 3 - 1e-9:
                assert not row.crossing
                assert row.preference == Preference.SECOND

    def test_points_property_mirrors_rows(self):
        line = discrimination_line(K.OSR, k=3, p=0.0, grid_step=0.1)
        assert line.points == [
            (r.c_x, r.c_y) for r in line.rows if r.crossing
        ]
        sided = [r for r in line.rows
                 if not r.crossing and r.preference is not None]
        assert len(line.points) + len(sided) == len(line.rows)


class TestRecallLines:
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_class_one_line_is_identity(self, p):
        line = discrimination_line(K.TPR, k=3, p=p, class_index=1,
                                   grid_step=0.05)
        for row in line.rows:
            assert row.crossing
            assert row.c_y == pytest.approx(row.c_x, abs=1e-9)

    def test_class_two_never_crosses_below_one(self):
        # the second series keeps class 2 perfect, the first erodes it
        line = discrimination_line(K.TPR, k=3, p=0.0, class_index=2,
                                   grid_step=0.05)
        for row in line.rows:
            if row.c_x < 1.0:
                assert not row.crossing
                assert row.preference == Preference.SECOND
            else:
                assert row.crossing
                assert row.c_y == pytest.approx(1.0, abs=1e-12)


class TestPrecisionComplementLine:
    """The class-1 negative-predictive line is imbalance-invariant at k = 3."""

    def closed_form(self, c_x):
        return (3 * c_x - 1) / (1 + c_x)

    def test_matches_closed_form_at_balance(self):
        line = discrimination_line(K.NPV, k=3, p=0.0, class_index=1)
        for row in line.rows:
            if row.c_x > 1 / 3 + 1e-9:
                assert row.crossing
                assert row.c_y == pytest.approx(
                    self.closed_form(row.c_x), abs=1e-6
                )
            elif row.c_x < 1 / 3 - 1e-9:
                assert not row.crossing
                assert row.preference == Preference.SECOND

    def test_same_line_for_every_imbalance(self):
        lines = [
            discrimination_line(K.NPV, k=3, p=p, class_index=1, grid_step=0.05)
            for p in (0.0, 0.5, 1.0)
        ]
        base = lines[0]
        for other in lines[1:]:
            for row_a, row_b in zip(base.rows, other.rows):
                assert row_a.crossing == row_b.crossing
                if row_a.crossing:
                    assert row_b.c_y == pytest.approx(row_a.c_y, abs=1e-7)
                else:
                    assert row_a.preference == row_b.preference


class TestHarmonicMeanLine:
    def test_class_one_balanced_closed_form(self):
        # target c_x meets the second series at c_x / (2 - c_x)
        line = discrimination_line(K.F_MEASURE, k=3, p=0.0, class_index=1)
        for row in line.rows:
            assert row.crossing
            assert row.c_y == pytest.approx(
                row.c_x / (2 - row.c_x), abs=1e-6
            )


class TestSolverSoundness:
    CASES = [
        (K.OSR, None),
        (K.CSI, None),
        (K.COHEN_KAPPA, None),
        (K.F_MEASURE, 1),
        (K.NPV, 1),
        (K.KULCZYNSKI, 2),
    ]

    @pytest.mark.parametrize("kind,class_index", CASES)
    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_solved_points_actually_tie(self, kind, class_index, p):
        pi = class_proportions(3, p)
        line = discrimination_line(kind, k=3, p=p, class_index=class_index,
                                   grid_step=0.05)
        for row in line.rows:
            if not row.crossing:
                continue
            vx = evaluate(
                series_matrix(pi, row.c_x, SeriesMode.ALL_CLASSES),
                kind, class_index,
            ).value
            vy = evaluate(
                series_matrix(pi, row.c_y, SeriesMode.FIRST_CLASS_ONLY),
                kind, class_index,
            ).value
            assert vy == pytest.approx(vx, abs=1e-9)

    def test_class_kind_requires_index(self):
        with pytest.raises(InvalidInput):
            discrimination_line(K.TPR, k=3, p=0.0)

    def test_chance_floor_kind_degenerates_to_undefined_rows(self):
        # the second series is perfect at c_y = 1, where this kind has no
        # value, so every probe range contains an undefined point
        line = discrimination_line(K.GT_INDEX, k=3, p=0.0, class_index=1,
                                   grid_step=0.25)
        for row in line.rows:
            assert not row.crossing
            assert row.preference is None


class TestConsistency:
    def test_transform_related_kinds_always_agree(self):
        pairs = random_pairs(11, 200)
        res = consistency(K.F_MEASURE, K.JCC, pairs, class_index=1)
        assert res.total == 200
        assert res.excluded == 0
        assert res.fraction == 1.0

    def test_affine_related_kinds_always_agree(self):
        pairs = random_pairs(12, 200)
        res = consistency(K.KULCZYNSKI, K.ICSI, pairs, class_index=2)
        assert res.fraction == 1.0

    def test_disagreeing_kinds_detected(self, first_classifier,
                                        second_classifier):
        res = consistency(K.OSR, K.CSI,
                          [(first_classifier, second_classifier)])
        assert res.total == 1
        assert res.concordant == 0
        assert res.fraction == 0.0

    def test_undefined_pairs_are_excluded(self, first_classifier):
        empty_row = ConfusionMatrix([
            [0.0, 0.0, 0.0],
            [0.4, 0.3, 0.0],
            [0.1, 0.1, 0.1],
        ])
        pairs = [
            (first_classifier, first_classifier),
            (first_classifier, empty_row),
        ]
        res = consistency(K.PPV, K.TPR, pairs, class_index=1)
        assert res.total == 1
        assert res.excluded == 1

    def test_empty_total_has_no_fraction(self):
        res = ConcordanceResult(kind_a=K.OSR, kind_b=K.CSI, total=0,
                                concordant=0, excluded=5)
        assert res.fraction is None


class TestEquivalence:
    AGREEMENT_KINDS = [K.OSR, K.COHEN_KAPPA, K.SCOTT_PI, K.MAXWELL_RE, K.CSI]

    def test_balanced_partition(self):
        pairs = series_pairs(k=3, p=0.0)
        part = equivalence_classes(self.AGREEMENT_KINDS, pairs)
        groups = {frozenset(g) for g in part.groups}
        assert groups == {
            frozenset({K.OSR, K.COHEN_KAPPA, K.SCOTT_PI, K.MAXWELL_RE}),
            frozenset({K.CSI}),
        }
        assert part.pairs_compared == 101 * 101

    def test_imbalanced_partition_splits_kappa(self):
        pairs = series_pairs(k=3, p=0.5)
        part = equivalence_classes(self.AGREEMENT_KINDS, pairs)
        groups = {frozenset(g) for g in part.groups}
        assert groups == {
            frozenset({K.OSR, K.SCOTT_PI, K.MAXWELL_RE}),
            frozenset({K.COHEN_KAPPA}),
            frozenset({K.CSI}),
        }

    def test_single_kind_is_its_own_group(self):
        part = equivalence_classes([K.OSR], [])
        assert part.groups == ((K.OSR,),)
        assert part.pairs_compared == 0

    def test_duplicates_are_collapsed(self):
        part = equivalence_classes([K.OSR, K.OSR], [])
        assert part.groups == ((K.OSR,),)

    def test_no_kinds_rejected(self):
        with pytest.raises(InvalidInput):
            equivalence_classes([], [])

    def test_no_comparable_pairs_rejected(self):
        with pytest.raises(InsufficientData):
            equivalence_classes([K.OSR, K.CSI], [])

    def test_no_overlap_after_a_transitive_merge_rejected(self):
        # OSR merges with TPR on the first pair and with TNR on the second,
        # so TPR and TNR are in one group when they are compared, and no
        # pair has both defined
        def matrix(rows):
            return ConfusionMatrix(np.array(rows, dtype=float))

        pairs = [(matrix([[0.6, 0], [0.4, 0]]), matrix([[0.3, 0], [0.7, 0]])),
                 (matrix([[0, 0.2], [0, 0.8]]), matrix([[0, 0.5], [0, 0.5]]))]
        for kind in (K.TPR, K.TNR):
            part = equivalence_classes([K.OSR, kind], pairs, class_index=1)
            assert part.groups == ((K.OSR, kind),)
        kinds = [K.OSR, K.TPR, K.TNR]
        assert brute_partition(kinds, pairs, 1) is None
        with pytest.raises(InsufficientData) as exc:
            equivalence_classes(kinds, pairs, class_index=1)
        assert exc.value.to_dict() == {
            "error": "InsufficientData",
            "message": "no comparable pairs for TPR vs TNR",
            "parameter": "pairs", "value": 2}

    def test_groups_ordered_by_first_appearance(self):
        pairs = series_pairs(k=3, p=0.0, grid_step=0.1)
        part = equivalence_classes([K.CSI, K.OSR, K.COHEN_KAPPA], pairs)
        assert part.groups[0][0] == K.CSI


class TestSeriesPairs:
    def test_cross_product_size(self):
        pairs = series_pairs(k=3, p=0.0, grid_step=0.25)
        assert pairs.first.shape == pairs.second.shape == (5, 3, 3)
        part = equivalence_classes([K.OSR, K.CSI], pairs)
        assert part.pairs_compared == 25

    @pytest.mark.parametrize("c_lo", [-0.5, 1.0])
    def test_c_lo_checked(self, c_lo):
        with pytest.raises(InvalidInput) as exc:
            series_pairs(3, 0.0, grid_step=0.5, c_lo=c_lo)
        assert exc.value.parameter == "c_lo"
        assert exc.value.value == c_lo

    def test_default_grid_step(self):
        for c_lo, n in ((0.0, 101), (0.5, 51)):
            pairs = series_pairs(3, 0.0, c_lo=c_lo)
            assert pairs.first.shape == pairs.second.shape == (n, 3, 3)


def pair_set_error(call):
    """The result of ``call``, or the type, parameter, value and message of
    the error it raises."""
    try:
        return call()
    except (InvalidInput, InsufficientData) as exc:
        return type(exc), exc.parameter, exc.value, str(exc)


def indexed_cells(pairs, n_pairs):
    """The cells of the (first, second) matrices that ``_index_pairs``
    resolves each of the ``n_pairs`` pairs to, through its stack and
    index."""
    cells, index = _index_pairs(pairs, None)
    assert index.shape == (2, n_pairs)
    return [(cells[a], cells[b]) for a, b in index.T.tolist()]


def fresh_series_pairs(k, p, grid):
    """Series pairs built on the fly; each pair is freed once consumed."""
    pi = class_proportions(k, p)
    for c_x in grid:
        for c_y in grid:
            yield (series_matrix(pi, c_x, SeriesMode.ALL_CLASSES),
                   series_matrix(pi, c_y, SeriesMode.FIRST_CLASS_ONLY))


# (grid_step, c_lo) of a grid of 2 to 5 points: a share of [c_lo, 1] as step
STEPS = st.tuples(st.sampled_from([1.0, 0.5, 1 / 3, 0.25]),
                  st.sampled_from([0.0, 0.1, 0.5, 0.7])).map(
    lambda share_lo: (share_lo[0] * (1 - share_lo[1]), share_lo[1]))


class TestSeriesPairSet:
    """``series_pairs`` returns two stacks that partitions index as their
    outer product; the result must equal that of the same pairs as a list
    or a generator of matrices, errors included."""

    @given(st.integers(min_value=2, max_value=5),
           st.floats(min_value=0.0, max_value=1.0),
           STEPS,
           st.lists(st.sampled_from(list(K)), min_size=1, max_size=4),
           st.one_of(st.none(), st.integers(min_value=0, max_value=6)))
    @settings(max_examples=120, deadline=None)
    def test_same_as_list_and_iterator(self, k, p, grid, kinds, class_index):
        def outcomes(pairs):
            found = [pair_set_error(
                lambda: equivalence_classes(kinds, pairs(), class_index))]
            for kind_a, kind_b in itertools.combinations(kinds, 2):
                found.append(pair_set_error(lambda: consistency(
                    kind_a, kind_b, pairs(), class_index)))
            return found

        pairs = series_pairs(k, p, *grid)
        fast = outcomes(lambda: pairs)
        listed = list(fresh_series_pairs(k, p, uniform_grid(*grid)))
        assert outcomes(lambda: listed) == fast
        assert outcomes(
            lambda: fresh_series_pairs(k, p, uniform_grid(*grid))) == fast

    @given(st.integers(min_value=2, max_value=5),
           st.floats(min_value=0.0, max_value=1.0),
           STEPS)
    @settings(max_examples=60, deadline=None)
    def test_index_resolves_every_pair(self, k, p, grid):
        pi, points = class_proportions(k, p), uniform_grid(*grid)
        n = len(points)
        xs, ys = (series_stack(pi, points, mode) for mode in SeriesMode)
        got = indexed_cells(series_pairs(k, p, *grid), n * n)
        for (i, j), (a, b) in zip(itertools.product(range(n), repeat=2), got):
            assert a.tobytes() == xs[i].tobytes()
            assert b.tobytes() == ys[j].tobytes()

    def test_cannot_be_changed(self):
        pairs = series_pairs(3, 0.0, grid_step=0.5)
        want = consistency(K.OSR, K.COHEN_KAPPA, pairs)
        for stack in (pairs.first, pairs.second):
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 1.0
        for field in ("first", "second"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(pairs, field, pairs.second)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(pairs, field)
        assert consistency(K.OSR, K.COHEN_KAPPA, pairs) == want

    def test_copies_stay_read_only(self):
        pairs = series_pairs(3, 0.5, grid_step=0.25)
        for twin in (copy.copy(pairs), copy.deepcopy(pairs),
                     pickle.loads(pickle.dumps(pairs))):
            for stack in (twin.first, twin.second):
                assert not stack.flags.writeable
                with pytest.raises(ValueError):
                    stack[0, 0, 0] = 1.0

    def test_copies_keep_the_outer_product(self):
        pairs = series_pairs(3, 0.5, grid_step=0.25)
        want = consistency(K.OSR, K.COHEN_KAPPA, pairs)
        for twin in (copy.copy(pairs), copy.deepcopy(pairs),
                     pickle.loads(pickle.dumps(pairs))):
            assert type(twin) is type(pairs)
            assert consistency(K.OSR, K.COHEN_KAPPA, twin) == want

    @pytest.mark.parametrize("read", [
        len, iter, lambda pairs: pairs[0], lambda pairs: pairs + pairs],
        ids=["len", "iter", "getitem", "add"])
    def test_no_item_view(self, read):
        pairs = series_pairs(3, 0.0, grid_step=0.5)
        assert [f.name for f in dataclasses.fields(pairs)] == [
            "first", "second"]
        with pytest.raises(TypeError):
            read(pairs)

    def test_empty_pair_set(self):
        with pytest.raises(InsufficientData) as exc:
            equivalence_classes([K.OSR, K.CSI], [])
        assert exc.value.value == 0
        res = consistency(K.OSR, K.CSI, [])
        assert (res.total, res.concordant, res.excluded) == (0, 0, 0)


class TestSeriesStacksOnly:
    """A partition reads the two stacks of ``series_pairs`` and builds no
    ``ConfusionMatrix``; each pair it reads equals the ``series_matrix`` pair
    bit for bit."""

    def test_partitions_build_no_member(self, monkeypatch):
        built = []
        post_init = ConfusionMatrix.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(ConfusionMatrix, "__post_init__", counted)
        pairs = series_pairs(3, 0.5, grid_step=0.25)
        equivalence_classes([K.OSR, K.COHEN_KAPPA, K.CSI], pairs)
        consistency(K.OSR, K.CSI, pairs)
        equivalence_classes([K.TPR, K.PPV], pairs, class_index=2)
        assert built == []
        # the count sees a matrix built the usual way
        series_matrix(class_proportions(3, 0.5), 0.5, SeriesMode.ALL_CLASSES)
        assert len(built) == 1

    @pytest.mark.parametrize("k, p, step, c_lo", [
        (2, 0.0, 0.5, 0.0), (3, 0.5, 0.1, 0.0), (4, 1.0, 0.05, 0.5),
        (5, 0.3, 0.3, 0.1)])
    def test_members_equal_the_stack_rows(self, k, p, step, c_lo):
        pi, grid = class_proportions(k, p), uniform_grid(step, c_lo)
        n = len(grid)
        got = indexed_cells(series_pairs(k, p, grid_step=step, c_lo=c_lo),
                            n * n)
        for (i, j), (a, b) in zip(itertools.product(range(n), repeat=2), got):
            first = series_matrix(pi, grid[i], SeriesMode.ALL_CLASSES)
            second = series_matrix(pi, grid[j], SeriesMode.FIRST_CLASS_ONLY)
            assert a.tobytes() == first.cells.tobytes()
            assert b.tobytes() == second.cells.tobytes()


class TestUnusedClassIndex:
    """A class index is checked against k also when no kind is
    class-specific."""

    @pytest.mark.parametrize("class_index", [0, 4, 7, -1, 1.0, True])
    def test_out_of_range_rejected(self, class_index):
        pairs = series_pairs(3, 0.0, grid_step=0.1)
        for call in (
                lambda: consistency(K.OSR, K.COHEN_KAPPA, pairs,
                                    class_index=class_index),
                lambda: equivalence_classes([K.OSR, K.COHEN_KAPPA], pairs,
                                            class_index=class_index),
                lambda: equivalence_classes([K.OSR], pairs,
                                            class_index=class_index),
                lambda: consistency(
                    K.OSR, K.CSI,
                    list(fresh_series_pairs(3, 0.0, uniform_grid(0.1))),
                    class_index=class_index)):
            with pytest.raises(InvalidInput) as exc:
                call()
            assert exc.value.parameter == "class_index"
            assert exc.value.value == class_index

    def test_in_range_accepted(self):
        pairs = series_pairs(3, 0.0, grid_step=0.1)
        for class_index in (1, 2, 3):
            res = consistency(K.OSR, K.COHEN_KAPPA, pairs,
                              class_index=class_index)
            assert res == consistency(K.OSR, K.COHEN_KAPPA, pairs)


class TestMissingClassIndex:
    """A class-specific kind needs a class index, also as the only kind."""

    @pytest.mark.parametrize("kinds", [[K.TPR], [K.GT_INDEX], [K.KULCZYNSKI],
                                       [K.OSR, K.PPV]])
    def test_rejected(self, kinds):
        with pytest.raises(InvalidInput) as exc:
            equivalence_classes(kinds, series_pairs(3, 0.0, grid_step=0.5))
        short = next(kind for kind in kinds if kind.class_specific).short_name
        assert exc.value.to_dict() == {
            "error": "InvalidInput", "message": f"{short} needs a class index",
            "parameter": "class_index", "value": None}

    def test_one_kind_with_class_index(self):
        part = equivalence_classes([K.TPR], series_pairs(3, 0.0, grid_step=0.5),
                                   class_index=2)
        assert part.groups == ((K.TPR,),)
        assert part.pairs_compared == 0


class TestPairsFromGenerator:
    """Results must not depend on object identity: a generator frees each
    pair's matrices, and their ids go to the next pair's matrices."""

    GRID = np.linspace(0.0, 1.0, 30)

    def test_consistency_same_from_list_and_generator(self):
        from_list = consistency(K.OSR, K.COHEN_KAPPA,
                                list(fresh_series_pairs(3, 0.5, self.GRID)))
        from_gen = consistency(K.OSR, K.COHEN_KAPPA,
                               fresh_series_pairs(3, 0.5, self.GRID))
        for res in (from_list, from_gen):
            assert (res.total, res.concordant, res.excluded) == (900, 888, 0)

    def test_equivalence_classes_from_generator(self):
        part = equivalence_classes([K.OSR, K.COHEN_KAPPA],
                                   fresh_series_pairs(3, 0.5, self.GRID))
        assert part.groups == ((K.OSR,), (K.COHEN_KAPPA,))
        assert part.pairs_compared == 900


def brute_consistency(kind_a, kind_b, pairs, class_index):
    """(total, concordant, excluded) by evaluating every pair afresh."""
    def value(m, kind):
        ci = class_index if kind.class_specific else None
        return evaluate(m, kind, ci).value

    def verdict(x, y):
        return (x > y + TIE_TOLERANCE) - (y > x + TIE_TOLERANCE)

    total = concordant = excluded = 0
    for first, second in pairs:
        vals = [value(first, kind_a), value(second, kind_a),
                value(first, kind_b), value(second, kind_b)]
        if any(v is None for v in vals):
            excluded += 1
            continue
        total += 1
        concordant += verdict(*vals[:2]) == verdict(*vals[2:])
    return total, concordant, excluded


def brute_partition(kinds, pairs, class_index):
    """Groups in first-appearance order, or None for no comparable pairs."""
    groups = [[kind] for kind in kinds]
    for kind_a, kind_b in itertools.combinations(kinds, 2):
        total, concordant, _ = brute_consistency(kind_a, kind_b, pairs,
                                                 class_index)
        if total == 0:
            return None
        if concordant == total:
            ga = next(g for g in groups if kind_a in g)
            gb = next(g for g in groups if kind_b in g)
            if ga is not gb:
                groups.remove(gb)
                ga.extend(gb)
    ordered = [sorted(g, key=kinds.index) for g in groups]
    ordered.sort(key=lambda g: kinds.index(g[0]))
    return tuple(tuple(g) for g in ordered)


# small integer counts make ties and equal values across matrices common
count_cells = st.lists(st.integers(min_value=0, max_value=3),
                       min_size=9, max_size=9)


@st.composite
def pair_lists(draw):
    """Pairs over a small pool: shared objects, equal-cell copies, and
    matrices whose first row is empty (PPV of class 1 undefined)."""
    pool = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        counts = np.array(draw(count_cells), dtype=float).reshape(3, 3)
        if draw(st.booleans()):
            counts[0] = 0.0
        if counts.sum() == 0:
            counts[1, 1] = 1.0
        m = ConfusionMatrix(counts / counts.sum())
        pool.append(m)
        if draw(st.booleans()):
            pool.append(ConfusionMatrix(np.array(m.cells)))
    slot = st.integers(min_value=0, max_value=len(pool) - 1)
    index = draw(st.lists(st.tuples(slot, slot), max_size=8))
    return [(pool[a], pool[b]) for a, b in index]


PROPERTY_KINDS = [K.OSR, K.COHEN_KAPPA, K.CSI, K.PPV, K.TPR, K.F_MEASURE,
                  K.JCC, K.NPV]


class TestAgainstPerPairLoop:
    @given(pair_lists(), st.sampled_from(PROPERTY_KINDS),
           st.sampled_from(PROPERTY_KINDS), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_consistency(self, pairs, kind_a, kind_b, as_generator):
        res = consistency(kind_a, kind_b,
                          iter(pairs) if as_generator else pairs,
                          class_index=1)
        assert ((res.total, res.concordant, res.excluded)
                == brute_consistency(kind_a, kind_b, pairs, 1))

    @given(pair_lists(),
           st.lists(st.sampled_from(PROPERTY_KINDS), min_size=2, max_size=5,
                    unique=True),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_equivalence_classes(self, pairs, kinds, as_generator):
        expected = brute_partition(kinds, pairs, 1)
        source = iter(pairs) if as_generator else pairs
        if expected is None:
            with pytest.raises(InsufficientData):
                equivalence_classes(kinds, source, class_index=1)
            return
        part = equivalence_classes(kinds, source, class_index=1)
        assert part.groups == expected
        assert part.pairs_compared == len(pairs)


class TestOnePairSetOneK:
    """A caller-given pair set holds matrices of one k."""

    def test_mixed_k_rejected(self):
        pairs = [*fresh_series_pairs(3, 0.0, uniform_grid(0.5)),
                 *fresh_series_pairs(4, 0.0, uniform_grid(0.5))]
        for call in (lambda: consistency(K.OSR, K.CSI, pairs),
                     lambda: consistency(K.TPR, K.PPV, pairs, class_index=4),
                     lambda: equivalence_classes([K.OSR], iter(pairs))):
            with pytest.raises(InvalidInput) as exc:
                call()
            # the first pair holding a 4-class matrix is the tenth
            assert str(exc.value) == ("pair 10 holds a 4-class matrix, the "
                                      "first matrix has 3 classes")
            assert exc.value.parameter == "pairs"
            assert exc.value.value == 10

    def test_k_of_either_member_is_checked(self):
        a, b = (series_matrix(class_proportions(k, 0.0), 0.5,
                              SeriesMode.ALL_CLASSES) for k in (3, 4))
        for pairs, at in (([(a, a), (a, b)], 2), ([(a, b)], 1),
                          ([(b, b), (b, a)], 2)):
            with pytest.raises(InvalidInput) as exc:
                consistency(K.OSR, K.CSI, pairs)
            assert exc.value.value == at


class TestOnePassPerPairSet:
    """A partition evaluates all its kinds in one pass over its pair set:
    the one-vs-rest counts are taken once, and not at all when no kind
    needs them."""

    @staticmethod
    def count_counts(monkeypatch):
        calls = []
        counts = measures._counts
        monkeypatch.setattr(measures, "_counts",
                            lambda cells: calls.append(len(cells))
                            or counts(cells))
        return calls

    def test_one_counts_call_per_pair_set(self, monkeypatch):
        calls = self.count_counts(monkeypatch)
        pairs = series_pairs(3, 0.5, grid_step=0.1)
        kinds = [K.TPR, K.TNR, K.PPV, K.NPV, K.F_MEASURE, K.JCC, K.ICSI,
                 K.KULCZYNSKI, K.CSI, K.OSR]
        equivalence_classes(kinds[:1], pairs, class_index=2)
        assert calls == []  # a single kind evaluates nothing
        equivalence_classes(kinds, pairs, class_index=2)
        assert calls == [2 * 11]
        consistency(K.PPV, K.CSI, pairs, class_index=1)
        assert calls == [2 * 11] * 2
        listed = random_pairs(3, 6)
        equivalence_classes(kinds, listed, class_index=1)
        assert calls == [2 * 11] * 2 + [12]

    def test_no_counts_without_a_ratio_kind(self, monkeypatch):
        calls = self.count_counts(monkeypatch)
        pairs = series_pairs(3, 0.5, grid_step=0.1)
        equivalence_classes([K.OSR, K.COHEN_KAPPA, K.SCOTT_PI, K.MAXWELL_RE],
                            pairs)
        discrimination_line(K.OSR, 3, 0.5, grid_step=0.1)
        assert calls == []


def per_row_line(kind, k, p, class_index, grid, c_lo):
    """The rows of a line solved one row and one matrix at a time with the
    scalar ``evaluate``: a 32-point sign scan per row, then bisection of the
    first sign change."""
    pi = class_proportions(k, p)

    def measure_on(mode, c):
        return evaluate(series_matrix(pi, c, mode), kind, class_index).value

    def bisect(g, lo, hi, g_lo):
        for _ in range(60):
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

    def solve(c_x, target):
        def g(c_y):
            v = measure_on(SeriesMode.FIRST_CLASS_ONLY, c_y)
            return None if v is None else v - target

        samples = np.linspace(c_lo, 1.0, 32)
        values = []
        for s in samples:
            gv = g(float(s))
            if gv is None:
                return LineRow(c_x, None, False, None)
            values.append(gv)
        values = np.asarray(values)
        if np.abs(values).max() <= TIE_TOLERANCE:
            return LineRow(c_x, min(max(c_x, c_lo), 1.0), True, Preference.TIE)
        if values.min() > TIE_TOLERANCE:
            return LineRow(c_x, None, False, Preference.SECOND)
        if values.max() < -TIE_TOLERANCE:
            return LineRow(c_x, None, False, Preference.FIRST)
        for idx in range(len(samples) - 1):
            if values[idx] == 0.0:
                return LineRow(c_x, float(samples[idx]), True, Preference.TIE)
            if values[idx] * values[idx + 1] <= 0.0:
                root = bisect(g, float(samples[idx]), float(samples[idx + 1]),
                              values[idx])
                if root is None:
                    return LineRow(c_x, None, False, None)
                return LineRow(c_x, root, True, Preference.TIE)
        side = Preference.SECOND if values.mean() > 0 else Preference.FIRST
        return LineRow(c_x, None, False, side)

    rows = []
    for c_x in grid:
        target = measure_on(SeriesMode.ALL_CLASSES, c_x)
        rows.append(LineRow(c_x, None, False, None) if target is None
                    else solve(c_x, target))
    return rows


class TestAgainstPerRowSolver:
    CASES = [(K.OSR, None), (K.COHEN_KAPPA, None), (K.TPR, 1), (K.TPR, 2),
             (K.PPV, 1), (K.PPV, 2), (K.F_MEASURE, 1), (K.F_MEASURE, 2),
             (K.TNR, 1), (K.TNR, 2), (K.NPV, 1), (K.NPV, 2), (K.FPR, 1),
             (K.FPR, 2), (K.JCC, 1), (K.JCC, 2), (K.ICSI, 1),
             (K.ICSI, 2), (K.KULCZYNSKI, 1), (K.KULCZYNSKI, 2), (K.CSI, None),
             (K.SCOTT_PI, None), (K.MAXWELL_RE, None)]

    @staticmethod
    def assert_same_rows(line, expected):
        assert len(line.rows) == len(expected)
        for got, want in zip(line.rows, expected):
            assert got == want
            assert type(got.c_y) is type(want.c_y)

    @pytest.mark.parametrize("kind,class_index", CASES)
    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_paper_grid(self, kind, class_index, k, p):
        line = discrimination_line(kind, k=k, p=p, class_index=class_index,
                                   grid_step=0.05)
        self.assert_same_rows(line, per_row_line(
            kind, k, p, class_index, uniform_grid(0.05), 0.0))

    @pytest.mark.parametrize("kind,class_index", CASES)
    def test_restricted_range(self, kind, class_index):
        # PPV of class 1 is undefined only at c_y = 0, below this range
        line = discrimination_line(kind, k=3, p=0.5, class_index=class_index,
                                   grid_step=0.05, c_lo=0.6)
        self.assert_same_rows(line, per_row_line(
            kind, 3, 0.5, class_index, uniform_grid(0.05, 0.6), 0.6))

    @pytest.mark.parametrize("kind,class_index", CASES)
    @pytest.mark.parametrize("step,c_lo", [(1 / 3, 0.0), (0.125, 0.5)])
    def test_odd_grid_steps(self, kind, class_index, step, c_lo):
        line = discrimination_line(kind, k=4, p=0.25, class_index=class_index,
                                   grid_step=step, c_lo=c_lo)
        self.assert_same_rows(line, per_row_line(
            kind, 4, 0.25, class_index, uniform_grid(step, c_lo), c_lo))

    def test_argument_errors(self):
        with pytest.raises(InvalidInput) as exc:
            discrimination_line(K.TPR, k=3, p=0.0, class_index=4)
        assert exc.value.parameter == "class_index"
        with pytest.raises(InvalidInput) as exc:
            discrimination_line(K.OSR, k=3, p=0.0, class_index=1)
        assert exc.value.parameter == "class_index"

    @pytest.mark.parametrize("c_lo", [-0.5, 1.0])
    def test_c_lo_checked(self, c_lo):
        with pytest.raises(InvalidInput) as exc:
            discrimination_line(K.OSR, k=3, p=0.0, grid_step=0.5, c_lo=c_lo)
        assert exc.value.parameter == "c_lo"
        assert exc.value.value == c_lo

    def test_default_grid_step(self):
        rows = discrimination_line(K.OSR, 3, 0.0).rows
        assert [r.c_x for r in rows] == list(uniform_grid(0.01))


class TestSolveRows:
    """The array solver of a line on a fake measure, the identity, which is
    undefined above 0.74; every row's target and scan are defined."""

    @staticmethod
    def solve(targets, samples):
        def measure_on(mode, c):
            c = np.asarray(c, dtype=float)
            return c.copy(), c <= 0.74

        targets, samples = np.array(targets), np.array(samples)
        return _solve_rows(targets, np.ones(targets.size, dtype=bool),
                           samples, samples.copy(), measure_on)

    def test_rows_retire_independently(self):
        # first sign changes in [0, 0.5], [0.5, 1] and [0, 0.5]
        tie, crossing, c_y, _, has_verdict = self.solve(
            [0.3, 0.7, 0.25], [0.0, 0.5, 1.0])
        assert not tie.any() and crossing.all()
        assert c_y[0] == pytest.approx(0.3, abs=1e-15)
        assert has_verdict.tolist() == [True, False, True]  # probe 0.75
        assert c_y[2] == 0.25  # its first probe hits the target exactly

    def test_positive_within_tolerance_prefers_second(self):
        # g = 1e-13 at the first scan point: not a tie, and no sign change
        tie, crossing, _, second, has_verdict = self.solve(
            [0.25 - 1e-13], [0.25, 0.5, 0.7])
        assert not tie[0] and not crossing[0]
        assert second[0] and has_verdict[0]

    def test_negative_within_tolerance_prefers_first(self):
        tie, crossing, _, second, has_verdict = self.solve(
            [0.7 + 1e-13], [0.25, 0.5, 0.7])
        assert not tie[0] and not crossing[0]
        assert not second[0] and has_verdict[0]

    def test_within_tolerance_everywhere_ties(self):
        # g changes sign, but a tie is decided before a crossing
        tie, crossing, _, _, has_verdict = self.solve(
            [0.5], [0.5 - 5e-13, 0.5 + 1e-13, 0.5 + 5e-13])
        assert tie[0] and not crossing[0] and has_verdict[0]


# the budget of the reference solver below
_BISECT_ITERATIONS = 60


def plain_solve_rows(targets, defined, samples, scan, measure_on, tie_tol):
    """The line solver before speculation, verbatim: one stacked probe per
    halving, 60 halvings per crossing row."""
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



def fake_measure(f, undefined=()):
    """A ``measure_on`` of the value ``f(c)``, undefined on the open bands
    ``undefined``; ``probes`` keeps the points of each call."""

    def measure_on(mode, c):
        c = np.asarray(c, dtype=float)
        measure_on.probes.append(c)
        ok = np.ones(c.shape, dtype=bool)
        for a, b in undefined:
            ok &= ~((a < c) & (c < b))
        return f(c), ok

    measure_on.probes = []
    return measure_on


def solve_both(f, targets, samples, undefined=()):
    """``_solve_rows`` and the plain loop on one fake measure; the five
    outputs of the first, which must equal the plain loop's bit for bit,
    and the points of each stacked probe it made."""
    targets, samples = np.asarray(targets, dtype=float), np.asarray(samples)
    outputs = []
    for solve in (_solve_rows, functools.partial(plain_solve_rows,
                                                 tie_tol=TIE_TOLERANCE)):
        measure_on = fake_measure(f, undefined)
        scan, scan_ok = measure_on(SeriesMode.FIRST_CLASS_ONLY, samples)
        measure_on.probes.clear()
        outputs.append((solve(targets, np.full(targets.size, scan_ok.all()),
                              samples, scan, measure_on),
                        measure_on.probes))
    (got, probes), (want, _) = outputs
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return got, probes


class TestAgainstPlainLoop:
    """The speculative solver against the plain loop it replaces."""

    def test_discarded_undefined_probe_keeps_the_verdict(self):
        # sqrt crosses 0.6 at 0.36; the secant through (0, -0.6) and
        # (1, 0.4) predicts 0.6, so level 0 already leaves the predicted
        # side and only discarded probes visit (0.7, 0.8)
        (_, _, c_y, _, has_verdict), probes = solve_both(
            np.sqrt, [0.6], [0.0, 1.0], undefined=[(0.7, 0.8)])
        assert ((0.7 < probes[0]) & (probes[0] < 0.8)).any()
        assert has_verdict[0]
        assert c_y[0] == pytest.approx(0.36, abs=1e-15)

    def test_undefined_probe_of_the_plain_loop_is_na(self):
        (_, _, _, _, has_verdict), _ = solve_both(
            np.sqrt, [0.6, 0.3], [0.0, 1.0], undefined=[(0.35, 0.37)])
        assert has_verdict.tolist() == [False, True]

    @pytest.mark.parametrize("f", [lambda c: c ** 9, lambda c: np.exp(30 * c),
                                   lambda c: np.floor(c * 7) + c / 100])
    def test_mispredicting_measures(self, f):
        samples = np.linspace(0.0, 1.0, 5)
        targets = np.linspace(f(samples[0]), f(samples[-1]), 23)[1:-1]
        (_, crossing, _, _, _), probes = solve_both(f, targets, samples)
        assert crossing.all()
        # 60 halvings on the predicted path would take 8 stacked probes
        assert len(probes) > 8

    def test_adjacent_floats_without_a_zero(self):
        # a step at 0.3: g is -1 or +1, never 0, so both solvers close the
        # bracket on the two floats around the step
        (_, crossing, c_y, _, has_verdict), _ = solve_both(
            lambda c: np.where(c < 0.3, -1.0, 1.0), [0.0], [0.0, 0.5, 1.0])
        assert crossing[0] and has_verdict[0]
        assert c_y[0] in (0.3, np.nextafter(0.3, 0.0))

    def test_budget_ends_before_adjacency(self):
        # 60 halvings of [0, 1/31] leave a bracket far wider than the
        # spacing of floats at 1e-12
        samples = np.linspace(0.0, 1.0, 32)
        (_, crossing, c_y, _, _), _ = solve_both(lambda c: c.copy(),
                                                 [1e-12], samples)
        assert crossing[0]
        assert 0 < abs(c_y[0] - 1e-12) <= samples[1] / 2 ** 60

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 32), st.lists(st.floats(-0.5, 1.5), min_size=1,
                                        max_size=20),
           st.sampled_from(["curved", "step", "wave"]),
           st.lists(st.tuples(st.floats(0, 1), st.floats(0, 0.05)),
                    max_size=2))
    def test_random_measures(self, n, targets, shape, bands):
        f = {"curved": lambda c: c ** 5,
             "step": lambda c: np.floor(c * 5) / 5 + c / 50,
             "wave": lambda c: c + 0.3 * np.sin(12 * c)}[shape]
        solve_both(f, targets, np.linspace(0.0, 1.0, n),
                   undefined=[(a, a + w) for a, w in bands])

    @pytest.mark.parametrize("kind,class_index", [
        (K.OSR, None), (K.COHEN_KAPPA, None), (K.TPR, 2), (K.PPV, 2),
        (K.F_MEASURE, 1), (K.TNR, 2)])
    def test_pass_spanning_chunks(self, kind, class_index, monkeypatch):
        # seven members per chunk: a pass of 8 levels spans many chunks
        monkeypatch.setattr(discrimination, "_STACK_CELLS", 7 * 9)
        line = discrimination_line(kind, k=3, p=0.5, class_index=class_index,
                                   grid_step=0.05)
        TestAgainstPerRowSolver.assert_same_rows(line, per_row_line(
            kind, 3, 0.5, class_index, uniform_grid(0.05), 0.0))

    # the paper's figure lines that have rows at k = 3
    FIGURE_LINES = [(K.TPR, 1), (K.TNR, 1), (K.NPV, 1), (K.F_MEASURE, 1),
                    (K.JCC, 1), (K.TPR, 2), (K.TNR, 2), (K.PPV, 2), (K.NPV, 2),
                    (K.OSR, None), (K.COHEN_KAPPA, None), (K.SCOTT_PI, None),
                    (K.MAXWELL_RE, None)]

    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_few_probes_per_line(self, p, monkeypatch):
        members = []
        stack = discrimination.series_stack
        monkeypatch.setattr(discrimination, "series_stack",
                            lambda pi, c, mode: members.append(len(c))
                            or stack(pi, c, mode))
        for kind, class_index in self.FIGURE_LINES:
            discrimination_line(kind, k=3, p=p, class_index=class_index,
                                grid_step=0.01)
        # series_stack calls, the targets and the scan included; one
        # halving per probe took 47.5 calls and 2,428 members a line
        n = len(self.FIGURE_LINES)
        assert len(members) <= 12 * n
        assert sum(members) <= 2_700 * n


def fail_on_build(monkeypatch):
    """Series members built after this fail the test."""
    def build(*args):
        raise AssertionError("a series member was built")

    monkeypatch.setattr(discrimination, "series_stack", build)


class TestWorkCeilings:
    def test_line_step_one_point_over(self, monkeypatch):
        fail_on_build(monkeypatch)
        with pytest.raises(InvalidInput) as exc:
            discrimination_line(K.OSR, 3, 0.5,
                                grid_step=1 / _MAX_GRID_POINTS)
        assert exc.value.parameter == "step"

    def test_pair_set_just_over(self, monkeypatch):
        n = math.isqrt(_MAX_PAIRS) + 1  # n * n pairs, just over
        fail_on_build(monkeypatch)
        with pytest.raises(InvalidInput) as exc:
            series_pairs(3, 0.5, grid_step=1 / (n - 1))
        assert exc.value.parameter == "pairs"
        assert exc.value.value == n * n > _MAX_PAIRS

    def test_pair_ceiling_itself_is_accepted(self, monkeypatch):
        monkeypatch.setattr(discrimination, "_MAX_PAIRS", 16)
        pairs = series_pairs(3, 0.5, grid_step=1 / 3)
        assert pairs.first.shape == pairs.second.shape == (4, 3, 3)
        assert equivalence_classes([K.OSR, K.CSI], pairs).pairs_compared == 16
        with pytest.raises(InvalidInput):
            series_pairs(3, 0.5, grid_step=0.25)

    def test_caller_pair_set_over_the_ceiling(self, monkeypatch):
        monkeypatch.setattr(discrimination, "_MAX_PAIRS", 16)
        pairs = list(fresh_series_pairs(3, 0.5, uniform_grid(1 / 3)))
        res = consistency(K.OSR, K.CSI, pairs)
        assert res.total + res.excluded == 16

        def generated():
            yield from itertools.chain(pairs, pairs[:1])
            raise AssertionError("read past the ceiling")

        for source in (lambda: pairs + [pairs[0]], generated):
            for call in (
                    lambda: consistency(K.OSR, K.CSI, source()),
                    lambda: equivalence_classes([K.OSR, K.CSI], source()),
                    lambda: equivalence_classes([K.OSR], source())):
                with pytest.raises(InvalidInput) as exc:
                    call()
                assert str(exc.value) == "a pair set has at most 16 pairs"
                assert exc.value.parameter == "pairs"

    def test_step_0001_partition_is_within_the_ceiling(self):
        assert len(uniform_grid(0.001)) ** 2 <= _MAX_PAIRS

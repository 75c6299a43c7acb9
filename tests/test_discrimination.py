"""Tests for discrimination lines, concordance, and equivalence grouping."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confmeasures import (
    ConfusionMatrix,
    InsufficientData,
    InvalidInput,
    NotComparable,
)
from confmeasures.discrimination import (
    TIE_TOLERANCE,
    ConcordanceResult,
    Preference,
    consistency,
    discrimination_line,
    equivalence_classes,
    preference,
    series_pairs,
)
from confmeasures.measures import MeasureKind as K
from confmeasures.measures import evaluate
from confmeasures.series import SeriesMode, class_proportions, series_matrix

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

    def test_tolerance_widens_ties(self, first_classifier, second_classifier):
        strict = preference(K.OSR, first_classifier, second_classifier)
        assert strict != Preference.TIE
        loose = preference(K.OSR, first_classifier, second_classifier,
                           tie_tolerance=1.0)
        assert loose == Preference.TIE

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
        covered = len(line.points) + len(line.no_crossing)
        assert covered == len(line.rows)


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

    def test_groups_ordered_by_first_appearance(self):
        pairs = series_pairs(k=3, p=0.0, grid_step=0.1)
        part = equivalence_classes([K.CSI, K.OSR, K.COHEN_KAPPA], pairs)
        assert part.groups[0][0] == K.CSI


class TestSeriesPairs:
    def test_cross_product_size(self):
        pairs = series_pairs(k=3, p=0.0, grid_step=0.25)
        assert len(pairs) == 25
        for first, second in pairs:
            assert first.k == 3
            assert second.k == 3

    def test_respects_explicit_grid(self):
        pairs = series_pairs(k=4, p=1.0, grid=(0.5, 1.0))
        assert len(pairs) == 4


def fresh_series_pairs(k, p, grid):
    """Series pairs built on the fly; each pair is freed once consumed."""
    pi = class_proportions(k, p)
    for c_x in grid:
        for c_y in grid:
            yield (series_matrix(pi, c_x, SeriesMode.ALL_CLASSES),
                   series_matrix(pi, c_y, SeriesMode.FIRST_CLASS_ONLY))


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

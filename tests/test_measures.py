"""Measure catalog: frozen case-study values, identities, ranges, reports."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confmeasures import (
    ConfusionMatrix,
    DegenerateChance,
    InvalidInput,
    MeasureKind,
    class_measure,
    evaluate,
    evaluate_stack,
    from_counts,
    overall_measure,
    parse_kind,
    report,
    round_half_up,
    value_range,
)
from confmeasures import gt
from confmeasures.measures import _evaluate_kinds
from confmeasures.series import SeriesMode, class_proportions, series_stack
from conftest import random_matrix, random_matrix_with_columns

K = MeasureKind

# Printed 2-decimal reference values for the first case-study classifier.
FIRST_EXPECTED_PER_CLASS = {
    K.TPR: (0.91, 0.56, 0.91),
    K.TNR: (0.79, 0.95, 0.94),
    K.PPV: (0.68, 0.86, 0.88),
    K.NPV: (0.95, 0.81, 0.95),
    K.F_MEASURE: (0.78, 0.68, 0.90),
    K.JCC: (0.64, 0.51, 0.81),
    K.ICSI: (0.59, 0.42, 0.79),
}
FIRST_EXPECTED_MULTI = {K.OSR: 0.79, K.CSI: 0.60, K.COHEN_KAPPA: 0.69,
                        K.SCOTT_PI: 0.68, K.MAXWELL_RE: 0.69}


class TestClassMeasuresExact:
    """Full precision against direct arithmetic on the known cell values."""

    def test_class_1(self, first_classifier):
        m = first_classifier
        assert class_measure(m, 1, K.TPR).value == pytest.approx(0.30 / 0.33)
        assert class_measure(m, 1, K.TNR).value == pytest.approx(0.53 / 0.67)
        assert class_measure(m, 1, K.PPV).value == pytest.approx(0.30 / 0.44)
        assert class_measure(m, 1, K.NPV).value == pytest.approx(0.53 / 0.56)
        assert class_measure(m, 1, K.F_MEASURE).value == pytest.approx(0.60 / 0.77)
        assert class_measure(m, 1, K.JCC).value == pytest.approx(0.30 / 0.47)
        assert class_measure(m, 1, K.ICSI).value == pytest.approx(
            0.30 / 0.44 + 0.30 / 0.33 - 1.0)
        assert class_measure(m, 1, K.KULCZYNSKI).value == pytest.approx(
            (0.30 / 0.44 + 0.30 / 0.33) / 2.0)
        assert class_measure(m, 1, K.FPR).value == pytest.approx(1 - 0.53 / 0.67)

    def test_class_2(self, first_classifier):
        m = first_classifier
        assert class_measure(m, 2, K.TPR).value == pytest.approx(0.19 / 0.34)
        assert class_measure(m, 2, K.PPV).value == pytest.approx(0.19 / 0.22)
        assert class_measure(m, 2, K.F_MEASURE).value == pytest.approx(0.38 / 0.56)
        assert class_measure(m, 2, K.JCC).value == pytest.approx(0.19 / 0.37)

    def test_printed_two_decimal_values(self, first_classifier):
        for kind, expected in FIRST_EXPECTED_PER_CLASS.items():
            for i, want in enumerate(expected, start=1):
                got = class_measure(first_classifier, i, kind).value
                assert got == pytest.approx(want, abs=0.006), (kind, i)


class TestMulticlassExact:
    def test_first_classifier(self, first_classifier):
        m = first_classifier
        assert overall_measure(m, K.OSR).value == pytest.approx(0.79)
        assert overall_measure(m, K.CSI).value == pytest.approx(0.6016042780748663)
        assert overall_measure(m, K.COHEN_KAPPA).value == pytest.approx(
            (0.79 - 0.3322) / (1 - 0.3322))
        assert overall_measure(m, K.SCOTT_PI).value == pytest.approx(
            (0.79 - 0.3334) / (1 - 0.3334))
        assert overall_measure(m, K.MAXWELL_RE).value == pytest.approx(
            (0.79 - 1 / 3) / (2 / 3))

    def test_second_classifier(self, second_classifier):
        m = second_classifier
        assert overall_measure(m, K.OSR).value == 0.78
        assert overall_measure(m, K.CSI).value == pytest.approx(
            (0.75 + 0.12 / 0.34 + 0.75) / 3)
        assert overall_measure(m, K.COHEN_KAPPA).value == pytest.approx(
            (0.78 - 0.3312) / (1 - 0.3312))

    def test_spread_errors(self, spread_errors):
        m = spread_errors
        assert overall_measure(m, K.OSR).value == 0.0
        assert overall_measure(m, K.COHEN_KAPPA).value == pytest.approx(
            -0.30 / 0.70)
        assert overall_measure(m, K.SCOTT_PI).value == pytest.approx(
            -0.38 / 0.62)
        assert overall_measure(m, K.MAXWELL_RE).value == pytest.approx(-0.5)
        assert class_measure(m, 1, K.TNR).value == pytest.approx(0.6, abs=1e-12)

    def test_cyclic_shift_exact(self, cyclic_shift_exact):
        for kind in (K.COHEN_KAPPA, K.SCOTT_PI, K.MAXWELL_RE):
            assert overall_measure(cyclic_shift_exact, kind).value == \
                pytest.approx(-0.5, abs=1e-9)

    def test_perfect_is_all_ones(self, perfect):
        for kind in (K.OSR, K.CSI, K.COHEN_KAPPA, K.SCOTT_PI, K.MAXWELL_RE):
            assert overall_measure(perfect, kind).value == 1.0
        for i in (1, 2, 3):
            for kind in (K.TPR, K.TNR, K.PPV, K.NPV, K.F_MEASURE, K.JCC,
                         K.ICSI, K.KULCZYNSKI):
                assert class_measure(perfect, i, kind).value == 1.0


class TestAgreement:
    AGREEMENT = (K.COHEN_KAPPA, K.SCOTT_PI, K.MAXWELL_RE)

    def test_worked_example(self, first_classifier):
        # Po 0.79 and Pe 0.3322
        a = evaluate(first_classifier, K.COHEN_KAPPA).value
        assert a == pytest.approx(0.6855345911949686)

    def test_full_agreement(self):
        m = ConfusionMatrix(np.diag([0.5, 0.5]))  # Po 1 and Pe 0.5
        for kind in self.AGREEMENT:
            assert evaluate(m, kind).value == 1.0

    def test_below_chance(self, cyclic_shift_exact):
        # Po 0 and Pe 1/3
        a = evaluate(cyclic_shift_exact, K.MAXWELL_RE).value
        assert a == pytest.approx(-0.5, abs=1e-12)

    def test_degenerate_chance(self):
        m = ConfusionMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))  # Pe 1
        for kind in (K.COHEN_KAPPA, K.SCOTT_PI):
            with pytest.raises(DegenerateChance):
                overall_measure(m, kind)
            _, defined = evaluate_stack(m.cells[None], kind)
            assert defined.tolist() == [False]

    def test_chance_above_one_by_round_off_is_undefined(self):
        # one true class whose column sums to 1.0000000000000002: Pe of SPC
        # is 1.0000000000000004
        counts = np.zeros((4, 4))
        counts[:, 0] = [2, 4, 3, 1]
        m = from_counts(counts)
        assert m.col_sums()[0] > 1.0
        assert evaluate(m, K.SCOTT_PI).value is None
        _, defined = evaluate_stack(m.cells[None], K.SCOTT_PI)
        assert defined.tolist() == [False]
        assert report(m).multiclass[K.SCOTT_PI].value is None

    def test_chance_expectation_terms(self, first_classifier):
        m = first_classifier
        for kind, pe in ((K.COHEN_KAPPA, 0.3322), (K.SCOTT_PI, 0.3334),
                         (K.MAXWELL_RE, 1 / 3)):
            assert evaluate(m, kind).value == pytest.approx((0.79 - pe) / (1 - pe))

    def test_perfect_counts_score_exactly_one(self):
        # the diagonal of these proportions sums to 1.0000000000000002
        m = from_counts(np.diag([10, 18, 33, 29, 10]))
        assert float(np.trace(m.cells)) > 1.0
        for kind in (K.OSR, *self.AGREEMENT):
            assert evaluate(m, kind).value == 1.0
            values, defined = evaluate_stack(m.cells[None], kind)
            assert defined.tolist() == [True]
            assert values.tolist() == [1.0]


class TestUndefined:
    def test_empty_true_class_tpr(self):
        m = ConfusionMatrix(np.array([[0.5, 0.0], [0.5, 0.0]]))
        v = class_measure(m, 2, K.TPR)
        assert not v.defined and v.value is None

    def test_empty_estimated_class_ppv(self):
        m = ConfusionMatrix(np.array([[0.5, 0.5], [0.0, 0.0]]))
        assert not class_measure(m, 2, K.PPV).defined

    def test_icsi_undefined_propagates_to_csi(self):
        m = ConfusionMatrix(np.array([[0.5, 0.0], [0.5, 0.0]]))
        assert not overall_measure(m, K.CSI).defined

    def test_undefined_is_never_zero(self):
        m = ConfusionMatrix(np.array([[0.5, 0.0], [0.5, 0.0]]))
        v = class_measure(m, 2, K.TPR)
        assert v.value != 0.0

    def test_fpr_undefined_with_tnr(self):
        # class 1 is the only true class: no negatives, so tn + fp = 0
        m = ConfusionMatrix(np.array([[0.6, 0.0], [0.4, 0.0]]))
        assert not class_measure(m, 1, K.TNR).defined
        assert not class_measure(m, 1, K.FPR).defined

    def test_evaluate_maps_degenerate_chance_to_undefined(self):
        m = ConfusionMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert not evaluate(m, K.COHEN_KAPPA).defined


# Always predicts class 1; the cells sum to 1 + 5e-10, within SUM_TOLERANCE,
# so tn of class 1 comes out as -5e-10.
ROUND_OFF_TN_CELLS = [[0.5, 0.3, 0.2000000005], [0, 0, 0], [0, 0, 0]]


class TestRoundOffCounts:
    def test_evaluate(self):
        m = ConfusionMatrix(np.array(ROUND_OFF_TN_CELLS))
        assert evaluate(m, K.TPR, 1).value == 1.0
        assert evaluate(m, K.TNR, 1).value == 0.0
        assert evaluate(m, K.NPV, 1).value is None  # tn + fn = 0
        assert evaluate(m, K.CSI).value is None  # classes 2 and 3 unpredicted

    def test_evaluate_stack(self):
        values, defined = evaluate_stack(np.array([ROUND_OFF_TN_CELLS]), K.TPR, 1)
        assert values.tolist() == [1.0]
        assert defined.tolist() == [True]

    def test_report(self):
        rep = report(ConfusionMatrix(np.array(ROUND_OFF_TN_CELLS)))
        assert rep.per_class[K.TPR][0].value == 1.0
        assert rep.multiclass[K.OSR].value == 0.5


class TestDispatch:
    def test_class_measure_rejects_multiclass_kind(self, first_classifier):
        with pytest.raises(InvalidInput):
            class_measure(first_classifier, 1, K.OSR)

    def test_overall_rejects_class_kind(self, first_classifier):
        with pytest.raises(InvalidInput):
            overall_measure(first_classifier, K.TPR)

    def test_evaluate_needs_class_index(self, first_classifier):
        with pytest.raises(InvalidInput):
            evaluate(first_classifier, K.TPR)

    def test_evaluate_rejects_index_on_multiclass(self, first_classifier):
        with pytest.raises(InvalidInput):
            evaluate(first_classifier, K.OSR, 1)

    def test_parse_kind_aliases(self):
        assert parse_kind("osr") is K.OSR
        assert parse_kind("F") is K.F_MEASURE
        assert parse_kind("ckp") is K.COHEN_KAPPA
        assert parse_kind("CKC") is K.COHEN_KAPPA
        assert parse_kind("gt") is K.GT_INDEX

    def test_parse_kind_unknown(self):
        with pytest.raises(InvalidInput):
            parse_kind("bogus")


class TestIdentities:
    """Algebraic relations between measures, at 1e-12 on random matrices."""

    def test_identities_random(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            m = random_matrix(rng, k=int(rng.integers(2, 6)), positive=True)
            rows, cols = m.cells.sum(axis=1), m.col_sums()
            for i in range(1, m.k + 1):
                tpr = class_measure(m, i, K.TPR).value
                tnr = class_measure(m, i, K.TNR).value
                ppv = class_measure(m, i, K.PPV).value
                fpr = class_measure(m, i, K.FPR).value
                f = class_measure(m, i, K.F_MEASURE).value
                jcc = class_measure(m, i, K.JCC).value
                icsi = class_measure(m, i, K.ICSI).value
                assert jcc == pytest.approx(f / (2 - f), abs=1e-12)
                assert f == pytest.approx(2 * jcc / (1 + jcc), abs=1e-12)
                assert icsi == pytest.approx(tpr + ppv - 1, abs=1e-12)
                assert fpr == pytest.approx(1 - tnr, abs=1e-12)
            osr = overall_measure(m, K.OSR).value
            decomposed = sum(
                cols[i] * class_measure(m, i + 1, K.TPR).value
                for i in range(m.k))
            assert osr == pytest.approx(decomposed, abs=1e-12)

    def test_mean_ordering_chain(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            m = random_matrix(rng, k=3, positive=True)
            for i in (1, 2, 3):
                tpr = class_measure(m, i, K.TPR).value
                ppv = class_measure(m, i, K.PPV).value
                f = class_measure(m, i, K.F_MEASURE).value
                kul = class_measure(m, i, K.KULCZYNSKI).value
                hi = max(tpr, ppv)
                assert tpr * ppv <= f + 1e-12
                assert f <= kul + 1e-12
                assert kul <= hi + 1e-12
                if abs(tpr - ppv) > 1e-9:
                    assert f < kul - 1e-15
                    assert kul < hi

    def test_mean_ordering_collapse_when_rates_equal(self):
        # symmetric cells force TPR = PPV for every class
        m = ConfusionMatrix(np.array([[0.3, 0.1], [0.1, 0.5]]))
        for i in (1, 2):
            tpr = class_measure(m, i, K.TPR).value
            f = class_measure(m, i, K.F_MEASURE).value
            kul = class_measure(m, i, K.KULCZYNSKI).value
            assert f == pytest.approx(tpr, abs=1e-12)
            assert kul == pytest.approx(tpr, abs=1e-12)

    def test_agreement_affine_in_osr_at_fixed_columns(self):
        # same true-class proportions: SPC and MRE order exactly like OSR
        rng = np.random.default_rng(44)
        cols = np.array([0.5, 0.3, 0.2])
        for _ in range(100):
            a = random_matrix_with_columns(rng, cols)
            b = random_matrix_with_columns(rng, cols)
            d_osr = (overall_measure(a, K.OSR).value
                     - overall_measure(b, K.OSR).value)
            for kind in (K.SCOTT_PI, K.MAXWELL_RE):
                d = (overall_measure(a, kind).value
                     - overall_measure(b, kind).value)
                assert np.sign(d) == np.sign(d_osr) or abs(d_osr) < 1e-12

    @given(st.integers(min_value=2, max_value=6), st.integers())
    @settings(max_examples=60, deadline=None)
    def test_range_containment(self, k, seed):
        rng = np.random.default_rng(abs(seed) % 2 ** 32)
        m = random_matrix(rng, k=k, positive=True)
        for kind in (K.TPR, K.TNR, K.PPV, K.NPV, K.FPR, K.F_MEASURE, K.JCC,
                     K.ICSI, K.KULCZYNSKI):
            lo, hi = value_range(kind, k)
            for i in range(1, k + 1):
                v = class_measure(m, i, kind).value
                assert lo - 1e-12 <= v <= hi + 1e-12
        for kind in (K.OSR, K.CSI, K.COHEN_KAPPA, K.SCOTT_PI, K.MAXWELL_RE):
            lo, hi = value_range(kind, k)
            v = overall_measure(m, kind).value
            assert lo - 1e-12 <= v <= hi + 1e-12

    def test_maxwell_lower_bound_tight(self):
        lo, hi = value_range(K.MAXWELL_RE, 3)
        assert lo == pytest.approx(-0.5)
        assert hi == 1.0

    def test_margin_weighted_coefficients_have_no_floor(self):
        # anti-diagonal with lopsided margins: pe = 0.82, po = 0
        m = ConfusionMatrix(np.array([[0.0, 0.9], [0.1, 0.0]]))
        spc = overall_measure(m, K.SCOTT_PI).value
        assert spc == pytest.approx(-0.82 / 0.18)
        assert spc < -1.0
        assert value_range(K.SCOTT_PI, 2)[0] == -np.inf
        assert value_range(K.COHEN_KAPPA, 2)[0] == -np.inf


class TestRounding:
    def test_half_goes_up(self):
        assert round_half_up(0.685) == 0.69
        assert round_half_up(0.675) == 0.68
        assert round_half_up(0.005) == 0.01

    def test_negative_half_goes_away_from_zero(self):
        assert round_half_up(-0.425) == -0.43

    def test_plain_cases(self):
        assert round_half_up(0.7849) == 0.78
        assert round_half_up(0.785) == 0.79


class TestReport:
    def test_grid_dimensions(self, first_classifier):
        rep = report(first_classifier)
        class_specific = [k for k in K if k.class_specific]
        assert set(rep.per_class) == set(class_specific)
        for kind in class_specific:
            assert len(rep.per_class[kind]) == 3

    def test_text_shows_half_up_rounding(self, first_classifier):
        text = report(first_classifier).to_text()
        lines = {line.split()[0]: line for line in text.splitlines()[1:]}
        assert "0.69" in lines["MRE"]  # internal 0.685 displays as 0.69
        assert "0.68" in lines["SPC"]
        assert "0.79" in lines["OSR"]
        assert "0.56" in lines["TPR"]

    def test_json_round_trip_values(self, first_classifier):
        doc = report(first_classifier).to_json_dict()
        assert doc["k"] == 3
        assert doc["overall"]["osr"] == pytest.approx(0.79)
        assert doc["per_class"][1]["tpr"] == pytest.approx(0.19 / 0.34)

    def test_perfect_marks_gt_undefined_without_aborting(self, perfect):
        rep = report(perfect)
        assert all(v.value is None for v in rep.per_class[K.GT_INDEX])
        assert rep.multiclass[K.OSR].value == 1.0
        assert "undef" in rep.to_text()

    @given(st.integers(2, 8).flatmap(lambda k: st.lists(
        st.lists(st.integers(0, 50), min_size=k, max_size=k),
        min_size=k, max_size=k)), st.sampled_from(["any", "perfect", "one"]))
    @settings(max_examples=150, deadline=None)
    def test_any_count_table_reports(self, rows, shape):
        counts = np.array(rows)
        if shape == "perfect":
            counts = np.diag(np.diag(counts))
        elif shape == "one":  # a single true class
            counts[:, 1:] = 0
        if not counts.any():
            counts[0, 0] = 1
        rep = report(from_counts(counts))
        rep.to_text()
        rep.to_json_dict()

    def test_fits_gt_once(self, first_classifier, monkeypatch):
        fits = []
        fit = gt.gt_index
        monkeypatch.setattr(gt, "gt_index", lambda m: fits.append(m) or fit(m))
        rep = report(first_classifier)
        assert len(fits) == 1
        assert tuple(v.value for v in rep.per_class[K.GT_INDEX]) == \
            fit(first_classifier).theta

    def test_undefined_cells_render_as_undef(self):
        m = ConfusionMatrix(np.array([[0.5, 0.0], [0.5, 0.0]]))
        text = report(m).to_text()
        assert "undef" in text


CLASS_KINDS = [kind for kind in K if kind.class_specific]
MULTI_KINDS = [kind for kind in K if not kind.class_specific]


class TestReportMatchesEvaluate:
    @given(st.integers(2, 12).flatmap(lambda k: st.lists(
        st.lists(st.integers(0, 30), min_size=k, max_size=k),
        min_size=k, max_size=k)),
        st.sampled_from(["any", "empty true class", "never predicted",
                         "perfect"]))
    @example([[3, 1], [2, 4]], "any")  # k = 2: GT is undefined
    @example([[4, 0, 1], [2, 0, 3], [1, 0, 5]], "any")  # class 2 is empty
    @settings(max_examples=80, deadline=None)
    def test_every_entry_bit_for_bit(self, rows, shape):
        counts = np.array(rows)
        if shape == "empty true class":  # columns are the true classes
            counts[:, -1] = 0
        elif shape == "never predicted":
            counts[0, :] = 0
        elif shape == "perfect":
            counts = np.diag(np.diag(counts))
        if not counts.any():
            counts[-1, 0] = 1
        m = from_counts(counts)
        rep = report(m)
        assert list(rep.per_class) == CLASS_KINDS
        assert list(rep.multiclass) == MULTI_KINDS
        for kind, values in rep.per_class.items():
            assert [(v.kind, v.class_index) for v in values] == \
                [(kind, i) for i in range(1, m.k + 1)]
            for v in values:
                assert _same_value(v.value, evaluate(m, kind, v.class_index).value)
        for kind, v in rep.multiclass.items():
            assert (v.kind, v.class_index) == (kind, None)
            assert _same_value(v.value, evaluate(m, kind).value)
        doc = rep.to_json_dict()
        assert list(doc) == ["k", "per_class", "overall"]
        assert doc["k"] == m.k
        assert [list(entry) for entry in doc["per_class"]] == \
            [["class"] + [kind.value for kind in CLASS_KINDS]] * m.k
        for i, entry in enumerate(doc["per_class"]):
            assert entry["class"] == i + 1
            assert all(entry[kind.value] is rep.per_class[kind][i].value
                       for kind in CLASS_KINDS)
        assert list(doc["overall"]) == [kind.value for kind in MULTI_KINDS]
        assert all(doc["overall"][kind.value] is rep.multiclass[kind].value
                   for kind in MULTI_KINDS)


def _stack_members(seed: int, k: int, n: int) -> list[ConfusionMatrix]:
    """Count matrices with ties and zeros: plain, one empty estimated class
    (row), one empty true class (column), or perfect."""
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(n):
        counts = rng.integers(0, 4, size=(k, k))
        shape = rng.integers(0, 4)
        if shape == 1:
            counts[rng.integers(k), :] = 0
        elif shape == 2:
            counts[:, rng.integers(k)] = 0
        elif shape == 3:
            counts = np.diag(np.diag(counts))
        if not counts.any():
            counts[0, 0] = 1
        members.append(from_counts(counts))
    return members


def _same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _ref_sum(xs) -> float:
    """Left-to-right sum, the order numpy takes below 8 terms."""
    total = 0.0
    for x in xs:
        total += x
    return total


def _ref_dot(xs, ys, fused: bool) -> float:
    """Left-to-right dot product; a BLAS dot may round each multiply-add
    once (``fused``) or twice."""
    total = 0.0
    for x, y in zip(xs, ys):
        total = (float(Fraction(x) * Fraction(y) + Fraction(total)) if fused
                 else total + x * y)
    return total


def _ref_ratio(num: float, den: float) -> float | None:
    return None if den == 0 else num / den


def _ref_class(cells, rows, cols, i: int, kind: MeasureKind) -> float | None:
    """A per-class ratio measure of class ``i`` (0-based) from the
    one-vs-rest counts; a negative tn is round-off and reads 0."""
    tp = cells[i][i]
    fn, fp = cols[i] - tp, rows[i] - tp
    tn = max(1.0 - tp - fp - fn, 0.0)
    tpr, ppv, tnr = _ref_ratio(tp, tp + fn), _ref_ratio(tp, tp + fp), \
        _ref_ratio(tn, tn + fp)
    both = tpr is not None and ppv is not None
    return {
        K.TPR: tpr, K.TNR: tnr, K.PPV: ppv, K.NPV: _ref_ratio(tn, tn + fn),
        K.FPR: None if tnr is None else 1.0 - tnr,
        K.F_MEASURE: _ref_ratio(2 * tp, 2 * tp + fn + fp),
        K.JCC: _ref_ratio(tp, tp + fp + fn),
        K.ICSI: ppv + tpr - 1.0 if both else None,
        K.KULCZYNSKI: (ppv + tpr) / 2.0 if both else None,
    }[kind]


def _ref_margin_update(target, other):
    """new_i = target_i / sum_{j != i} other_j, 0 for a zero denominator;
    None where a nonzero margin meets a zero denominator."""
    total = _ref_sum(other)
    out = []
    for t, o in zip(target, other):
        den = total - o
        if den <= 0 and t > 0:
            return None
        out.append(t / den if den > 0 else 0.0)
    return out


def _ref_gt(cells, cols) -> list[float | None]:
    """GT index of every class: theta_i = (TPR_i - a_i) / (1 - a_i) with a
    from the quasi-independence fit p_ij = a_i b_j (i != j), margins
    matched alternately from a_i = 1/k; undefined for k < 3, a perfect
    matrix, a failed fit or a_i = 1."""
    k = len(cells)
    off = [[0.0 if i == j else cells[i][j] for j in range(k)]
           for i in range(k)]
    if k < 3 or not any(v > 0 for row in off for v in row):
        return [None] * k
    off_rows = [_ref_sum(row) for row in off]
    off_cols = [_ref_sum(row[j] for row in off) for j in range(k)]
    a, b = [1.0 / k] * k, off_cols
    for _ in range(1000):
        new_a = _ref_margin_update(off_rows, b)
        new_b = new_a and _ref_margin_update(off_cols, new_a)
        if new_b is None:
            return [None] * k
        delta = max(abs(x - y) for x, y in zip(new_a + new_b, a + b))
        a, b = new_a, new_b
        if delta < 1e-10:
            break
    else:
        return [None] * k
    total = _ref_sum(a)
    a = [x / total for x in a]
    if max(a) >= 1.0:
        return [None] * k
    return [None if cols[i] == 0 else (cells[i][i] / cols[i] - a[i]) / (1.0 - a[i])
            for i in range(k)]


def reference(cells, kind: MeasureKind, class_index: int | None,
              fused: bool) -> float | None:
    """The paper's formulas on one matrix (nested lists) in plain Python
    floats, None where undefined; independent of the package's code.
    ``fused`` picks the rounding of the dot product in CKC and SPC."""
    k = len(cells)
    rows = [_ref_sum(row) for row in cells]
    cols = [_ref_sum(row[j] for row in cells) for j in range(k)]
    if kind == K.GT_INDEX:
        return _ref_gt(cells, cols)[class_index - 1]
    if kind.class_specific:
        return _ref_class(cells, rows, cols, class_index - 1, kind)
    if kind == K.CSI:
        icsi = [_ref_class(cells, rows, cols, i, K.ICSI) for i in range(k)]
        return None if None in icsi else _ref_sum(icsi) / k
    po = min(_ref_sum(cells[i][i] for i in range(k)), 1.0)
    if kind == K.OSR:
        return po
    pe = {K.MAXWELL_RE: 1.0 / k,
          K.COHEN_KAPPA: _ref_dot(rows, cols, fused),
          K.SCOTT_PI: _ref_dot(cols, cols, fused)}[kind]
    return None if pe >= 1.0 else (po - pe) / (1.0 - pe)


def _same_value(a: float | None, b: float | None) -> bool:
    return a is b is None or (a is not None and b is not None
                              and _same_bits(a, b))


class TestEvaluateStack:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 6),
           n=st.integers(1, 6))
    @example(seed=41, k=6, n=3)  # a perfect member whose trace exceeds 1
    def test_equals_reference_bit_for_bit(self, seed, k, n):
        members = _stack_members(seed, k, n)
        cells = np.stack([m.cells for m in members])
        for kind in K:
            for ci in (range(1, k + 1) if kind.class_specific else [None]):
                values, defined = evaluate_stack(cells, kind, ci)
                assert values.shape == defined.shape == (n,)
                for m, value, ok in zip(members, values.tolist(),
                                        defined.tolist()):
                    got = value if ok else None
                    assert any(_same_value(got, reference(
                        m.cells.tolist(), kind, ci, fused))
                        for fused in (False, True)), (kind, ci)
                    # evaluate is the same value on a stack of one
                    assert _same_value(evaluate(m, kind, ci).value, got)

    def test_csi_sums_classes_in_order(self):
        # at k >= 8 a pairwise sum would round differently
        rng = np.random.default_rng(5)
        members = [random_matrix(rng, k=int(rng.integers(8, 13)), positive=True)
                   for _ in range(50)]
        for m in members:
            icsi = [evaluate(m, K.ICSI, i).value for i in range(1, m.k + 1)]
            assert _same_bits(evaluate(m, K.CSI).value, _ref_sum(icsi) / m.k)

    def test_undefined_is_a_mask(self):
        cells = np.stack([np.diag([0.5, 0.5, 0.0]), np.full((3, 3), 1 / 9)])
        values, defined = evaluate_stack(cells, K.PPV, 3)
        assert defined.tolist() == [False, True]
        assert values[1] == pytest.approx(1 / 3)
        _, defined = evaluate_stack(cells, K.CSI)
        assert defined.tolist() == [False, True]

    def test_argument_errors_match_evaluate(self, first_classifier):
        cells = first_classifier.cells[None]
        for kind, ci in ((K.TPR, None), (K.OSR, 1), (K.TPR, 4), (K.GT_INDEX, 0),
                         (K.PPV, 1.5)):
            with pytest.raises(InvalidInput) as scalar:
                evaluate(first_classifier, kind, ci)
            with pytest.raises(InvalidInput) as stacked:
                evaluate_stack(cells, kind, ci)
            assert stacked.value.to_dict() == scalar.value.to_dict()


_SHAPES = ["any", "empty true class", "never predicted", "perfect"]


@st.composite
def _member_stacks(draw, max_k: int = 6) -> np.ndarray:
    """An ``(n, k, k)`` stack at k 2 to ``max_k``: series members, or count
    tables with an empty true class (column), a class never predicted (row)
    or no error at all."""
    k = draw(st.integers(2, max_k))
    if draw(st.booleans()):
        pi = class_proportions(k, draw(st.floats(0.0, 1.0)))
        c = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
        return series_stack(pi, c, draw(st.sampled_from(list(SeriesMode))))
    tables = draw(st.lists(st.tuples(
        st.lists(st.integers(0, 30), min_size=k * k, max_size=k * k),
        st.sampled_from(_SHAPES)), min_size=1, max_size=6))
    members = []
    for flat, shape in tables:
        counts = np.array(flat).reshape(k, k)
        if shape == "empty true class":
            counts[:, -1] = 0
        elif shape == "never predicted":
            counts[0, :] = 0
        elif shape == "perfect":
            counts = np.diag(np.diag(counts))
        if not counts.any():
            counts[-1, 0] = 1
        members.append(from_counts(counts).cells)
    return np.stack(members)


def _member_bits(values, defined, i) -> bytes | None:
    return values[i].tobytes() if defined[i] else None


class TestMemberIndependentOfStack:
    """A member's value does not depend on the other members of its stack,
    the premise on which a line solver may probe a point in any stack."""

    @settings(max_examples=40, deadline=None)
    @given(_member_stacks(), st.integers(0, 2**32 - 1))
    def test_evaluate_stack_bit_for_bit(self, cells, seed):
        n, k = cells.shape[0], cells.shape[-1]
        rng = np.random.default_rng(seed)
        # more members around them: their transposes and the uniform matrix
        larger = np.concatenate([cells, cells.transpose(0, 2, 1),
                                 np.full((1, k, k), 1.0 / k ** 2)])
        order = rng.permutation(len(larger))
        where = np.argsort(order)[:n]
        for kind in K:
            for ci in (range(1, k + 1) if kind.class_specific else [None]):
                whole = evaluate_stack(cells, kind, ci)
                shuffled = evaluate_stack(larger[order], kind, ci)
                for i in range(n):
                    alone = _member_bits(*evaluate_stack(cells[i:i + 1], kind,
                                                         ci), 0)
                    assert _member_bits(*whole, i) == alone, (kind, ci)
                    assert _member_bits(*shuffled, where[i]) == alone, (kind, ci)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.floats(0.0, 1.0),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
           st.sampled_from(list(SeriesMode)))
    def test_series_stack_rows(self, k, p, c, mode):
        pi = class_proportions(k, p)
        stack = series_stack(pi, c, mode)
        for i in range(len(c)):
            row = series_stack(pi, c[i:i + 1], mode)[0]
            assert stack[i].tobytes() == row.tobytes()


class TestOnePass:
    """``_evaluate_kinds`` evaluates many kinds in one pass over a stack,
    sharing the one-vs-rest counts; each kind equals its own
    ``evaluate_stack`` call bit for bit, in any order of the kinds."""

    @settings(max_examples=40, deadline=None)
    @given(_member_stacks(max_k=9), st.permutations(list(K)))
    @example(np.stack([np.eye(9) / 9, np.full((9, 9), 1 / 81)]), list(K))
    def test_all_kinds_equal_one_kind_at_a_time(self, cells, kinds):
        n, k = cells.shape[0], cells.shape[-1]
        results = list(_evaluate_kinds(cells, kinds))
        assert len(results) == len(kinds)
        for kind, (values, defined) in zip(kinds, results):
            assert values.shape == defined.shape == (
                (n, k) if kind.class_specific else (n,))
            for ci in (range(1, k + 1) if kind.class_specific else [None]):
                got = ((values[:, ci - 1], defined[:, ci - 1]) if ci
                       else (values, defined))
                want = evaluate_stack(cells, kind, ci)
                assert got[1].tolist() == want[1].tolist(), (kind, ci)
                assert (got[0][got[1]].tobytes()
                        == want[0][want[1]].tobytes()), (kind, ci)

"""Acceptance gate: the nine headline guarantees, one verdict line each.

Each test aggregates its sub-checks, prints a single [PASS]/[FAIL] line for
the criterion, and then asserts. Run with ``pytest -s tests/test_acceptance.py``
to see every verdict line on a green suite.
"""

import numpy as np
import pytest

from confmeasures import (
    ConfusionMatrix,
    PerfectClassification,
    TooFewClasses,
    fit_quasi_independence,
    gt_index,
)
from confmeasures.discrimination import (
    Preference,
    consistency,
    discrimination_line,
    equivalence_classes,
    preference,
    series_pairs,
)
from confmeasures.measures import MeasureKind as K
from confmeasures.measures import class_measure, evaluate, overall_measure, report
from confmeasures.series import class_proportions

from conftest import random_matrix
from test_gt import forward_matrix, off_diagonal

# Printed 2-decimal reference figures for the first case-study classifier.
PRINTED_PER_CLASS = {
    K.TPR: (0.91, 0.56, 0.91),
    K.TNR: (0.79, 0.95, 0.94),
    K.PPV: (0.68, 0.86, 0.88),
    K.NPV: (0.95, 0.81, 0.95),
    K.F_MEASURE: (0.78, 0.68, 0.90),
    K.JCC: (0.64, 0.51, 0.81),
    K.ICSI: (0.59, 0.42, 0.79),
}
PRINTED_MULTI = {K.OSR: 0.79, K.CSI: 0.60, K.COHEN_KAPPA: 0.69,
                 K.SCOTT_PI: 0.68, K.MAXWELL_RE: 0.69}

GRID_TOLERANCE = 0.006


VERDICTS: list[str] = []


def conclude(number, title, checks):
    failures = [label for label, ok in checks if not ok]
    status = "FAIL" if failures else "PASS"
    line = (f"[{status}] criterion {number}: {title} "
            f"({len(checks) - len(failures)}/{len(checks)} checks)")
    VERDICTS.append(line)
    print(line)
    assert not failures, f"criterion {number} ({title}) failed: {failures}"


def random_positive_matrices(seed, n, k=3):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        cells = rng.uniform(0.01, 1.0, size=(k, k))
        cells /= cells.sum()
        out.append(ConfusionMatrix(cells))
    return out


def test_criterion_1_case_study_grid(first_classifier):
    checks = []
    for kind, expected in PRINTED_PER_CLASS.items():
        for i, want in enumerate(expected, start=1):
            got = class_measure(first_classifier, i, kind).value
            checks.append((
                f"{kind.value} class {i}",
                abs(got - want) <= GRID_TOLERANCE,
            ))
    for kind, want in PRINTED_MULTI.items():
        got = overall_measure(first_classifier, kind).value
        checks.append((kind.value, abs(got - want) <= GRID_TOLERANCE))
    assert len(checks) == 26
    conclude(1, "case-study measure grid", checks)


def test_criterion_2_extreme_cases(perfect, spread_errors):
    checks = []
    unit_kinds = [K.TPR, K.TNR, K.PPV, K.NPV, K.F_MEASURE, K.JCC, K.ICSI,
                  K.KULCZYNSKI]
    for kind in unit_kinds:
        for i in (1, 2, 3):
            v = class_measure(perfect, i, kind).value
            checks.append((f"perfect {kind.value} class {i}", v == 1.0))
    for kind in (K.OSR, K.CSI, K.COHEN_KAPPA, K.SCOTT_PI, K.MAXWELL_RE):
        v = overall_measure(perfect, kind).value
        checks.append((f"perfect {kind.value}", v == 1.0))
    checks.append((
        "perfect fpr floor",
        class_measure(perfect, 1, K.FPR).value == 0.0,
    ))
    try:
        gt_index(perfect)
        checks.append(("perfect chance-model error", False))
    except PerfectClassification:
        checks.append(("perfect chance-model error", True))
    checks.append((
        "perfect chance-model undefined via evaluate",
        evaluate(perfect, K.GT_INDEX, 1).value is None,
    ))

    ckc = overall_measure(spread_errors, K.COHEN_KAPPA).value
    spc = overall_measure(spread_errors, K.SCOTT_PI).value
    mre = overall_measure(spread_errors, K.MAXWELL_RE).value
    tnr1 = class_measure(spread_errors, 1, K.TNR).value
    checks.append(("worst-case kappa", abs(ckc - (-0.43)) <= 0.005))
    checks.append(("worst-case scott", abs(spc - (-0.61)) <= 0.005))
    checks.append(("worst-case uniform-chance", abs(mre - (-0.50)) <= 0.005))
    checks.append(("worst-case tnr class 1", abs(tnr1 - 0.6) <= 1e-12))
    conclude(2, "extreme cases", checks)


def test_criterion_3_second_classifier(first_classifier, second_classifier):
    checks = [
        ("osr exact",
         overall_measure(second_classifier, K.OSR).value == 0.78),
        ("csi",
         abs(overall_measure(second_classifier, K.CSI).value - 0.62) <= 0.005),
    ]
    for kind in (K.COHEN_KAPPA, K.SCOTT_PI, K.MAXWELL_RE):
        v = overall_measure(second_classifier, kind).value
        checks.append((kind.value, abs(v - 0.67) <= 0.005))
    checks.append((
        "overall accuracy prefers the first classifier",
        preference(K.OSR, first_classifier, second_classifier)
        == Preference.FIRST,
    ))
    checks.append((
        "mean index prefers the second classifier",
        preference(K.CSI, first_classifier, second_classifier)
        == Preference.SECOND,
    ))
    conclude(3, "second classifier and ranking disagreement", checks)


def test_criterion_4_cyclic_shift(cyclic_shift_exact, cyclic_shift):
    checks = []
    for kind in (K.COHEN_KAPPA, K.SCOTT_PI, K.MAXWELL_RE):
        v = overall_measure(cyclic_shift_exact, kind).value
        checks.append((f"{kind.value} exact thirds", abs(v + 0.5) <= 1e-9))
    for kind in (K.COHEN_KAPPA, K.SCOTT_PI, K.MAXWELL_RE):
        v = overall_measure(cyclic_shift, kind).value
        checks.append((f"{kind.value} printed cells", abs(v + 0.5) <= 0.005))
    conclude(4, "cyclic shift agreement coefficients", checks)


def test_criterion_5_line_closed_forms():
    checks = []
    identity = discrimination_line(K.TPR, k=3, p=0.0, class_index=1)
    checks.append((
        "recall class-1 line crosses everywhere",
        all(r.crossing for r in identity.rows),
    ))
    checks.append((
        "recall class-1 line is the identity",
        all(abs(r.c_y - r.c_x) <= 1e-9 for r in identity.rows if r.crossing),
    ))

    accuracy = discrimination_line(K.OSR, k=3, p=0.0)
    crossed = [r for r in accuracy.rows if r.crossing]
    flat = [r for r in accuracy.rows if not r.crossing]
    checks.append(("accuracy line has a crossing branch", bool(crossed)))
    checks.append((
        "accuracy crossings match 3*c_x - 2",
        all(abs(r.c_y - (3 * r.c_x - 2)) <= 1e-6 for r in crossed),
    ))
    checks.append((
        "accuracy crossing branch starts at 2/3",
        all(r.c_x >= 2 / 3 - 1e-9 for r in crossed),
    ))
    checks.append((
        "below 2/3 the eroded-first-class side always wins",
        all(
            r.c_x < 2 / 3 + 1e-9 and r.preference == Preference.SECOND
            for r in flat
        ),
    ))
    conclude(5, "discrimination line closed forms", checks)


def test_criterion_6_equivalence():
    checks = []
    agreement_kinds = [K.OSR, K.COHEN_KAPPA, K.SCOTT_PI, K.MAXWELL_RE, K.CSI]

    balanced = equivalence_classes(agreement_kinds, series_pairs(k=3, p=0.0))
    checks.append((
        "balanced partition",
        {frozenset(g) for g in balanced.groups} == {
            frozenset({K.OSR, K.COHEN_KAPPA, K.SCOTT_PI, K.MAXWELL_RE}),
            frozenset({K.CSI}),
        },
    ))
    imbalanced = equivalence_classes(agreement_kinds, series_pairs(k=3, p=0.5))
    checks.append((
        "imbalanced partition isolates the row-weighted kappa",
        {frozenset(g) for g in imbalanced.groups} == {
            frozenset({K.OSR, K.SCOTT_PI, K.MAXWELL_RE}),
            frozenset({K.COHEN_KAPPA}),
            frozenset({K.CSI}),
        },
    ))

    rng = np.random.default_rng(606)
    pairs = [
        (random_matrix(rng, positive=True), random_matrix(rng, positive=True))
        for _ in range(1000)
    ]
    res = consistency(K.F_MEASURE, K.JCC, pairs, class_index=1)
    checks.append(("all 1000 pairs comparable", res.total == 1000))
    checks.append(("overlap kinds fully concordant", res.fraction == 1.0))
    conclude(6, "equivalence partitions and concordance", checks)


def test_criterion_7_property_suites():
    checks = []

    # (a) no line rises above the diagonal at balance
    per_class_kinds = [K.TPR, K.TNR, K.PPV, K.NPV, K.F_MEASURE, K.JCC,
                       K.ICSI, K.KULCZYNSKI]
    multi_kinds = [K.OSR, K.CSI, K.COHEN_KAPPA, K.SCOTT_PI, K.MAXWELL_RE]
    below = True
    for kind in per_class_kinds:
        for ci in (1, 2, 3):
            if kind == K.TPR and ci == 1:
                continue  # the identity line, covered by criterion 5
            line = discrimination_line(kind, k=3, p=0.0, class_index=ci,
                                       grid_step=0.05)
            below = below and all(
                r.c_y <= r.c_x + 1e-9 for r in line.rows if r.crossing
            )
    for kind in multi_kinds:
        line = discrimination_line(kind, k=3, p=0.0, grid_step=0.05)
        below = below and all(
            r.c_y <= r.c_x + 1e-9 for r in line.rows if r.crossing
        )
    checks.append(("(a) lines stay on or below the diagonal", below))

    # (b) recall and negative-predictive lines ignore imbalance
    invariant = True
    for kind in (K.TPR, K.NPV):
        for ci in (1, 2):
            lines = [
                discrimination_line(kind, k=3, p=p, class_index=ci,
                                    grid_step=0.05)
                for p in (0.0, 0.5, 1.0)
            ]
            for other in lines[1:]:
                for ra, rb in zip(lines[0].rows, other.rows):
                    if ra.crossing != rb.crossing:
                        invariant = False
                    elif ra.crossing:
                        invariant = invariant and abs(ra.c_y - rb.c_y) <= 1e-7
                    else:
                        invariant = invariant and (
                            ra.preference == rb.preference
                        )
    checks.append(("(b) recall and npv lines are imbalance-invariant",
                   invariant))

    # (c) more classes push the accuracy crossing down, at c_x = 0.92, 0.95
    # and 0.98: rows 92, 95 and 98 of the step-0.01 grid
    monotone = True
    for p in (0.0, 1.0):
        prev = None
        for k in range(3, 11):
            line = discrimination_line(K.OSR, k=k, p=p, grid_step=0.01)
            rows = [line.rows[i] for i in (92, 95, 98)]
            monotone = monotone and all(row.crossing for row in rows)
            if prev is not None:
                monotone = monotone and all(
                    row.c_y <= before.c_y + 1e-9
                    for row, before in zip(rows, prev))
            prev = rows
    checks.append(("(c) accuracy crossings nonincreasing in class count",
                   monotone))

    # (d) + (e) on one pool of 10^4 random matrices
    matrices = random_positive_matrices(707, 10_000)
    chain = identities = True
    for m in matrices:
        tpr = class_measure(m, 1, K.TPR).value
        ppv = class_measure(m, 1, K.PPV).value
        f = class_measure(m, 1, K.F_MEASURE).value
        kul = class_measure(m, 1, K.KULCZYNSKI).value
        chain = chain and (
            tpr * ppv <= f + 1e-12
            and f <= kul + 1e-12
            and kul <= max(tpr, ppv) + 1e-12
        )
        jcc = class_measure(m, 1, K.JCC).value
        icsi = class_measure(m, 1, K.ICSI).value
        fpr = class_measure(m, 1, K.FPR).value
        tnr = class_measure(m, 1, K.TNR).value
        identities = identities and (
            abs(jcc - f / (2.0 - f)) <= 1e-12
            and abs(icsi - (tpr + ppv - 1.0)) <= 1e-12
            and abs(fpr - (1.0 - tnr)) <= 1e-12
        )
        cols = m.col_sums()
        mix = sum(
            cols[i - 1] * class_measure(m, i, K.TPR).value for i in (1, 2, 3)
        )
        identities = identities and (
            abs(overall_measure(m, K.OSR).value - mix) <= 1e-12
        )
    checks.append(("(d) mean ordering chain on 10^4 matrices", chain))
    checks.append(("(e) exact identities on 10^4 matrices", identities))
    conclude(7, "line and identity property suites", checks)


def test_criterion_8_chance_model_inversion():
    checks = []
    recovered = reconstructed = True
    for k in (3, 4, 5):
        rng = np.random.default_rng(800 + k)
        for _ in range(10):
            matrix, a, _ = forward_matrix(rng, k)
            fit = fit_quasi_independence(matrix)
            recovered = recovered and (
                np.max(np.abs(np.asarray(fit.a) - a)) < 1e-6
            )
            gap = np.max(np.abs(
                off_diagonal(fit.reconstructed())
                - off_diagonal(matrix.cells)
            ))
            reconstructed = reconstructed and gap < 1e-8
    checks.append(("row factors recovered within 1e-6", recovered))
    checks.append(("off-diagonals reconstructed within 1e-8", reconstructed))

    try:
        fit_quasi_independence(ConfusionMatrix([[0.4, 0.1], [0.1, 0.4]]))
        checks.append(("two-class input rejected", False))
    except TooFewClasses:
        checks.append(("two-class input rejected", True))
    try:
        fit_quasi_independence(ConfusionMatrix(np.diag([0.2, 0.3, 0.5])))
        checks.append(("error-free input rejected", False))
    except PerfectClassification:
        checks.append(("error-free input rejected", True))
    conclude(8, "chance-model inversion", checks)


def test_criterion_9_imbalance_proportions():
    checks = []
    five = class_proportions(5, 1.0)
    checks.append((
        "five-class halving sequence to 2 decimals",
        [round(v, 2) for v in five.pi] == [0.52, 0.26, 0.13, 0.06, 0.03],
    ))
    checks.append((
        "balanced endpoint exact",
        all(
            all(v == 1.0 / k for v in class_proportions(k, 0.0).pi)
            for k in range(2, 11)
        ),
    ))
    rng = np.random.default_rng(909)
    sums_ok = True
    for _ in range(100):
        k = int(rng.integers(2, 12))
        p = float(rng.uniform(0.0, 1.0))
        total = float(np.sum(class_proportions(k, p).pi))
        sums_ok = sums_ok and abs(total - 1.0) <= 1e-12
    checks.append(("100 random parameter draws sum to 1", sums_ok))
    conclude(9, "imbalance proportions", checks)

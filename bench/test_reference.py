"""The reference module against the paper's printed figures.

The values are the paper's case-study grid and the cyclic-shift value -1/2
(the figures of tests/test_acceptance.py criteria 1 to 4), and the paper's
measure groups. Nothing here compares with program output.
"""

import numpy as np
import pytest

import reference as ref

FIRST = [[0.30, 0.12, 0.02], [0.02, 0.19, 0.01], [0.01, 0.03, 0.30]]
SECOND = [[0.33, 0.11, 0.00], [0.00, 0.12, 0.00], [0.00, 0.11, 0.33]]
PERFECT = [[0.33, 0.0, 0.0], [0.0, 0.34, 0.0], [0.0, 0.0, 0.33]]
SPREAD_ERRORS = [[0.0, 0.10, 0.10], [0.30, 0.0, 0.10], [0.20, 0.20, 0.0]]
CYCLIC_SHIFT = [[0.0, 0.0, 0.33], [0.33, 0.0, 0.0], [0.0, 0.34, 0.0]]
CYCLIC_SHIFT_EXACT = [[0.0, 0.0, 1 / 3], [1 / 3, 0.0, 0.0], [0.0, 1 / 3, 0.0]]

PRINTED_PER_CLASS = {
    "tpr": (0.91, 0.56, 0.91), "tnr": (0.79, 0.95, 0.94),
    "ppv": (0.68, 0.86, 0.88), "npv": (0.95, 0.81, 0.95),
    "f": (0.78, 0.68, 0.90), "jcc": (0.64, 0.51, 0.81),
    "icsi": (0.59, 0.42, 0.79),
}
PRINTED_MULTI = {"osr": 0.79, "csi": 0.60, "ckc": 0.69, "spc": 0.68, "mre": 0.69}
AGREEMENT = ("ckc", "spc", "mre")


def values(cells):
    return {k: v[0] for k, v in ref.measures(cells).items()}


def test_case_study_grid():
    got = values(FIRST)
    for kind, printed in PRINTED_PER_CLASS.items():
        assert np.abs(got[kind] - printed).max() <= 0.006, kind
    for kind, printed in PRINTED_MULTI.items():
        assert abs(got[kind] - printed) <= 0.006, kind


def test_extreme_cases():
    perfect = values(PERFECT)
    for kind in ("tpr", "tnr", "ppv", "npv", "f", "jcc", "icsi", "kul"):
        assert (perfect[kind] == 1.0).all(), kind
    for kind in ("osr", "csi") + AGREEMENT:
        assert perfect[kind] == pytest.approx(1.0, abs=1e-12), kind
    assert (perfect["fpr"] == 0.0).all()
    worst = values(SPREAD_ERRORS)
    assert worst["ckc"] == pytest.approx(-0.43, abs=0.005)
    assert worst["spc"] == pytest.approx(-0.61, abs=0.005)
    assert worst["mre"] == pytest.approx(-0.50, abs=0.005)
    assert worst["tnr"][0] == pytest.approx(0.6, abs=1e-12)


def test_second_classifier():
    got = values(SECOND)
    assert got["osr"] == pytest.approx(0.78, abs=1e-12)
    assert got["csi"] == pytest.approx(0.62, abs=0.005)
    for kind in AGREEMENT:
        assert got[kind] == pytest.approx(0.67, abs=0.005), kind
    first = values(FIRST)
    assert first["osr"] > got["osr"] and first["csi"] < got["csi"]


def test_cyclic_shift_is_minus_one_half():
    exact = values(CYCLIC_SHIFT_EXACT)
    printed = values(CYCLIC_SHIFT)
    for kind in AGREEMENT:
        assert exact[kind] == pytest.approx(-0.5, abs=1e-9), kind
        assert printed[kind] == pytest.approx(-0.5, abs=0.005), kind


def test_undefined_where_the_denominator_is_zero():
    # class 1 never predicted, class 2 never true
    got = values([[0.0, 0.0, 0.0], [0.2, 0.0, 0.1], [0.1, 0.0, 0.6]])
    assert np.isnan(got["ppv"][0]) and not np.isnan(got["tpr"][0])
    assert np.isnan(got["tpr"][1]) and np.isnan(got["csi"])
    assert got["f"][1] == 0.0  # predicted but never true: 0 / 0.3, defined


def test_paper_groups():
    multiclass = ["osr", "ckc", "spc", "mre", "csi"]
    groups, pairs = ref.partition(multiclass, None, 3, 0.0)
    assert sorted(map(sorted, groups)) == [["ckc", "mre", "osr", "spc"], ["csi"]]
    assert pairs == 101 * 101
    groups, _ = ref.partition(multiclass, None, 3, 0.5)
    assert sorted(map(sorted, groups)) == [["ckc"], ["csi"], ["mre", "osr", "spc"]]


def test_halving_proportions():
    assert [round(v, 2) for v in ref.proportions(5, 1.0)] == [0.52, 0.26, 0.13, 0.06, 0.03]
    assert (ref.proportions(4, 0.0) == 0.25).all()

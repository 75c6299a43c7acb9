"""The checks reject corrupted program output, so they are not vacuous.

Each test takes real output of the program, shows that it passes, corrupts it
in one place and shows that the matching check rejects it.
"""

import json

import pytest

import checks
import workloads

SEED = 7


@pytest.fixture(scope="module")
def figures(tmp_path_factory):
    wl = workloads.Figures(SEED, tmp_path_factory.mktemp("figures"))
    rnd = wl.run_round(sample=True)
    assert rnd.failed == 0 and wl.check(rnd.outputs) == []
    return wl, rnd.outputs


def test_crossing_moved_by_1e_3(figures):
    wl, solved = figures
    (fig, p), lines = next(iter(solved.items()))
    (kind, ci), line = next(iter(lines.items()))
    rows = workloads._rows(line)
    ix = next(i for i, r in enumerate(rows) if r[2] and 0.1 < r[1] < 0.9)
    rows[ix] = (rows[ix][0], rows[ix][1] + 1e-3, *rows[ix][2:])
    assert checks.check_line(kind, ci, workloads.K, p, rows)


def test_svg_with_one_polyline_removed(figures):
    wl, solved = figures
    (fig, p), lines = next(iter(solved.items()))
    text = wl._svg(fig, p).read_text()
    polyline = next(line for line in text.splitlines() if line.startswith("<polyline"))
    rows = [workloads._rows(lines[m]) for m in workloads.FIGURES[fig]]
    assert checks.check_svg(text, rows) == []
    assert checks.check_svg(text.replace(polyline + "\n", "", 1), rows)


def test_two_kinds_swapped_between_groups(tmp_path):
    wl = workloads.Equivalence(SEED, tmp_path)
    rnd = wl.run_round(sample=True)
    assert rnd.failed == 0 and wl.check(rnd.outputs) == []
    kinds, ci, p, groups, pairs = rnd.outputs[0]
    big = next(g for g in groups if len(g) > 1)
    small = next(g for g in groups if len(g) == 1)
    big[0], small[0] = small[0], big[0]
    assert wl.check([(kinds, ci, p, groups, pairs)])


def test_gt_theta_moved_by_1e_4(tmp_path):
    wl = workloads.Catalog(SEED, tmp_path)
    rnd = wl.run_round(sample=True)
    assert rnd.failed == 0 and wl.check(rnd.outputs) == []
    ix, doc = next((ix, doc) for ix, doc in rnd.outputs
                   if doc["per_class"][0]["gt"] is not None)
    doc["per_class"][0]["gt"] += 1e-4
    assert wl.check([(ix, doc)])


def test_measure_moved_by_1e_9_or_made_undefined(tmp_path):
    wl = workloads.Catalog(SEED, tmp_path)
    rnd = wl.run_round(sample=True)
    ix, doc = rnd.outputs[0]
    cells = wl.files[ix].cells
    assert checks.check_measures(cells, doc) == []
    doc["per_class"][1]["ppv"] += 1e-9
    assert checks.check_measures(cells, doc)
    doc["per_class"][1]["ppv"] -= 1e-9
    doc["overall"]["ckc"] = None
    assert checks.check_measures(cells, doc)


def test_generate_cell_changed_in_its_6th_digit(tmp_path):
    from confmeasures import cli
    bundle = tmp_path / "bundle"
    assert cli.main(["generate", "--k", "3", "--p", "0.5", "--output", str(bundle)]) == 0
    assert checks.check_bundle(bundle, 3, 0.5) == []
    path = bundle / "x_0050.csv"
    cells = [row.split(",") for row in path.read_text().splitlines()]
    digits = cells[0][1]  # an off-diagonal cell, 0.xxxxxxxxxxxx
    lead = len(digits) - len(digits[2:].lstrip("0"))
    pos = lead + 5  # the 6th significant digit
    cells[0][1] = digits[:pos] + str((int(digits[pos]) + 1) % 10) + digits[pos + 1:]
    path.write_text("".join(",".join(row) + "\n" for row in cells))
    assert checks.check_bundle(bundle, 3, 0.5)


def test_cli_outputs_pass_the_checks(tmp_path):
    wl = workloads.Cli(SEED, tmp_path)
    rnd = wl.run_round()
    assert rnd.failed == 0 and rnd.errors == []
    assert wl.check(rnd.outputs) == []
    gt = json.loads((tmp_path / "gt.json").read_text())
    gt["theta"][0] += 1e-4
    assert checks.check_gt(wl.cells, gt["a"], gt["b"], gt["theta"])

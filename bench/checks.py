"""Checks of the program's outputs.

Every check compares an output with ``reference`` or with a property the
method must have, never with a saved copy of earlier output. Each returns a
list of problems; an empty list means the output passed.

A line row is (c_x, c_y or None, crossing, preference), with preference one
of "first", "second", "tie" or "na", as in the line CSV.
"""

from __future__ import annotations

import csv
import io
import pathlib
import xml.etree.ElementTree as ET

import numpy as np

import reference as ref

CROSSING_TOL = 1e-12
MEASURE_TOL = 1e-12
MARGIN_TOL = 1e-8
RECOVERY_TOL = 1e-6
CLOSED_FORM_TOL = 1e-9
INVARIANCE_TOL = 1e-7
# a cell printed at 12 significant digits is within half a unit of the 12th
# digit (5e-12 relative); the rest covers the last bit of either computation
GENERATE_REL_TOL = 6e-12
# dense c_y probe for no-crossing rows, plus the solver's 32-point scan
PROBE = np.union1d(np.linspace(0.0, 1.0, 1001), np.linspace(0.0, 1.0, 32))
SVG_NS = "{http://www.w3.org/2000/svg}"
PAPER_GROUPS = {
    0.0: [{"osr", "ckc", "spc", "mre"}, {"csi"}],
    0.5: [{"osr", "spc", "mre"}, {"ckc"}, {"csi"}],
}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def label(kind, class_index):
    return kind if class_index is None else f"{kind}{class_index}"


def parse_line_csv(text: str):
    """Rows of a line CSV, or raise ValueError."""
    records = list(csv.reader(io.StringIO(text)))
    if not records or records[0] != ["c_x", "c_y", "crossing", "preference"]:
        raise ValueError("bad header")
    rows = []
    for rec in records[1:]:
        if len(rec) != 4 or rec[2] not in ("0", "1"):
            raise ValueError(f"bad row {rec}")
        rows.append((float(rec[0]), None if rec[1] == "" else float(rec[1]),
                     rec[2] == "1", rec[3]))
    return rows


def check_csv_readback(text: str, rows) -> list[str]:
    """The CSV holds exactly ``rows`` at 12 significant digits."""
    try:
        back = parse_line_csv(text)
    except ValueError as exc:
        return [f"line CSV does not parse: {exc}"]
    if len(back) != len(rows):
        return [f"line CSV has {len(back)} rows, expected {len(rows)}"]
    problems = []
    for got, want in zip(back, rows):
        expect = (float(_fmt(want[0])),
                  None if want[1] is None else float(_fmt(want[1])),
                  want[2], want[3])
        if got != expect:
            problems.append(f"line CSV row {got} reads back differently from {want}")
    return problems


def check_line(kind: str, class_index, k: int, p: float, rows) -> list[str]:
    """A discrimination line against the reference and its closed forms."""
    name = label(kind, class_index)
    grid = ref.grid()
    if len(rows) != grid.size or any(abs(r[0] - c) > 1e-12 for r, c in zip(rows, grid)):
        return [f"{name} p={p}: rows do not follow the 0.01 grid"]
    problems = []
    c_x = np.array([r[0] for r in rows])
    at_x = ref.line_values(kind, class_index, k, p, c_x, first_only=False)
    dense = ref.line_values(kind, class_index, k, p, PROBE, first_only=True)
    for ix, r in enumerate(rows):
        if r[3] == "na":
            if not (np.isnan(at_x[ix]) or np.isnan(dense).any()):
                problems.append(f"{name} p={p} c_x={r[0]}: 'na' but the measure "
                                "is defined on the whole probe")
        elif r[2]:
            if r[3] != "tie" or r[1] is None or not 0.0 <= r[1] <= 1.0:
                problems.append(f"{name} p={p} c_x={r[0]}: malformed crossing {r}")
        elif r[1] is not None or r[3] not in ("first", "second"):
            problems.append(f"{name} p={p} c_x={r[0]}: malformed no-crossing {r}")
        else:
            gap = dense - at_x[ix]
            wins = (gap > 0).all() if r[3] == "second" else (gap < 0).all()
            if not wins:
                problems.append(f"{name} p={p} c_x={r[0]}: '{r[3]}' does not win "
                                "on the whole c_y probe")
    crossing = [ix for ix, r in enumerate(rows) if r[2] and r[3] == "tie" and r[1] is not None]
    if crossing:
        c_y = np.array([rows[ix][1] for ix in crossing])
        at_y = ref.line_values(kind, class_index, k, p, c_y, first_only=True)
        for ix, vy in zip(crossing, at_y):
            if not abs(vy - at_x[ix]) <= CROSSING_TOL:
                problems.append(f"{name} p={p} c_x={rows[ix][0]}: series differ by "
                                f"{abs(vy - at_x[ix]):.3g} at the crossing")
    pi1 = ref.proportions(k, p)[0]
    for r in rows:
        if not r[2] or r[1] is None:
            continue
        if kind == "osr" and abs(r[1] - (r[0] - (1.0 - pi1)) / pi1) > CLOSED_FORM_TOL:
            problems.append(f"osr p={p} c_x={r[0]}: off (c_x - (1 - pi1)) / pi1")
        if kind == "tpr" and class_index == 1 and abs(r[1] - r[0]) > CLOSED_FORM_TOL:
            problems.append(f"tpr1 p={p} c_x={r[0]}: off the identity")
        if p == 0.0 and r[1] > r[0] + CLOSED_FORM_TOL:
            problems.append(f"{name} p=0 c_x={r[0]}: crossing above the diagonal")
    if kind == "tpr" and class_index == 1 and not all(r[2] for r in rows):
        problems.append(f"tpr1 p={p}: the identity line must cross everywhere")
    return problems


def check_invariant(name: str, rows_a, rows_b) -> list[str]:
    """A line that must not depend on the imbalance p."""
    if len(rows_a) != len(rows_b):
        return [f"{name}: lines differ in length across p"]
    for a, b in zip(rows_a, rows_b):
        if a[2] != b[2] or a[3] != b[3] or (
                a[2] and abs(a[1] - b[1]) > INVARIANCE_TOL):
            return [f"{name}: row {a} at p=0 differs from {b} at p=0.5"]
    return []


def check_svg(text: str, lines) -> list[str]:
    """Well-formed SVG with one polyline per line that has crossings, each
    with one point per crossing, in plot order."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    got = [len(p.get("points", "").split()) for p in root.iter(SVG_NS + "polyline")]
    want = [n for n in (sum(1 for r in rows if r[2]) for rows in lines) if n]
    if got != want:
        return [f"SVG polylines have {got} points, expected {want}"]
    return []


def check_partition(kinds, class_index, k: int, p: float, groups,
                    pairs_compared: int) -> list[str]:
    """A partition equals the reference partition, and the paper's groups."""
    want, pairs = ref.partition(kinds, class_index, k, p)
    got = [set(g) for g in groups]
    name = f"{','.join(kinds)} class={class_index} p={p}"
    problems = []
    if sum(len(g) for g in got) != len(set(kinds)) or sorted(map(sorted, got)) != sorted(
            map(sorted, want)):
        problems.append(f"{name}: groups {groups} differ from the reference {want}")
    if pairs_compared != pairs:
        problems.append(f"{name}: {pairs_compared} pairs compared, expected {pairs}")
    paper = PAPER_GROUPS.get(p)
    if k == 3 and set(kinds) == set(ref.MULTICLASS) and paper is not None and (
            sorted(map(sorted, got)) != sorted(map(sorted, paper))):
        problems.append(f"{name}: groups {groups} differ from the paper's {paper}")
    return problems


def check_measures(cells, doc: dict) -> list[str]:
    """The 14 non-GT measures of a report JSON against the reference, with
    undefined exactly where the reference has a zero denominator."""
    cells = np.asarray(cells, dtype=float)
    k = cells.shape[0]
    want = ref.measures(cells)
    per_class = doc.get("per_class", [])
    overall = doc.get("overall", {})
    if doc.get("k") != k or [e.get("class") for e in per_class] != list(range(1, k + 1)):
        return [f"report is not a {k}-class report"]
    names = [f"{kind}{i + 1}" for kind in ref.PER_CLASS for i in range(k)]
    names += list(ref.MULTICLASS)
    got = [entry.get(kind) for kind in ref.PER_CLASS for entry in per_class]
    got += [overall.get(kind) for kind in ref.MULTICLASS]
    expect = np.concatenate([want[kind][0] for kind in ref.PER_CLASS]
                            + [want[kind] for kind in ref.MULTICLASS])
    undefined = np.array([v is None for v in got])
    values = np.array([np.nan if v is None else v for v in got], dtype=float)
    close = np.abs(values - expect) <= MEASURE_TOL * np.maximum(1.0, np.abs(expect))
    bad = (undefined != np.isnan(expect)) | (~undefined & ~close)
    return [f"{names[i]}: {got[i]!r} where the reference has "
            f"{float(expect[i])!r}" for i in np.flatnonzero(bad)]


def check_gt(cells, a, b, theta, true_a=None) -> list[str]:
    """A GT fit: off-diagonal margins reproduced, sum(a) = 1,
    theta = (TPR - a) / (1 - a), and a known ``true_a`` recovered."""
    cells = np.asarray(cells, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    off = cells - np.diag(np.diag(cells))
    fitted = np.outer(a, b)
    np.fill_diagonal(fitted, 0.0)
    problems = []
    for axis, side in ((1, "row"), (0, "column")):
        gap = np.abs(fitted.sum(axis=axis) - off.sum(axis=axis)).max()
        if not gap <= MARGIN_TOL:
            problems.append(f"GT fit misses the off-diagonal {side} sums by {gap:.3g}")
    if not abs(a.sum() - 1.0) <= 1e-12:
        problems.append(f"GT fit has sum(a) = {a.sum()!r}")
    tpr = ref.measures(cells)["tpr"][0]
    for i, got in enumerate(theta):
        if np.isnan(tpr[i]):
            if got is not None:
                problems.append(f"GT theta{i + 1} is {got!r} for an empty true class")
            continue
        expect = (tpr[i] - a[i]) / (1.0 - a[i])
        if got is None or not _close(got, expect, MEASURE_TOL):
            problems.append(f"GT theta{i + 1} is {got!r}, (TPR - a)/(1 - a) is {expect!r}")
    if true_a is not None:
        gap = np.abs(a - true_a).max()
        if not gap <= RECOVERY_TOL:
            problems.append(f"GT fit misses the generating a by {gap:.3g}")
    return problems


def check_bundle(folder: pathlib.Path, k: int, p: float) -> list[str]:
    """A ``generate`` bundle: its index and every cell against the reference
    series at 12 significant digits."""
    c = ref.grid()
    pi = ref.proportions(k, p)
    series = {"x": ref.series(pi, c, first_only=False),
              "y": ref.series(pi, c, first_only=True)}
    try:
        index = (folder / "index.csv").read_text().splitlines()
    except OSError as exc:
        return [f"bundle index: {exc}"]
    if index[:1] != ["series,index,c,path"] or len(index) != 1 + 2 * c.size:
        return [f"bundle index has {len(index)} lines, expected {1 + 2 * c.size}"]
    problems = []
    for line in index[1:]:
        name, ix, c_val, rel = line.split(",")
        ix = int(ix)
        if name not in series or not abs(float(c_val) - c[ix]) <= 1e-12:
            problems.append(f"bundle index row {line!r} is off the grid")
            continue
        try:
            got = np.array([[float(t) for t in row.split(",")]
                            for row in (folder / rel).read_text().splitlines()])
        except (OSError, ValueError) as exc:
            problems.append(f"bundle {rel}: {exc}")
            continue
        want = series[name][ix]
        if got.shape != want.shape or not (
                np.abs(got - want) <= GENERATE_REL_TOL * np.abs(want) + 1e-300).all():
            problems.append(f"bundle {rel} differs from the reference series")
    return problems

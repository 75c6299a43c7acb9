"""The benchmark's four workloads.

Each workload is built in a fresh interpreter (its set-up: the package import
and the inputs made from the seed) and then runs rounds. A round runs every
operation once, one at a time (closed loop, one client), so every run
attempts whole rounds of the same operations. ``check`` then tests what the
round produced; it runs outside the timed part.

The program is called through module attributes (``self.disc.discrimination_line``)
so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import pathlib
import subprocess
import sys
import time
import traceback

import numpy as np

import checks
from checks import label

K = 3
P_VALUES = (0.0, 0.5)
STEP = 0.01
BENCH_DIR = pathlib.Path(__file__).resolve().parent

# The line catalog of scripts/make_figures.py, less ppv1, icsi1, kul1 and csi:
# their rows are all 'na' at k=3 (see README.md), so they would time a scan
# that stops at its first undefined probe and plot nothing.
FIGURES = {
    "marginal_rates_class1": [("tpr", 1), ("tnr", 1), ("npv", 1)],
    "overlap_class1": [("f", 1), ("jcc", 1)],
    "marginal_rates_class2": [("tpr", 2), ("tnr", 2), ("ppv", 2), ("npv", 2)],
    "multiclass": [("osr", None), ("ckc", None), ("spc", None), ("mre", None)],
}
INVARIANT_LINES = [("tpr", 1), ("npv", 1), ("tpr", 2), ("npv", 2)]

KIND_SETS = [
    (("osr", "ckc", "spc", "mre", "csi"), None),
    (("tpr", "tnr", "ppv", "npv", "f", "jcc", "icsi", "kul"), 1),
    (("tpr", "tnr", "ppv", "npv", "f", "jcc", "icsi", "kul"), 2),
]

# the first case-study classifier of the paper, as a count table
CASE_STUDY_COUNTS = [[30, 12, 2], [2, 19, 1], [1, 3, 30]]


@dataclasses.dataclass
class Round:
    # seconds per operation that succeeded, keyed by the operation
    durations: dict = dataclasses.field(default_factory=dict)
    failed: int = 0
    outputs: list = dataclasses.field(default_factory=list)
    errors: list[str] = dataclasses.field(default_factory=list)


def _rows(line):
    return [(r.c_x, r.c_y, r.crossing,
             "na" if r.preference is None else r.preference.value) for r in line.rows]


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


class Figures:
    """Solve each discrimination line of the figure catalog at p = 0 and 0.5,
    write its line CSV, and each figure's SVG once its lines are solved."""

    name = "figures"

    def __init__(self, seed: int, out: pathlib.Path):
        self.disc = importlib.import_module("confmeasures.discrimination")
        self.io = importlib.import_module("confmeasures.matrixio")
        self.plot = importlib.import_module("confmeasures.plotting")
        kinds = importlib.import_module("confmeasures.measures")
        self.out = out
        self.ops = [(fig, p, kind, ci, kinds.parse_kind(kind))
                    for fig, members in FIGURES.items() for p in P_VALUES
                    for kind, ci in members]
        np.random.default_rng(seed).shuffle(self.ops)
        for p in P_VALUES:
            (out / f"p{p:g}").mkdir(parents=True, exist_ok=True)

    def _csv(self, fig, p, kind, ci):
        return self.out / f"p{p:g}" / f"{fig}_{label(kind, ci)}.csv"

    def _svg(self, fig, p):
        return self.out / f"p{p:g}" / f"{fig}.svg"

    def run_round(self, tracer=None, sample=False) -> Round:
        ops = [op for op in self.ops if not sample or (op[0], op[1]) == ("overlap_class1", 0.0)]
        rnd = Round()
        solved: dict[tuple, dict] = {}
        for op in ops:
            fig, p, kind, ci, mkind = op
            start = time.perf_counter()
            try:
                line = self.disc.discrimination_line(mkind, k=K, p=p, class_index=ci,
                                                     grid_step=STEP)
                self.io.write_line_csv(line, self._csv(fig, p, kind, ci))
            except Exception as exc:  # a failed operation is counted, the run goes on
                rnd.failed += 1
                rnd.errors.append(f"{fig} {label(kind, ci)} p={p}: {_error(exc)}")
                continue
            rnd.durations[op[:4]] = time.perf_counter() - start
            lines = solved.setdefault((fig, p), {})
            lines[(kind, ci)] = line
            if len(lines) == len(FIGURES[fig]):
                members = FIGURES[fig]
                doc = self.plot.PlotDocument(
                    title=f"{fig.replace('_', ' ')}  (k={K}, p={p:g})",
                    lines=tuple(self.plot.PlotLine(label=label(*m), rows=lines[m].rows)
                                for m in members))
                self.plot.write_svg(doc, self._svg(fig, p))
        rnd.outputs = solved
        return rnd

    def check(self, solved) -> list[str]:
        problems = []
        rows = {}
        for (fig, p), lines in solved.items():
            for (kind, ci), line in lines.items():
                rows[(kind, ci, p)] = r = _rows(line)
                problems += checks.check_csv_readback(
                    self._csv(fig, p, kind, ci).read_text(), r)
                problems += checks.check_line(kind, ci, K, p, r)
            if len(lines) == len(FIGURES[fig]):
                problems += checks.check_svg(self._svg(fig, p).read_text(),
                                             [rows[(*m, p)] for m in FIGURES[fig]])
        for kind, ci in INVARIANT_LINES:
            if all((kind, ci, p) in rows for p in P_VALUES):
                problems += checks.check_invariant(
                    label(kind, ci), *(rows[(kind, ci, p)] for p in P_VALUES))
        return problems


class Equivalence:
    """Partition three kind sets at p = 0 and 0.5 by rank concordance over
    the series pairs, as ``confmeasures equivalence`` does."""

    name = "equivalence"

    def __init__(self, seed: int, out: pathlib.Path):
        self.disc = importlib.import_module("confmeasures.discrimination")
        parse_kind = importlib.import_module("confmeasures.measures").parse_kind
        rng = np.random.default_rng(seed)
        self.ops = []
        for kinds, ci in KIND_SETS:
            for p in P_VALUES:
                order = list(kinds)
                rng.shuffle(order)
                self.ops.append((order, ci, p, [parse_kind(kd) for kd in order]))
        rng.shuffle(self.ops)

    def run_round(self, tracer=None, sample=False) -> Round:
        ops = [op for op in self.ops if not sample or (op[1], op[2]) == (None, 0.5)]
        rnd = Round()
        for ix, (kinds, ci, p, mkinds) in enumerate(ops):
            start = time.perf_counter()
            try:
                pairs = self.disc.series_pairs(k=K, p=p, grid_step=STEP)
                part = self.disc.equivalence_classes(mkinds, pairs, class_index=ci)
            except Exception as exc:  # a failed operation is counted, the run goes on
                rnd.failed += 1
                rnd.errors.append(f"{','.join(kinds)} p={p}: {_error(exc)}")
                continue
            rnd.durations[ix] = time.perf_counter() - start
            rnd.outputs.append((kinds, ci, p, [[kd.value for kd in g] for g in part.groups],
                                part.pairs_compared))
        return rnd

    def check(self, outputs) -> list[str]:
        problems = []
        for kinds, ci, p, groups, pairs in outputs:
            problems += checks.check_partition(kinds, ci, K, p, groups, pairs)
        return problems


@dataclasses.dataclass
class MatrixFile:
    path: pathlib.Path
    counts: bool
    cells: np.ndarray  # the proportions the file encodes
    true_a: np.ndarray | None = None


def _classifier_counts(rng, k):
    """Counts of a classifier that gets 40-95% of each class right."""
    cells = np.zeros((k, k), dtype=np.int64)
    for j in range(k):
        accuracy = rng.uniform(0.4, 0.95)
        probs = np.insert(rng.dirichlet(np.full(k - 1, 0.7)) * (1.0 - accuracy), j, accuracy)
        cells[:, j] = rng.multinomial(int(rng.integers(20, 400)), probs)
    if not (cells - np.diag(np.diag(cells))).any():
        cells[1, 0] += 1
    return cells


def _forward(rng, k):
    """Quasi-independent proportions p_ij = a_i * b_j off the diagonal, with
    the generating ``a`` (sum 1)."""
    a = rng.dirichlet(np.ones(k)) * 0.9 + 0.1 / k
    a /= a.sum()
    pi = rng.dirichlet(np.ones(k)) * 0.8 + 0.2 / k
    pi /= pi.sum()
    b = rng.uniform(0.05, 0.5, size=k) * pi
    cells = np.outer(a, b)
    cells[np.diag_indices(k)] = pi - b * (1.0 - a)
    return cells, a


def make_catalog(seed: int, folder: pathlib.Path) -> list[MatrixFile]:
    """480 matrix files: 40 classifier-like count or proportion tables for each
    k from 3 to 12, 16 count tables with k = 20, 48 quasi-independent tables
    with a known ``a`` (k 3 to 8), and 16 count tables with one empty true
    class and one class never predicted. Half are CSV and half JSON, half of
    each with a header (JSON: a {"cells": ...} object). Many files make the
    work of a round nearly the same for every seed."""
    rng = np.random.default_rng(seed)
    tables = []  # (counts table or proportions, is counts, true a)
    for k in range(3, 13):
        for i in range(40):
            counts = _classifier_counts(rng, k)
            tables.append((counts, True, None) if i % 10 < 7
                          else (counts / counts.sum(), False, None))
    for _ in range(16):
        tables.append((_classifier_counts(rng, 20), True, None))
    for k in range(3, 9):
        for _ in range(8):
            cells, a = _forward(rng, k)
            tables.append((cells, False, a))
    for i in range(16):
        k = 3 + i % 8
        counts = _classifier_counts(rng, k)
        empty, unpredicted = rng.choice(k, size=2, replace=False)
        counts[:, empty] = 0
        counts[unpredicted, :] = 0
        if not (counts - np.diag(np.diag(counts))).any():
            counts[(unpredicted + 1) % k, (empty + 1) % k] += 1
        tables.append((counts, True, None))
    forms = [("csv", False), ("csv", True), ("json", False), ("json", True)]
    forms = [forms[i % 4] for i in range(len(tables))]
    rng.shuffle(forms)
    order = rng.permutation(len(tables))
    folder.mkdir(parents=True, exist_ok=True)
    files = []
    for n, ix in enumerate(order):
        table, counts, true_a = tables[ix]
        fmt, header = forms[n]
        cells = [[int(v) if counts else float(v) for v in row] for row in table]
        path = folder / f"m{n:03d}.{fmt}"
        if fmt == "csv":
            lines = [",".join(f"c{j + 1}" for j in range(len(cells)))] if header else []
            lines += [",".join(repr(v) for v in row) for row in cells]
            path.write_text("\n".join(lines) + "\n")
        else:
            path.write_text(json.dumps({"cells": cells} if header else cells))
        proportions = np.asarray(table, dtype=float)
        files.append(MatrixFile(path, counts, proportions / proportions.sum()
                                if counts else proportions, true_a))
    return files


class Catalog:
    """Read each matrix file, report the whole measure catalog and render it
    as the JSON document of ``confmeasures measure``."""

    name = "catalog"

    def __init__(self, seed: int, out: pathlib.Path):
        self.io = importlib.import_module("confmeasures.matrixio")
        self.measures = importlib.import_module("confmeasures.measures")
        self.gt = importlib.import_module("confmeasures.gt")
        self.errors = importlib.import_module("confmeasures.errors")
        self.files = make_catalog(seed, out / "inputs")
        self._fits: dict[int, tuple | None] = {}

    def run_round(self, tracer=None, sample=False) -> Round:
        rnd = Round()
        for ix, f in enumerate(self.files[:10] if sample else self.files):
            start = time.perf_counter()
            try:
                m = self.io.parse_matrix(self.io.MatrixDocument(path=str(f.path),
                                                                counts=f.counts))
                doc = self.measures.report(m).to_json_dict()
            except Exception as exc:  # a failed operation is counted, the run goes on
                rnd.failed += 1
                rnd.errors.append(f"{f.path.name}: {_error(exc)}")
                continue
            rnd.durations[ix] = time.perf_counter() - start
            rnd.outputs.append((ix, doc))
        return rnd

    def _fit(self, ix):
        """The program's GT fit of file ``ix`` (None if it refuses to fit)."""
        if ix not in self._fits:
            f = self.files[ix]
            m = self.io.parse_matrix(self.io.MatrixDocument(path=str(f.path), counts=f.counts))
            try:
                fit = self.gt.gt_index(m).fit
                self._fits[ix] = (fit.a, fit.b)
            except self.errors.ConfmeasuresError:
                self._fits[ix] = None
        return self._fits[ix]

    def check(self, outputs) -> list[str]:
        problems = []
        for ix, doc in outputs:
            f = self.files[ix]
            found = checks.check_measures(f.cells, doc)
            theta = [entry.get("gt") for entry in doc.get("per_class", [])]
            fit = self._fit(ix)
            if fit is None:
                if any(t is not None for t in theta):
                    found.append("GT reported although the fit is refused")
            else:
                found += checks.check_gt(f.cells, *fit, theta, f.true_a)
            problems += [f"{f.path.name}: {p}" for p in found]
        return problems


class Cli:
    """Run the CLI in a subprocess per command, one at a time, on the paper's
    settings, then check the files each command wrote."""

    name = "cli"
    COMMANDS = ("measure", "gt", "discriminate", "equivalence", "generate", "plot")

    def __init__(self, seed: int, out: pathlib.Path):
        importlib.import_module("confmeasures.cli")  # the import every command pays
        rng = np.random.default_rng(seed)
        perm = rng.permutation(K)  # relabel the classes of the case study
        counts = np.asarray(CASE_STUDY_COUNTS)[np.ix_(perm, perm)]
        self.cells = counts / counts.sum()
        self.kinds = list(KIND_SETS[0][0])
        rng.shuffle(self.kinds)
        self.out = out
        out.mkdir(parents=True, exist_ok=True)
        matrix = out / "case_study.csv"
        matrix.write_text("c1,c2,c3\n" + "".join(",".join(map(str, r)) + "\n"
                                                 for r in counts.tolist()))
        self.args = {
            "measure": ["measure", "--input", matrix, "--counts",
                        "--output", out / "measure.json"],
            "gt": ["gt", "--input", matrix, "--counts", "--output", out / "gt.json"],
            "discriminate": ["discriminate", "--measure", "osr", "--k", "3", "--p", "0",
                             "--output", out / "osr.csv"],
            "equivalence": ["equivalence", "--kinds", ",".join(self.kinds), "--k", "3",
                            "--p", "0.5", "--output", out / "equivalence.json"],
            "generate": ["generate", "--k", "3", "--p", "0.5", "--output", out / "bundle"],
            "plot": ["plot", "--input", out / "osr.csv", "--svg", out / "osr.svg"],
        }
        self.env = dict(os.environ, PYTHONPATH=str(BENCH_DIR.parent / "src"))

    def run_round(self, tracer=None, sample=False) -> Round:
        rnd = Round()
        for command in self.COMMANDS:
            args = [str(a) for a in self.args[command]]
            if tracer is None:
                cmd = [sys.executable, "-m", "confmeasures.cli", *args]
            else:
                spans = self.out / f"spans_{command}.npz"
                cmd = [sys.executable, str(BENCH_DIR / "cli_traced.py"), str(spans), *args]
                ix = tracer.begin(f"cli.{command}")
            start = time.perf_counter()
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=120)
            duration = time.perf_counter() - start
            if tracer is not None:
                if spans.exists():
                    tracer.merge(spans)
                tracer.finish(ix)
            if proc.returncode != 0:
                rnd.failed += 1
                rnd.errors.append(f"{command}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            rnd.durations[command] = duration
            rnd.outputs.append((command, proc.stderr))
        return rnd

    def check(self, outputs) -> list[str]:
        problems = [f"{command}: stderr is not empty: {err.strip()[:200]}"
                    for command, err in outputs if err]
        done = {command for command, _ in outputs}
        out = self.out
        try:
            if "gt" in done:
                gt = json.loads((out / "gt.json").read_text())
                problems += checks.check_gt(self.cells, gt["a"], gt["b"], gt["theta"])
            if "measure" in done:
                doc = json.loads((out / "measure.json").read_text())
                problems += checks.check_measures(self.cells, doc)
                if "gt" in done:
                    theta = [entry.get("gt") for entry in doc.get("per_class", [])]
                    problems += checks.check_gt(self.cells, gt["a"], gt["b"], theta)
            if "discriminate" in done:
                rows = checks.parse_line_csv((out / "osr.csv").read_text())
                problems += checks.check_line("osr", None, K, 0.0, rows)
                if "plot" in done:
                    problems += checks.check_svg((out / "osr.svg").read_text(), [rows])
            if "equivalence" in done:
                doc = json.loads((out / "equivalence.json").read_text())
                problems += checks.check_partition(self.kinds, None, K, 0.5, doc["groups"],
                                                   doc["pairs_compared"])
            if "generate" in done:
                problems += checks.check_bundle(out / "bundle", K, 0.5)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"CLI output unreadable: {_error(exc)}")
        return problems


WORKLOADS = {w.name: w for w in (Figures, Equivalence, Catalog, Cli)}
# the workload whose traced sample fills a layer its own run never reaches
LAYER_OWNERS = {
    "discrimination.line_ms": "figures", "discrimination.evals_per_line": "figures",
    "series.matrices_per_line": "figures", "matrixio.line_csv_ms": "figures",
    "plotting.svg_ms": "figures",
    "discrimination.partition_ms": "equivalence",
    "discrimination.evals_per_partition": "equivalence", "series.pairs_ms": "equivalence",
    "series.matrix_us": "figures", "measures.evaluate_us": "figures",
    "matrix.construct_us": "figures",
    "matrix.from_counts_us": "catalog", "measures.report_ms": "catalog",
    "gt.index_ms": "catalog", "gt.fits_per_report": "catalog",
    "gt.iterations_per_fit": "catalog", "matrixio.parse_ms": "catalog",
    "cli.import_ms": "cli", "cli.measure_ms": "cli", "cli.gt_ms": "cli",
    "cli.discriminate_ms": "cli", "cli.equivalence_ms": "cli", "cli.generate_ms": "cli",
    "cli.plot_ms": "cli",
}

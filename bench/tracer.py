"""Spans around calls into the program's layers, kept in memory.

The benchmark records spans from its own files: ``instrument`` swaps the
names one module calls in another (``confmeasures.discrimination.evaluate``,
``confmeasures.gt.gt_index``, ...) for wrappers that open and close a span.
Nothing under ``src/`` changes. A span is (name, start, end, parent, note);
the note carries a count read from the result, such as the IPF iterations of
a GT fit. ``layer_metrics`` turns the spans into the per-layer metrics.

This module imports nothing heavy at the top, so a traced CLI child times the
package import (numpy included) the way an untraced one pays it.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array

EVALUATE = "measures.evaluate"
EVALUATE_GT = "measures.evaluate_gt"


def _evaluate_name(args, kwargs):
    kind = args[1] if len(args) > 1 else kwargs["kind"]
    return EVALUATE_GT if kind.value == "gt" else EVALUATE


def _fit_iterations(result):
    return float(result.fit.iterations)


# (module, attribute, span name or naming function, note or None). Each entry
# is a name that another module (or the benchmark) looks up at call time.
PATCH_POINTS = [
    ("confmeasures.discrimination", "discrimination_line", "discrimination.line", None),
    ("confmeasures.discrimination", "equivalence_classes", "discrimination.partition", None),
    ("confmeasures.discrimination", "series_pairs", "series.pairs", None),
    ("confmeasures.discrimination", "series_matrix", "series.matrix", None),
    ("confmeasures.discrimination", "evaluate", _evaluate_name, None),
    ("confmeasures.series", "series_matrix", "series.matrix", None),
    ("confmeasures.measures", "evaluate", _evaluate_name, None),
    ("confmeasures.measures", "report", "measures.report", None),
    ("confmeasures.gt", "gt_index", "gt.index", _fit_iterations),
    ("confmeasures.matrixio", "parse_matrix", "matrixio.parse", None),
    ("confmeasures.matrixio", "from_counts", "matrix.from_counts", None),
    ("confmeasures.matrixio", "write_line_csv", "matrixio.line_csv", None),
    ("confmeasures.plotting", "write_svg", "plotting.svg", None),
    ("confmeasures.cli", "report", "measures.report", None),
    ("confmeasures.cli", "parse_matrix", "matrixio.parse", None),
    ("confmeasures.cli", "gt_index", "gt.index", _fit_iterations),
    ("confmeasures.cli", "discrimination_line", "discrimination.line", None),
    ("confmeasures.cli", "equivalence_classes", "discrimination.partition", None),
    ("confmeasures.cli", "series_pairs", "series.pairs", None),
    ("confmeasures.cli", "line_csv_text", "matrixio.line_csv", None),
    ("confmeasures.cli", "write_svg", "plotting.svg", None),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.note = array("d")
        self._stack = [-1]
        self._patches = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        ix = len(self.name)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.note.append(math.nan)
        self._stack.append(ix)
        self.start.append(time.perf_counter())
        return ix

    def finish(self, ix: int, note: float = math.nan) -> None:
        self.end[ix] = time.perf_counter()
        self.note[ix] = note
        self._stack.pop()

    def wrap(self, owner, attr: str, name, note=None) -> None:
        original = getattr(owner, attr)
        name_of = name if callable(name) else (lambda args, kwargs: name)
        begin, finish = self.begin, self.finish

        @functools.wraps(original)
        def traced(*args, **kwargs):
            ix = begin(name_of(args, kwargs))
            try:
                result = original(*args, **kwargs)
            except BaseException:
                finish(ix)
                raise
            finish(ix, math.nan if note is None else note(result))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def instrument(self) -> None:
        """Wrap every patch point of the confmeasures modules already loaded."""
        for module, attr, name, note in PATCH_POINTS:
            if module in sys.modules:
                self.wrap(sys.modules[module], attr, name, note)
        matrix = importlib.import_module("confmeasures.matrix")
        self.wrap(matrix.ConfusionMatrix, "__post_init__", "matrix.construct")

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def save(self, path) -> None:
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            note=np.frombuffer(self.note))

    def merge(self, path) -> None:
        """Append spans saved by a child process under the open span.

        perf_counter is CLOCK_MONOTONIC on Linux, so the child's times share
        the parent's clock.
        """
        import numpy as np
        with np.load(path) as data:
            ids = [self._id(str(n)) for n in data["names"]]
            offset = len(self.name)
            for nid, parent, start, end, note in zip(
                    data["name"].tolist(), data["parent"].tolist(),
                    data["start"].tolist(), data["end"].tolist(),
                    data["note"].tolist()):
                self.name.append(ids[nid])
                self.parent.append(self._stack[-1] if parent < 0 else parent + offset)
                self.start.append(start)
                self.end.append(end)
                self.note.append(note)


def _count_under(tr: Tracer, child: set[int], ancestor: int) -> int:
    """Spans named in ``child`` that have a span ``ancestor`` above them."""
    name, parent = tr.name, tr.parent
    count = 0
    for ix in range(len(name)):
        if name[ix] not in child:
            continue
        up = parent[ix]
        while up >= 0 and name[up] != ancestor:
            up = parent[up]
        count += up >= 0
    return count


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans; a layer with no span is left out."""
    import numpy as np
    name = np.frombuffer(tr.name, dtype=np.int32)
    parent = np.frombuffer(tr.parent, dtype=np.int32)
    dur = np.frombuffer(tr.end) - np.frombuffer(tr.start)
    note = np.frombuffer(tr.note)
    has_parent = parent >= 0
    self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                  minlength=dur.size)
    ids = tr._ids
    spans = {n: name == i for n, i in ids.items()}
    out: dict[str, float] = {}

    def mean(metric, span, scale, values=dur):
        if span in spans and spans[span].any():
            out[metric] = float(values[spans[span]].mean() * scale)

    def per(metric, children, ancestor):
        if ancestor in spans and spans[ancestor].any():
            child_ids = {ids[c] for c in children if c in ids}
            out[metric] = _count_under(tr, child_ids, ids[ancestor]) / int(
                spans[ancestor].sum())

    mean("discrimination.line_ms", "discrimination.line", 1e3)
    per("discrimination.evals_per_line", (EVALUATE, EVALUATE_GT), "discrimination.line")
    mean("discrimination.partition_ms", "discrimination.partition", 1e3)
    per("discrimination.evals_per_partition", (EVALUATE, EVALUATE_GT),
        "discrimination.partition")
    mean("series.pairs_ms", "series.pairs", 1e3)
    per("series.matrices_per_line", ("series.matrix",), "discrimination.line")
    mean("series.matrix_us", "series.matrix", 1e6, self_time)
    mean("matrix.construct_us", "matrix.construct", 1e6)
    mean("matrix.from_counts_us", "matrix.from_counts", 1e6)
    mean("measures.evaluate_us", EVALUATE, 1e6, self_time)
    mean("measures.report_ms", "measures.report", 1e3)
    mean("gt.index_ms", "gt.index", 1e3)
    per("gt.fits_per_report", ("gt.index",), "measures.report")
    if "gt.index" in spans:
        iterations = note[spans["gt.index"]]
        iterations = iterations[~np.isnan(iterations)]
        if iterations.size:
            out["gt.iterations_per_fit"] = float(iterations.mean())
    mean("matrixio.parse_ms", "matrixio.parse", 1e3)
    mean("matrixio.line_csv_ms", "matrixio.line_csv", 1e3)
    mean("plotting.svg_ms", "plotting.svg", 1e3)
    mean("cli.import_ms", "cli.import", 1e3)
    for command in ("measure", "gt", "discriminate", "equivalence", "generate", "plot"):
        mean(f"cli.{command}_ms", f"cli.{command}", 1e3)
    return out

"""Reading and writing confusion matrices and line tables.

CSV matrices are plain comma-separated numeric rows with an optional header
line (detected by a non-numeric first token). JSON matrices are either a bare
2-D array or an object with a "cells" key. Numbers are serialized at 12
significant digits; identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import pathlib

import numpy as np

from .discrimination import DiscriminationLine, LineRow, Preference
from .errors import InvalidInput
from .matrix import ConfusionMatrix, from_counts

DIGITS = 12


def fmt(x: float) -> str:
    return f"{x:.{DIGITS}g}"


@dataclasses.dataclass(frozen=True)
class MatrixDocument:
    """Where and how to read one matrix."""

    path: str
    format: str | None = None  # "csv" | "json" | None (infer from extension)
    transpose: bool = False
    counts: bool = False

    def resolved_format(self) -> str:
        if self.format is not None:
            if self.format not in ("csv", "json"):
                raise InvalidInput("format must be 'csv' or 'json'",
                                   parameter="format", value=self.format)
            return self.format
        suffix = pathlib.Path(self.path).suffix.lower()
        return "json" if suffix == ".json" else "csv"


def parse_matrix(doc: MatrixDocument) -> ConfusionMatrix:
    """Load, optionally transpose, and validate a matrix document."""
    path = pathlib.Path(doc.path)
    if not path.exists():
        raise InvalidInput(f"input file does not exist: {doc.path}",
                           parameter="input", value=doc.path)
    if doc.resolved_format() == "json":
        grid = _load_json(path)
    else:
        grid = _load_csv(path)
    arr = np.asarray(grid, dtype=float)
    if doc.transpose:
        arr = arr.T
    if doc.counts:
        return from_counts(arr)
    return ConfusionMatrix(arr)


def _load_json(path: pathlib.Path):
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"invalid JSON in {path}: {exc}", parameter="input",
                           value=str(path)) from exc
    if isinstance(data, dict):
        if "cells" not in data:
            raise InvalidInput("JSON matrix object needs a 'cells' key",
                               parameter="input", value=str(path))
        data = data["cells"]
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise InvalidInput("JSON matrix must be a 2-D array",
                           parameter="input", value=str(path))
    rows = []
    for r, row in enumerate(data, start=1):
        vals = []
        for c, cell in enumerate(row, start=1):
            if not isinstance(cell, (int, float)) or isinstance(cell, bool):
                raise InvalidInput(
                    f"row {r}, column {c}: not a number: {cell!r}",
                    parameter=f"cell({r},{c})", value=cell,
                )
            vals.append(float(cell))
        rows.append(vals)
    _check_rectangular(rows, path)
    return rows


def _load_csv(path: pathlib.Path):
    rows = []
    with path.open(newline="") as fh:
        for r, record in enumerate(csv.reader(fh), start=1):
            if not record or all(tok.strip() == "" for tok in record):
                continue
            first = record[0].strip()
            if rows == [] and not _is_number(first):
                continue  # header line
            vals = []
            for c, tok in enumerate(record, start=1):
                tok = tok.strip()
                if not _is_number(tok):
                    raise InvalidInput(
                        f"row {r}, column {c}: not a number: {tok!r}",
                        parameter=f"cell({r},{c})", value=tok,
                    )
                vals.append(float(tok))
            rows.append(vals)
    if not rows:
        raise InvalidInput(f"no numeric rows in {path}", parameter="input",
                           value=str(path))
    _check_rectangular(rows, path)
    return rows


def _check_rectangular(rows, path):
    width = len(rows[0])
    for r, row in enumerate(rows, start=1):
        if len(row) != width:
            raise InvalidInput(
                f"row {r} has {len(row)} columns, expected {width}",
                parameter="input", value=str(path),
            )


def _is_number(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return True


def write_matrix_csv(m: ConfusionMatrix, path) -> None:
    lines = [",".join(fmt(v) for v in row) for row in m.cells]
    pathlib.Path(path).write_text("\n".join(lines) + "\n")


def write_line_csv(line: DiscriminationLine, path) -> None:
    pathlib.Path(path).write_text(line_csv_text(line))


def line_csv_text(line: DiscriminationLine) -> str:
    out = ["c_x,c_y,crossing,preference"]
    for row in line.rows:
        c_y = "" if row.c_y is None else fmt(row.c_y)
        pref = "na" if row.preference is None else row.preference.value
        out.append(f"{fmt(row.c_x)},{c_y},{1 if row.crossing else 0},{pref}")
    return "\n".join(out) + "\n"


def parse_line_csv(path) -> list[LineRow]:
    """Read back a discrimination-line CSV written by ``write_line_csv``."""
    try:
        fh = pathlib.Path(path).open(newline="")
    except OSError as exc:
        raise InvalidInput(f"cannot read input file {path}: {exc.strerror}",
                           parameter="input", value=str(path)) from exc
    rows = []
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != [
                "c_x", "c_y", "crossing", "preference"]:
            raise InvalidInput(
                f"not a discrimination-line CSV (bad header): {path}",
                parameter="input", value=str(path),
            )
        for r, record in enumerate(reader, start=2):
            if not record or all(t.strip() == "" for t in record):
                continue
            if len(record) != 4:
                raise InvalidInput(f"row {r}: expected 4 columns",
                                   parameter="input", value=str(path))
            c_x, c_y, crossing, pref = (t.strip() for t in record)
            if not _is_number(c_x):
                raise _cell_error(path, r, 1, "not a number", c_x)
            if c_y != "" and not _is_number(c_y):
                raise _cell_error(path, r, 2, "not a number", c_y)
            if crossing not in ("0", "1"):
                raise _cell_error(path, r, 3, "crossing must be 0 or 1",
                                  crossing)
            if pref != "na" and pref not in _PREFERENCES:
                raise _cell_error(path, r, 4, "not a preference", pref)
            rows.append(LineRow(
                c_x=float(c_x),
                c_y=None if c_y == "" else float(c_y),
                crossing=crossing == "1",
                preference=None if pref == "na" else Preference(pref),
            ))
    return rows


_PREFERENCES = {p.value for p in Preference}


def _cell_error(path, r: int, c: int, what: str, tok: str) -> InvalidInput:
    return InvalidInput(f"{path}: row {r}, column {c}: {what}: {tok!r}",
                        parameter=f"cell({r},{c})", value=tok)

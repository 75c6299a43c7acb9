"""Reading and writing confusion matrices and line tables.

CSV matrices are plain comma-separated numeric rows after optional header
lines, each detected by a non-numeric first token. JSON matrices are either
a bare 2-D array or an object with a "cells" key. Numbers are serialized at
12 significant digits; identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
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
        raise _input_error(f"input file does not exist: {doc.path}", doc.path)
    if doc.resolved_format() == "json":
        grid = _numbers(_json_rows(path), _json_number, path)
    else:
        grid = _numbers(_csv_rows(path), float, path)
    arr = np.asarray(grid, dtype=float)
    if doc.transpose:
        arr = arr.T
    if doc.counts:
        return from_counts(arr)
    return ConfusionMatrix(arr)


def _input_error(message: str, path) -> InvalidInput:
    """An error about the input file as a whole."""
    return InvalidInput(message, parameter="input", value=str(path))


def _cell_error(path, r: int, c: int, what: str, tok) -> InvalidInput:
    return InvalidInput(f"{path}: row {r}, column {c}: {what}: {tok!r}",
                        parameter=f"cell({r},{c})", value=tok)


def _unreadable(path, exc: Exception) -> InvalidInput:
    """The error for an input file that cannot be read as text."""
    if isinstance(exc, UnicodeDecodeError):
        why = f"not valid text ({exc.reason} at byte {exc.start})"
    else:
        why = getattr(exc, "strerror", None) or str(exc)
    return _input_error(f"cannot read input file {path}: {why}", path)


def _read_records(path) -> list[tuple[int, list[str]]]:
    """The non-blank CSV records of ``path`` as (line, stripped tokens), blank
    lines counted; an unreadable file is InvalidInput."""
    try:
        with pathlib.Path(path).open(newline="", encoding="utf-8-sig") as fh:
            records = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise _unreadable(path, exc) from exc
    stripped = ((r, [tok.strip() for tok in record])
                for r, record in enumerate(records, start=1))
    return [(r, tokens) for r, tokens in stripped if any(tokens)]


def _csv_rows(path: pathlib.Path) -> list[tuple[int, list[str]]]:
    """The records of a CSV matrix after its header: every leading record
    whose first token is not a number."""
    records = _read_records(path)
    for i, (_, tokens) in enumerate(records):
        try:
            float(tokens[0])
        except ValueError:
            continue
        return records[i:]
    return []


def _json_rows(path: pathlib.Path) -> list[tuple[int, list]]:
    """The rows of a JSON matrix, numbered by their position in the array."""
    try:
        data = json.loads(path.read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc) from exc
    except (ValueError, RecursionError) as exc:
        # besides bad syntax: an integer past the digit limit, deep nesting
        raise _input_error(f"invalid JSON in {path}: {exc}", path) from exc
    if isinstance(data, dict):
        if "cells" not in data:
            raise _input_error("JSON matrix object needs a 'cells' key", path)
        data = data["cells"]
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise _input_error("JSON matrix must be a 2-D array", path)
    return list(enumerate(data, start=1))


def _json_number(cell) -> float:
    if isinstance(cell, bool) or not isinstance(cell, (int, float)):
        raise TypeError(cell)
    return float(cell)  # OverflowError for an integer past the float range


def _numbers(records, number, path) -> list[list[float]]:
    """The numbered ``records`` as rows of floats, ``number`` turning one
    token into a float. A token it rejects is a cell error; then a row whose
    width differs from the first row's, or no row at all, is an input error."""
    rows = []
    for r, tokens in records:
        row = []
        for c, tok in enumerate(tokens, start=1):
            try:
                row.append(number(tok))
            except (TypeError, ValueError, OverflowError):
                raise _cell_error(path, r, c, "not a number", tok) from None
        rows.append(row)
    if not rows:
        raise _input_error(f"no numeric rows in {path}", path)
    for (r, _), row in zip(records, rows):
        if len(row) != len(rows[0]):
            raise _input_error(f"row {r} has {len(row)} columns, "
                               f"expected {len(rows[0])}", path)
    return rows


def _retention(path, r: int, c: int, tok: str) -> float:
    """``tok`` as a number in [0, 1]; NaN and the infinities are not."""
    try:
        value = float(tok)
    except ValueError:
        value = math.nan
    if not 0.0 <= value <= 1.0:
        raise _cell_error(path, r, c, "not a number in [0, 1]", tok)
    return value


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
    records = _read_records(path)
    if not records or records[0] != (1, ["c_x", "c_y", "crossing",
                                         "preference"]):
        raise _input_error(
            f"not a discrimination-line CSV (bad header): {path}", path)
    rows = []
    for r, tokens in records[1:]:
        if len(tokens) != 4:
            raise _input_error(f"row {r}: expected 4 columns", path)
        c_x, c_y, crossing, pref = tokens
        c_x = _retention(path, r, 1, c_x)
        # only a row that does not cross may leave c_y empty
        c_y = (None if c_y == "" and crossing != "1"
               else _retention(path, r, 2, c_y))
        if crossing not in ("0", "1"):
            raise _cell_error(path, r, 3, "crossing must be 0 or 1",
                              crossing)
        if pref not in _PREFERENCES:
            raise _cell_error(path, r, 4, "not a preference", pref)
        rows.append(LineRow(c_x=c_x, c_y=c_y, crossing=crossing == "1",
                            preference=_PREFERENCES[pref]))
    return rows


_PREFERENCES = {"na": None} | {p.value: p for p in Preference}

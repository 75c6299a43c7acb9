"""Tests for matrix and line-table file round trips."""

import json

import numpy as np
import pytest

from confmeasures import ConfusionMatrix, InvalidInput
from confmeasures.discrimination import LineRow, Preference, discrimination_line
from confmeasures.matrixio import (
    MatrixDocument,
    fmt,
    line_csv_text,
    parse_line_csv,
    parse_matrix,
    write_line_csv,
    write_matrix_csv,
)
from confmeasures.measures import MeasureKind

from conftest import FIRST_CLASSIFIER_CELLS, FIRST_CLASSIFIER_COUNTS


def write(path, text):
    path.write_text(text)
    return str(path)


class TestCsvParsing:
    def test_plain_rows(self, tmp_path):
        p = write(tmp_path / "m.csv", "0.4,0.1\n0.1,0.4\n")
        m = parse_matrix(MatrixDocument(p))
        assert m.k == 2
        assert np.asarray(m.cells)[0, 0] == 0.4

    @pytest.mark.parametrize("header", ["a,b\n", "title\na,b\n"])
    def test_header_line_is_skipped(self, tmp_path, header):
        p = write(tmp_path / "m.csv", header + "0.4,0.1\n0.1,0.4\n")
        m = parse_matrix(MatrixDocument(p))
        assert m.k == 2

    def test_blank_lines_are_skipped(self, tmp_path):
        p = write(tmp_path / "m.csv", "\n0.4,0.1\n\n0.1,0.4\n")
        m = parse_matrix(MatrixDocument(p))
        assert m.k == 2

    def test_counts_mode(self, tmp_path):
        text = "\n".join(
            ",".join(str(v) for v in row) for row in FIRST_CLASSIFIER_COUNTS
        )
        p = write(tmp_path / "m.csv", text + "\n")
        m = parse_matrix(MatrixDocument(p, counts=True))
        assert np.allclose(np.asarray(m.cells), FIRST_CLASSIFIER_CELLS)

    def test_transpose(self, tmp_path):
        p = write(tmp_path / "m.csv", "0.4,0.2\n0.0,0.4\n")
        plain = parse_matrix(MatrixDocument(p))
        flipped = parse_matrix(MatrixDocument(p, transpose=True))
        assert np.array_equal(
            np.asarray(flipped.cells), np.asarray(plain.cells).T
        )

    def test_bad_token_position_reported(self, tmp_path):
        p = write(tmp_path / "m.csv", "0.4,0.1\n0.1,oops\n")
        with pytest.raises(InvalidInput) as excinfo:
            parse_matrix(MatrixDocument(p))
        assert "row 2, column 2" in str(excinfo.value)
        assert excinfo.value.parameter == "cell(2,2)"
        assert excinfo.value.value == "oops"

    @pytest.mark.parametrize("text,row", [
        ("0.4,0.1\n0.1,0.2,0.2\n", 2),
        ("a,b,c\n1,2,3\n\n4\n", 4),  # rows are lines of the file
    ])
    def test_ragged_rows_rejected(self, tmp_path, text, row):
        p = write(tmp_path / "m.csv", text)
        with pytest.raises(InvalidInput) as excinfo:
            parse_matrix(MatrixDocument(p))
        assert f"row {row} has" in str(excinfo.value)
        assert excinfo.value.parameter == "input"
        assert excinfo.value.value == p

    def test_header_only_file_rejected(self, tmp_path):
        p = write(tmp_path / "m.csv", "a,b\n")
        with pytest.raises(InvalidInput):
            parse_matrix(MatrixDocument(p))

    def test_missing_file_rejected(self, tmp_path):
        given = f"{tmp_path}/./absent.csv"
        with pytest.raises(InvalidInput) as excinfo:
            parse_matrix(MatrixDocument(given))
        assert excinfo.value.parameter == "input"
        assert excinfo.value.value == given  # as given, not normalized


class TestJsonParsing:
    def test_bare_array(self, tmp_path):
        p = write(tmp_path / "m.json", json.dumps([[0.4, 0.1], [0.1, 0.4]]))
        m = parse_matrix(MatrixDocument(p))
        assert m.k == 2

    def test_cells_object(self, tmp_path):
        doc = {"cells": [[0.4, 0.1], [0.1, 0.4]], "note": "ignored"}
        p = write(tmp_path / "m.json", json.dumps(doc))
        m = parse_matrix(MatrixDocument(p))
        assert m.k == 2

    def test_object_without_cells_rejected(self, tmp_path):
        p = write(tmp_path / "m.json", json.dumps({"rows": []}))
        with pytest.raises(InvalidInput):
            parse_matrix(MatrixDocument(p))

    def test_boolean_cell_rejected(self, tmp_path):
        p = write(tmp_path / "m.json", json.dumps([[0.4, True], [0.1, 0.4]]))
        with pytest.raises(InvalidInput) as excinfo:
            parse_matrix(MatrixDocument(p))
        assert "row 1, column 2" in str(excinfo.value)
        assert excinfo.value.parameter == "cell(1,2)"
        assert excinfo.value.value is True

    def test_malformed_json_rejected(self, tmp_path):
        p = write(tmp_path / "m.json", "{not json")
        with pytest.raises(InvalidInput):
            parse_matrix(MatrixDocument(p))

    def test_scalar_document_rejected(self, tmp_path):
        p = write(tmp_path / "m.json", "3.5")
        with pytest.raises(InvalidInput):
            parse_matrix(MatrixDocument(p))


class TestFormatResolution:
    def test_extension_inference(self, tmp_path):
        assert MatrixDocument("x.json").resolved_format() == "json"
        assert MatrixDocument("x.csv").resolved_format() == "csv"
        assert MatrixDocument("x.txt").resolved_format() == "csv"

    def test_explicit_format_wins(self, tmp_path):
        p = write(tmp_path / "data.txt", json.dumps([[0.5, 0.0], [0.0, 0.5]]))
        m = parse_matrix(MatrixDocument(p, format="json"))
        assert m.k == 2

    def test_unknown_format_rejected(self):
        with pytest.raises(InvalidInput):
            MatrixDocument("x.csv", format="yaml").resolved_format()


class TestMatrixRoundTrip:
    def test_write_then_parse_preserves_values(self, tmp_path, first_classifier):
        p = tmp_path / "out.csv"
        write_matrix_csv(first_classifier, p)
        back = parse_matrix(MatrixDocument(str(p)))
        assert np.max(np.abs(
            np.asarray(back.cells) - np.asarray(first_classifier.cells)
        )) < 1e-11

    def test_serialization_is_stable(self, tmp_path):
        rng = np.random.default_rng(21)
        cells = rng.uniform(0.01, 1.0, size=(4, 4))
        cells /= cells.sum()
        m = ConfusionMatrix(cells)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_matrix_csv(m, p1)
        write_matrix_csv(parse_matrix(MatrixDocument(str(p1))), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_fmt_sig_digits(self):
        assert fmt(1 / 3) == "0.333333333333"
        assert fmt(0.5) == "0.5"
        assert fmt(1e-13) == "1e-13"


class TestLineTable:
    def make_line(self):
        return discrimination_line(MeasureKind.OSR, k=3, p=0.0, grid_step=0.2)

    def test_text_layout(self):
        text = line_csv_text(self.make_line())
        lines = text.splitlines()
        assert lines[0] == "c_x,c_y,crossing,preference"
        assert len(lines) == 7
        # the low-retention rows never cross: empty c_y, named winner
        assert lines[1].startswith("0,,0,second")

    def test_round_trip(self, tmp_path):
        line = self.make_line()
        p = tmp_path / "line.csv"
        write_line_csv(line, p)
        rows = parse_line_csv(p)
        assert len(rows) == len(line.rows)
        for got, want in zip(rows, line.rows):
            assert got.crossing == want.crossing
            assert got.preference == want.preference
            assert got.c_x == pytest.approx(want.c_x, abs=1e-11)
            if want.c_y is None:
                assert got.c_y is None
            else:
                assert got.c_y == pytest.approx(want.c_y, abs=1e-11)

    def test_bad_header_rejected(self, tmp_path):
        p = write(tmp_path / "line.csv", "x,y\n0.5,0.5\n")
        with pytest.raises(InvalidInput):
            parse_line_csv(p)

    def test_short_row_rejected(self, tmp_path):
        p = write(
            tmp_path / "line.csv",
            "c_x,c_y,crossing,preference\n0.5,0.5,1\n",
        )
        with pytest.raises(InvalidInput):
            parse_line_csv(p)

    def test_na_and_tie_rows_survive(self, tmp_path):
        rows = (
            LineRow(c_x=0.25, c_y=None, crossing=False, preference=None),
            LineRow(c_x=0.5, c_y=0.5, crossing=True,
                    preference=Preference.TIE),
        )
        line = self.make_line()
        patched = type(line)(
            kind=line.kind, class_index=None, k=3, p=0.0, c_lo=0.0, rows=rows
        )
        p = tmp_path / "line.csv"
        write_line_csv(patched, p)
        back = parse_line_csv(p)
        assert back[0].preference is None
        assert back[1].preference == Preference.TIE

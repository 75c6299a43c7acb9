"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest

from confmeasures.cli import main
from confmeasures.matrixio import MatrixDocument, parse_line_csv, parse_matrix

from conftest import FIRST_CLASSIFIER_COUNTS


@pytest.fixture
def counts_csv(tmp_path):
    text = "\n".join(
        ",".join(str(v) for v in row) for row in FIRST_CLASSIFIER_COUNTS
    )
    p = tmp_path / "counts.csv"
    p.write_text(text + "\n")
    return str(p)


class TestMeasureCommand:
    def test_prints_table(self, counts_csv, capsys):
        assert main(["measure", "--input", counts_csv, "--counts"]) == 0
        out = capsys.readouterr().out
        assert "OSR" in out
        assert "0.79" in out
        assert "Cls.1" in out

    def test_writes_json_report(self, counts_csv, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main([
            "measure", "--input", counts_csv, "--counts",
            "--output", str(out_path),
        ])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["k"] == 3
        assert doc["overall"]["osr"] == pytest.approx(0.79)
        assert doc["per_class"][0]["tpr"] == pytest.approx(0.30 / 0.33)

    def test_transposed_counts_round_trip(self, tmp_path, capsys):
        transposed = np.asarray(FIRST_CLASSIFIER_COUNTS).T
        text = "\n".join(",".join(str(v) for v in row) for row in transposed)
        p = tmp_path / "t.csv"
        p.write_text(text + "\n")
        out_path = tmp_path / "report.json"
        code = main([
            "measure", "--input", str(p), "--counts", "--transpose",
            "--output", str(out_path),
        ])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["overall"]["osr"] == pytest.approx(0.79)

    def test_missing_input_fails_with_json_error(self, tmp_path, capsys):
        code = main(["measure", "--input", str(tmp_path / "absent.csv")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidInput"
        assert err["parameter"] == "input"


    def test_non_finite_cell_error_is_strict_json(self, tmp_path, capsys):
        p = tmp_path / "nan.csv"
        p.write_text("0.5,nan\n0.0,0.5\n")
        assert main(["measure", "--input", str(p)]) == 2

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        err = json.loads(capsys.readouterr().err, parse_constant=reject)
        assert err["error"] == "InvalidInput"
        assert err["value"] == "nan"


class TestGenerateCommand:
    def test_bundle_layout(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        code = main([
            "generate", "--k", "3", "--p", "0.5",
            "--grid-step", "0.25", "--output", str(out),
        ])
        assert code == 0
        index = (out / "index.csv").read_text().splitlines()
        assert index[0] == "series,index,c,path"
        assert len(index) == 11  # 5 grid values, both series
        for record in index[1:]:
            series, ix, c, rel = record.split(",")
            assert series in ("x", "y")
            m = parse_matrix(MatrixDocument(str(out / rel)))
            assert m.k == 3
            # retention shows up on the diagonal of each column
            cells = np.asarray(m.cells)
            col = m.col_sums()
            if series == "x" or float(c) == 1.0:
                assert cells[0, 0] == pytest.approx(float(c) * col[0])
            else:
                assert cells[1, 1] == pytest.approx(col[1])

    def test_byte_determinism(self, tmp_path):
        args = ["generate", "--k", "4", "--p", "1", "--grid-step", "0.5"]
        d1 = tmp_path / "one"
        d2 = tmp_path / "two"
        assert main(args + ["--output", str(d1)]) == 0
        assert main(args + ["--output", str(d2)]) == 0
        names = sorted(p.name for p in d1.iterdir())
        assert names == sorted(p.name for p in d2.iterdir())
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_bad_parameter_rejected(self, tmp_path, capsys):
        code = main([
            "generate", "--k", "3", "--p", "1.5",
            "--output", str(tmp_path / "b"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["parameter"] == "p"


class TestDiscriminateCommand:
    def test_stdout_line_table(self, capsys):
        code = main([
            "discriminate", "--measure", "osr", "--k", "3", "--p", "0",
            "--grid-step", "0.1",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "c_x,c_y,crossing,preference"
        assert len(lines) == 12

    def test_output_file_solves_closed_form(self, tmp_path, capsys):
        out = tmp_path / "osr.csv"
        code = main([
            "discriminate", "--measure", "osr", "--k", "3", "--p", "0",
            "--output", str(out),
        ])
        assert code == 0
        rows = parse_line_csv(out)
        crossed = [r for r in rows if r.crossing]
        assert crossed
        for row in crossed:
            assert row.c_y == pytest.approx(3 * row.c_x - 2, abs=1e-6)

    def test_class_measure_via_flag(self, tmp_path, capsys):
        out = tmp_path / "tpr.csv"
        code = main([
            "discriminate", "--measure", "tpr", "--class", "1",
            "--k", "3", "--p", "0.5", "--grid-step", "0.2",
            "--output", str(out),
        ])
        assert code == 0
        for row in parse_line_csv(out):
            assert row.c_y == pytest.approx(row.c_x, abs=1e-9)

    def test_unknown_measure_rejected(self, capsys):
        code = main([
            "discriminate", "--measure", "nope", "--k", "3", "--p", "0",
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidInput"

    def test_missing_class_index_rejected(self, capsys):
        code = main([
            "discriminate", "--measure", "tpr", "--k", "3", "--p", "0",
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["parameter"] == "class_index"


class TestEquivalenceCommand:
    def test_balanced_groups(self, capsys):
        code = main([
            "equivalence", "--kinds", "osr,ckc,spc,mre,csi",
            "--k", "3", "--p", "0", "--grid-step", "0.1",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        groups = {frozenset(g) for g in doc["groups"]}
        assert frozenset({"osr", "ckc", "spc", "mre"}) in groups
        assert frozenset({"csi"}) in groups
        assert doc["pairs_compared"] == 121

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "part.json"
        code = main([
            "equivalence", "--kinds", "f,jcc", "--class", "1",
            "--k", "3", "--p", "0", "--grid-step", "0.2",
            "--output", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["groups"] == [["f", "jcc"]]

    def test_empty_kinds_rejected(self, capsys):
        code = main([
            "equivalence", "--kinds", ",", "--k", "3", "--p", "0",
        ])
        assert code == 2


class TestPlotCommand:
    def make_line_csv(self, tmp_path, name, measure, extra=()):
        out = tmp_path / name
        args = [
            "discriminate", "--measure", measure, "--k", "3", "--p", "0",
            "--grid-step", "0.1", "--output", str(out),
        ]
        assert main(args + list(extra)) == 0
        return out

    def test_svg_geometry(self, tmp_path):
        line_csv = self.make_line_csv(tmp_path, "osr.csv", "osr")
        svg = tmp_path / "plot.svg"
        assert main(["plot", "--input", str(line_csv), "--svg", str(svg)]) == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text
        assert "osr" in text  # legend carries the file stem
        # all plotted coordinates stay inside the frame
        import re

        for points in re.findall(r'points="([^"]+)"', text):
            for pair in points.split():
                x, y = map(float, pair.split(","))
                assert 0 <= x <= 480
                assert 0 <= y <= 480

    def test_multiple_inputs_comma_split(self, tmp_path):
        a = self.make_line_csv(tmp_path, "osr.csv", "osr")
        b = self.make_line_csv(tmp_path, "tpr1.csv", "tpr", ("--class", "1"))
        svg = tmp_path / "both.svg"
        code = main(["plot", "--input", f"{a},{b}", "--svg", str(svg)])
        assert code == 0
        text = svg.read_text()
        assert "osr" in text
        assert "tpr1" in text

    def test_byte_determinism(self, tmp_path):
        line_csv = self.make_line_csv(tmp_path, "osr.csv", "osr")
        s1 = tmp_path / "one.svg"
        s2 = tmp_path / "two.svg"
        assert main(["plot", "--input", str(line_csv), "--svg", str(s1)]) == 0
        assert main(["plot", "--input", str(line_csv), "--svg", str(s2)]) == 0
        assert s1.read_bytes() == s2.read_bytes()

    def test_rejects_matrix_csv(self, tmp_path, capsys):
        bad = tmp_path / "matrix.csv"
        bad.write_text("0.5,0.0\n0.0,0.5\n")
        svg = tmp_path / "plot.svg"
        code = main(["plot", "--input", str(bad), "--svg", str(svg)])
        assert code == 2

    def test_missing_input_fails_with_json_error(self, tmp_path, capsys):
        absent = tmp_path / "absent.csv"
        code = main(["plot", "--input", str(absent),
                     "--svg", str(tmp_path / "plot.svg")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidInput"
        assert err["parameter"] == "input"
        assert err["value"] == str(absent)

    @pytest.mark.parametrize("record,column,token", [
        ("abc,,0,second", 1, "abc"),
        ("0.5,x1,1,tie", 2, "x1"),
        ("0.5,,yes,second", 3, "yes"),
        ("0.5,,0,winner", 4, "winner"),
    ])
    def test_bad_token_names_row_and_column(self, tmp_path, capsys, record,
                                            column, token):
        line_csv = self.make_line_csv(tmp_path, "osr.csv", "osr")
        rows = line_csv.read_text().splitlines()
        rows[3] = record
        line_csv.write_text("\n".join(rows) + "\n")
        code = main(["plot", "--input", str(line_csv),
                     "--svg", str(tmp_path / "plot.svg")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidInput"
        assert err["parameter"] == f"cell(4,{column})"
        assert err["value"] == token
        assert str(line_csv) in err["message"]


class TestGtCommand:
    def test_table_and_json(self, counts_csv, tmp_path, capsys):
        out = tmp_path / "gt.json"
        code = main([
            "gt", "--input", counts_csv, "--counts", "--output", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "theta" in stdout
        assert "iterations" in stdout
        doc = json.loads(out.read_text())
        assert doc["theta"][0] == pytest.approx(0.787879, abs=5e-7)
        assert doc["a"] == pytest.approx([4 / 7, 2 / 7, 1 / 7], abs=1e-9)
        assert doc["residual"] < 1e-9

    def test_perfect_matrix_fails_cleanly(self, tmp_path, capsys):
        p = tmp_path / "perfect.csv"
        p.write_text("0.5,0\n0,0.5\n")
        code = main(["gt", "--input", str(p)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TooFewClasses"

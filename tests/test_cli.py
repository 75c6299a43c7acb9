"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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

    def test_round_off_negative_tn_is_scored(self, tmp_path, capsys):
        # always predicts class 1; the cells sum to 1 + 5e-10
        p = tmp_path / "m.csv"
        p.write_text("0.5,0.3,0.2000000005\n0,0,0\n0,0,0\n")
        out_path = tmp_path / "report.json"
        assert main(["measure", "--input", str(p),
                     "--output", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["per_class"][0]["tpr"] == 1.0
        assert doc["per_class"][0]["tnr"] == 0.0
        assert doc["overall"]["csi"] is None


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

    @pytest.mark.parametrize("kinds", ["osr,ckc", "osr"])
    @pytest.mark.parametrize("class_index", ["7", "0"])
    def test_unused_class_index_checked(self, kinds, class_index, capsys):
        code = main([
            "equivalence", "--kinds", kinds, "--k", "3", "--p", "0",
            "--grid-step", "0.1", "--class", class_index,
        ])
        assert code == 2
        err = strict_error(capsys)
        assert err["error"] == "InvalidInput"
        assert err["parameter"] == "class_index"
        assert err["value"] == int(class_index)

    @pytest.mark.parametrize("kinds", ["tpr", "gt"])
    def test_one_class_specific_kind_needs_class_index(self, kinds, capsys):
        code = main([
            "equivalence", "--kinds", kinds, "--k", "3", "--p", "0",
            "--grid-step", "0.5",
        ])
        assert code == 2
        assert strict_error(capsys) == {
            "error": "InvalidInput",
            "message": f"{kinds.upper()} needs a class index",
            "parameter": "class_index", "value": None}


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

    def test_comma_split_paths_are_stripped(self, tmp_path):
        a = self.make_line_csv(tmp_path, "osr.csv", "osr")
        b = self.make_line_csv(tmp_path, "tpr1.csv", "tpr", ("--class", "1"))
        svg = tmp_path / "both.svg"
        assert main(["plot", "--input", f" {a} , {b} ", "--svg", str(svg)]) == 0
        assert "osr" in svg.read_text() and "tpr1" in svg.read_text()

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
        ("-1,0.25,1,tie", 1, "-1"),
        ("0.5,2.0,1,tie", 2, "2.0"),
        ("0.5,,1,tie", 2, ""),  # a crossing row needs its c_y
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


def strict_error(capsys) -> dict:
    """The one-line JSON error on stderr, parsed as strict JSON."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n")
    return json.loads(err, parse_constant=reject)


class TestOutputPathErrors:
    """An output path in a missing directory is a JSON error, exit 2."""

    @pytest.fixture
    def line_csv(self, tmp_path):
        out = tmp_path / "osr.csv"
        assert main(["discriminate", "--measure", "osr", "--k", "3", "--p", "0",
                     "--grid-step", "0.1", "--output", str(out)]) == 0
        return str(out)

    def check(self, capsys, argv, parameter, path):
        assert main(argv) == 2
        err = strict_error(capsys)
        assert err["error"] == "InvalidInput"
        assert err["parameter"] == parameter
        assert err["value"] == str(path)

    def test_measure(self, counts_csv, tmp_path, capsys):
        path = tmp_path / "nodir" / "r.json"
        self.check(capsys, ["measure", "--input", counts_csv, "--counts",
                            "--output", str(path)], "output", path)

    def test_equivalence(self, tmp_path, capsys):
        path = tmp_path / "nodir" / "e.json"
        self.check(capsys, ["equivalence", "--kinds", "osr,ckc", "--k", "3",
                            "--p", "0", "--grid-step", "0.25",
                            "--output", str(path)], "output", path)

    def test_discriminate(self, tmp_path, capsys):
        path = tmp_path / "nodir" / "l.csv"
        self.check(capsys, ["discriminate", "--measure", "osr", "--k", "3",
                            "--p", "0", "--grid-step", "0.25",
                            "--output", str(path)], "output", path)

    def test_plot(self, line_csv, tmp_path, capsys):
        path = tmp_path / "nodir" / "x.svg"
        self.check(capsys, ["plot", "--input", line_csv, "--svg", str(path)],
                   "svg", path)

    def test_gt(self, counts_csv, tmp_path, capsys):
        path = tmp_path / "nodir" / "g.json"
        self.check(capsys, ["gt", "--input", counts_csv, "--counts",
                            "--output", str(path)], "output", path)

    def test_generate_into_a_file(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("")
        self.check(capsys, ["generate", "--k", "3", "--p", "0",
                            "--grid-step", "0.5", "--output", str(path)],
                   "output", path)


class TestUndecodableInput:
    """An input file that is not valid text is a JSON error, exit 2."""

    BYTES = b"\xff\xfe\x00" + "0.5,0\n0,0.5\n".encode("utf-16-le")

    @pytest.mark.parametrize("command,name", [
        (["measure"], "m.csv"), (["measure"], "m.json"), (["gt"], "m.csv"),
        (["plot", "--svg", "x.svg"], "l.csv"),
    ])
    def test_names_the_path(self, tmp_path, capsys, command, name):
        path = tmp_path / name
        path.write_bytes(self.BYTES)
        argv = [command[0], "--input", str(path)]
        argv += [str(tmp_path / a) if a.endswith(".svg") else a
                 for a in command[1:]]
        assert main(argv) == 2
        err = strict_error(capsys)
        assert err["error"] == "InvalidInput"
        assert err["parameter"] == "input"
        assert err["value"] == str(path)


class TestByteOrderMark:
    """A UTF-8 file that starts with a byte-order mark, as spreadsheet
    "CSV UTF-8" exports do, reads as the same file without one."""

    @staticmethod
    def same_with_and_without(capsys, tmp_path, name, data, argv):
        outputs = []
        for bom in (b"", b"\xef\xbb\xbf"):
            folder = tmp_path / ("bom" if bom else "plain")
            folder.mkdir()
            path, out = folder / name, folder / "out"
            path.write_bytes(bom + data)
            assert main([a.format(input=path, output=out) for a in argv]) == 0
            assert capsys.readouterr().err == ""
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_measure_csv(self, tmp_path, capsys):
        self.same_with_and_without(
            capsys, tmp_path, "m.csv", b"30,12,2\n2,19,1\n1,3,30\n",
            ["measure", "--input", "{input}", "--counts", "--output",
             "{output}"])

    def test_measure_json(self, tmp_path, capsys):
        self.same_with_and_without(
            capsys, tmp_path, "m.json", b"[[30, 12, 2], [2, 19, 1], [1, 3, 30]]",
            ["measure", "--input", "{input}", "--counts", "--output",
             "{output}"])

    def test_plot_line_csv(self, tmp_path, capsys):
        line = tmp_path / "osr.csv"
        assert main(["discriminate", "--measure", "osr", "--k", "3", "--p",
                     "0", "--grid-step", "0.1", "--output", str(line)]) == 0
        self.same_with_and_without(
            capsys, tmp_path, "osr.csv", line.read_bytes(),
            ["plot", "--input", "{input}", "--svg", "{output}"])


class TestSeriesLimits:
    def test_generate_rejects_k_above_ceiling(self, tmp_path, capsys):
        code = main(["generate", "--k", "1100", "--p", "0.5",
                     "--output", str(tmp_path / "bundle")])
        assert code == 2
        err = strict_error(capsys)
        assert err["error"] == "InvalidInput"
        assert err["parameter"] == "k"
        assert err["value"] == 1100

    def test_discriminate_rejects_step_that_does_not_divide(self, capsys):
        code = main(["discriminate", "--measure", "osr", "--k", "3", "--p", "0",
                     "--grid-step", "0.3"])
        assert code == 2
        err = strict_error(capsys)
        assert err["error"] == "InvalidInput"
        assert err["parameter"] == "step"
        assert err["value"] == 0.3

    def test_discriminate_rejects_grid_over_ceiling(self, capsys):
        # 200,002 points, one over the ceiling
        code = main(["discriminate", "--measure", "osr", "--k", "3", "--p", "0",
                     "--grid-step", repr(1 / 200_001)])
        assert code == 2
        err = strict_error(capsys)
        assert err["error"] == "InvalidInput"
        assert err["parameter"] == "step"

    def test_equivalence_rejects_pairs_over_ceiling(self, capsys):
        # 1,415 points give 2,002,225 pairs, just over the ceiling
        code = main(["equivalence", "--kinds", "osr,ckc", "--k", "3", "--p", "0",
                     "--grid-step", repr(1 / 1414)])
        assert code == 2
        err = strict_error(capsys)
        assert err["error"] == "InvalidInput"
        assert err["parameter"] == "pairs"
        assert err["value"] == 1415 ** 2


class TestPerfectTable:
    def test_measure_scores_one(self, tmp_path, capsys):
        # proportions whose diagonal sums to 1.0000000000000002
        p = tmp_path / "perfect.csv"
        p.write_text("\n".join(",".join(str(v) for v in row)
                               for row in np.diag([10, 18, 33, 29, 10])) + "\n")
        out = tmp_path / "r.json"
        assert main(["measure", "--input", str(p), "--counts",
                     "--output", str(out)]) == 0
        overall = json.loads(out.read_text())["overall"]
        for kind in ("osr", "ckc", "spc", "mre"):
            assert overall[kind] == 1.0


def fails_with_one_json_line(capsys, argv) -> dict:
    """``main(argv)`` returns or exits with status 2 and prints exactly one
    strict-JSON error line on stderr."""
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2, argv
    err = strict_error(capsys)
    assert isinstance(err["error"], str) and isinstance(err["message"], str)
    return err


BAD_TOKENS = ["abc", "nan", "inf", "-inf", "1e999", "-1", "0x10", "1/2", "--"]
no_fixture_check = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFuzz:
    """Malformed files and flag values all end in the one-line JSON error."""

    @no_fixture_check
    @given(k=st.integers(1, 4), data=st.data(),
           command=st.sampled_from(["measure", "gt"]), counts=st.booleans())
    def test_matrix_csv(self, tmp_path, capsys, k, data, command, counts):
        cells = [[data.draw(st.sampled_from(["0", "1", "7", " 2", "0.25"]))
                  for _ in range(k)] for _ in range(k)]
        bad = data.draw(st.sampled_from(BAD_TOKENS))
        cells[data.draw(st.integers(0, k - 1))][
            data.draw(st.integers(0, k - 1))] = bad
        path = tmp_path / "m.csv"
        path.write_text("\n".join(",".join(row) for row in cells) + "\n")
        argv = [command, "--input", str(path)] + (["--counts"] if counts else [])
        fails_with_one_json_line(capsys, argv)

    @no_fixture_check
    @given(cell=st.one_of(st.sampled_from([None, True, "0.5", [], {}]),
                          st.sampled_from([float("nan"), float("inf"), -1.0])),
           wrap=st.booleans(), counts=st.booleans())
    def test_matrix_json(self, tmp_path, capsys, cell, wrap, counts):
        cells = [[1, 0, 0], [0, 1, cell], [0, 0, 1]]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"cells": cells} if wrap else cells))
        argv = ["measure", "--input", str(path)] + (["--counts"] if counts else [])
        fails_with_one_json_line(capsys, argv)

    @pytest.mark.parametrize("text", [
        "5", '"x"', "{}", '{"cells": 3}', "[[1, 0], [0]]", "[1, 2]", "[[", "",
        "[]", '{"cells": []}',
        pytest.param("[[1" + "0" * 400 + ", 0], [0, 1]]", id="past-float"),
        pytest.param("[[1" + "0" * 5000 + ", 0], [0, 1]]", id="5000-digits"),
        pytest.param("[" * 100_000 + "]" * 100_000, id="100000-deep"),
    ])
    def test_malformed_json_documents(self, tmp_path, capsys, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        fails_with_one_json_line(capsys, ["measure", "--input", str(path)])

    @pytest.mark.parametrize("cell", [
        "true", '"0.5"', "[[1]]",
        pytest.param("[" * 700 + "1" + "]" * 700, id="700-deep"),
    ])
    def test_json_cell_error_reports_the_cell(self, tmp_path, capsys, cell):
        path = tmp_path / "m.json"
        path.write_text(f"[[{cell}, 0], [0, 1]]")
        err = fails_with_one_json_line(capsys, ["measure", "--input", str(path)])
        assert err["parameter"] == "cell(1,1)"
        assert json.dumps(err["value"]) == cell

    @no_fixture_check
    @given(column=st.integers(0, 3), bad=st.sampled_from(
        BAD_TOKENS + ["yes", "winner", "", "1,2"]))
    def test_line_csv(self, tmp_path, capsys, column, bad):
        record = ["0.5", "0.25", "1", "tie"]
        if bad == "" and column == 3:
            bad = "x"  # a trailing empty token can be valid
        record[column] = bad
        path = tmp_path / "l.csv"
        path.write_text("c_x,c_y,crossing,preference\n0.1,,0,second\n"
                        + ",".join(record) + "\n")
        fails_with_one_json_line(capsys, ["plot", "--input", str(path),
                                          "--svg", str(tmp_path / "x.svg")])

    @pytest.mark.parametrize("flag,value", [
        ("--k", "abc"), ("--k", "1"), ("--k", "-4"), ("--k", "1024"),
        ("--k", "1000000000"), ("--k", "3.5"), ("--p", "nan"), ("--p", "inf"),
        ("--p", "-0.1"), ("--p", "1.5"), ("--p", "x"), ("--grid-step", "0"),
        ("--grid-step", "nan"), ("--grid-step", "-0.25"), ("--grid-step", "2"),
        ("--grid-step", "0.3"), ("--c-lo", "-0.5"), ("--c-lo", "1"),
        ("--c-lo", "nan"), ("--c-lo", "x"), ("--bogus", "1"),
    ])
    @pytest.mark.parametrize("command", [
        ["discriminate", "--measure", "tpr", "--class", "1"],
        ["equivalence", "--kinds", "osr,ckc"],
        ["generate"],
    ])
    def test_series_flags(self, tmp_path, capsys, command, flag, value):
        flags = {"--k": "3", "--p": "0", "--grid-step": "0.25", "--c-lo": "0"}
        flags[flag] = value
        argv = command + [tok for item in flags.items() for tok in item]
        if command[0] == "generate":
            argv += ["--output", str(tmp_path / "bundle")]
        fails_with_one_json_line(capsys, argv)

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["measure"], ["measure", "--input"],
        ["measure", "--input", "m.csv", "--format", "xml"],
        ["discriminate", "--measure", "nope", "--k", "3", "--p", "0"],
        ["discriminate", "--measure", "tpr", "--class", "x", "--k", "3",
         "--p", "0"],
        ["discriminate", "--measure", "tpr", "--class", "0", "--k", "3",
         "--p", "0"],
        ["discriminate", "--measure", "osr", "--class", "1", "--k", "3",
         "--p", "0"],
        ["equivalence", "--kinds", "osr,bogus", "--k", "3", "--p", "0"],
        ["plot", "--svg", "x.svg"], ["plot", "--input", ",", "--svg", "x.svg"],
    ])
    def test_other_flags(self, capsys, argv):
        fails_with_one_json_line(capsys, argv)

    def test_usage_error_names_the_flag(self, capsys):
        err = fails_with_one_json_line(
            capsys, ["discriminate", "--measure", "osr", "--k", "abc",
                     "--p", "0"])
        assert err["error"] == "InvalidInput"
        assert err["parameter"] == "--k"
        assert "invalid int value: 'abc'" in err["message"]

    @pytest.mark.parametrize("argv", [["--help"], ["measure", "--help"],
                                      ["--version"]])
    def test_help_and_version_unchanged(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out and not captured.err

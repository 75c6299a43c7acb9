"""Command-line interface.

Subcommands:
    measure       evaluate the full measure catalog on one matrix
    generate      write the two controlled matrix series as a CSV bundle
    discriminate  solve one measure's discrimination line over a grid
    equivalence   partition measures by rank concordance over series pairs
    plot          render one or more line CSVs as an SVG
    gt            fit the quasi-independence model and report the GT index

Errors exit nonzero and print a one-line JSON object on stderr naming the
offending parameter and value.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys

from . import __version__, series
from .discrimination import discrimination_line, equivalence_classes, series_pairs
from .errors import ConfmeasuresError, InvalidInput
from .gt import gt_index
from .matrixio import (
    MatrixDocument,
    fmt,
    line_csv_text,
    parse_line_csv,
    parse_matrix,
    write_matrix_csv,
)
from .measures import parse_kind, report
from .plotting import PlotDocument, PlotLine, write_svg
from .series import SeriesMode, class_proportions, uniform_grid


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ``InvalidInput``, so they follow the JSON error
    contract too; ``--help`` and ``--version`` exit as usual."""

    def error(self, message):
        named = re.match(r"argument ([^:]+): ", message)
        raise InvalidInput(f"{self.prog}: {message}", value=None,
                           parameter=named.group(1) if named else "argv")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="confmeasures",
        description="Accuracy measures and discrimination lines for "
                    "confusion matrices",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="evaluate the measure catalog")
    _matrix_input_flags(p)
    p.add_argument("--output", help="write the report as JSON to this path")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("generate", help="write both matrix series as CSV")
    _series_flags(p)
    p.add_argument("--output", required=True,
                   help="directory for the CSV bundle")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("discriminate", help="solve a discrimination line")
    p.add_argument("--measure", required=True, help="measure kind name")
    p.add_argument("--class", dest="class_index", type=int, default=None,
                   help="1-based class index for class-specific measures")
    _series_flags(p)
    p.add_argument("--output", help="line CSV path (default: stdout)")
    p.set_defaults(func=cmd_discriminate)

    p = sub.add_parser("equivalence", help="partition measures by concordance")
    p.add_argument("--kinds", required=True,
                   help="comma-separated measure kind names")
    p.add_argument("--class", dest="class_index", type=int, default=None,
                   help="1-based class index for class-specific kinds")
    _series_flags(p)
    p.add_argument("--output", help="partition JSON path (default: stdout)")
    p.set_defaults(func=cmd_equivalence)

    p = sub.add_parser("plot", help="render line CSVs as SVG")
    p.add_argument("--input", action="append", required=True,
                   help="line CSV path; repeat or comma-separate for several")
    p.add_argument("--svg", required=True, help="output SVG path")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("gt", help="quasi-independence fit and GT index")
    _matrix_input_flags(p)
    p.add_argument("--output", help="write the result as JSON to this path")
    p.set_defaults(func=cmd_gt)

    return parser


def _matrix_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="matrix file path")
    p.add_argument("--format", choices=("csv", "json"), default=None,
                   help="input format (default: by file extension)")
    p.add_argument("--counts", action="store_true",
                   help="input holds raw counts, normalize to proportions")
    p.add_argument("--transpose", action="store_true",
                   help="input rows are true classes; transpose on load")


def _series_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True, help="number of classes")
    p.add_argument("--p", type=float, required=True,
                   help="imbalance parameter in [0, 1]")
    p.add_argument("--grid-step", type=float, default=0.01,
                   help="retention grid step (default 0.01)")
    p.add_argument("--c-lo", type=float, default=0.0,
                   help="lower end of the retention range (default 0)")


def _load_matrix(args) -> "ConfusionMatrix":
    doc = MatrixDocument(path=args.input, format=args.format,
                         transpose=args.transpose, counts=args.counts)
    return parse_matrix(doc)


def _write(path, write, parameter: str) -> None:
    """Run ``write(path)``; an OS error names the parameter and the path."""
    try:
        write(path)
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc.strerror or exc}",
                           parameter=parameter, value=str(path)) from exc


def _write_text(path, text: str) -> None:
    _write(path, lambda target: pathlib.Path(target).write_text(text), "output")


def cmd_measure(args) -> int:
    rep = report(_load_matrix(args))
    print(rep.to_text())
    if args.output:
        _write_text(args.output, json.dumps(rep.to_json_dict(), indent=2) + "\n")
    return 0


def cmd_generate(args) -> int:
    grid = uniform_grid(step=args.grid_step, c_lo=args.c_lo)
    pi = class_proportions(args.k, args.p)
    out = pathlib.Path(args.output)
    _write(out, lambda target: target.mkdir(parents=True, exist_ok=True),
           "output")
    index_rows = ["series,index,c,path"]
    for name, mode in (("x", SeriesMode.ALL_CLASSES),
                       ("y", SeriesMode.FIRST_CLASS_ONLY)):
        for ix, c in enumerate(grid):
            rel = f"{name}_{ix:04d}.csv"
            # looked up at call time, so bench/tracer.py's wrapper sees it
            m = series.series_matrix(pi, c, mode)
            _write(out / rel, lambda target: write_matrix_csv(m, target),
                   "output")
            index_rows.append(f"{name},{ix},{fmt(c)},{rel}")
    _write_text(out / "index.csv", "\n".join(index_rows) + "\n")
    return 0


def cmd_discriminate(args) -> int:
    kind = parse_kind(args.measure)
    line = discrimination_line(kind, k=args.k, p=args.p,
                               class_index=args.class_index,
                               grid_step=args.grid_step, c_lo=args.c_lo)
    text = line_csv_text(line)
    if args.output:
        _write_text(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_equivalence(args) -> int:
    kinds = [parse_kind(tok) for tok in args.kinds.split(",") if tok.strip()]
    if not kinds:
        raise InvalidInput("no measure kinds given", parameter="kinds",
                           value=args.kinds)
    pairs = series_pairs(k=args.k, p=args.p, grid_step=args.grid_step,
                         c_lo=args.c_lo)
    part = equivalence_classes(kinds, pairs, class_index=args.class_index)
    doc = {
        "k": args.k,
        "p": args.p,
        "kinds": [k.value for k in kinds],
        "groups": [[k.value for k in g] for g in part.groups],
        "pairs_compared": part.pairs_compared,
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.output:
        _write_text(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_plot(args) -> int:
    paths: list[str] = []
    for item in args.input:
        paths.extend(tok.strip() for tok in item.split(",") if tok.strip())
    if not paths:
        raise InvalidInput("no line CSV path given", parameter="input",
                           value=args.input)
    lines = []
    for path in paths:
        rows = parse_line_csv(path)
        lines.append(PlotLine(label=pathlib.Path(path).stem, rows=tuple(rows)))
    doc = PlotDocument(title="Discrimination lines", lines=tuple(lines))
    _write(args.svg, lambda target: write_svg(doc, target), "svg")
    return 0


def cmd_gt(args) -> int:
    m = _load_matrix(args)
    res = gt_index(m)
    fit = res.fit
    print("class  theta       a           b")
    for ix in range(m.k):
        theta = "undef" if res.theta[ix] is None else f"{res.theta[ix]:.6f}"
        print(f"{ix + 1:<6d} {theta:<11s} {fit.a[ix]:<11.6f} {fit.b[ix]:.6f}")
    print(f"iterations {fit.iterations}")
    print(f"residual {fit.residual:.6e}")
    if args.output:
        doc = {
            "theta": list(res.theta),
            "a": [float(v) for v in fit.a],
            "b": [float(v) for v in fit.b],
            "iterations": fit.iterations,
            "residual": fit.residual,
        }
        _write_text(args.output, json.dumps(doc, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfmeasuresError as exc:
        print(json.dumps(exc.to_dict()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Deterministic SVG rendering of discrimination lines.

The plot is the unit square in (c_x, c_y) with the reference diagonal
c_y = c_x, one labeled polyline per line, and edge markers for the grid values
where a line has no crossing (top edge: second classifier always preferred,
bottom edge: first).
"""

from __future__ import annotations

import dataclasses
import pathlib

from .discrimination import LineRow, Preference

_SIZE = 480
_MARGIN = 56
_PLOT = _SIZE - 2 * _MARGIN
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f"]


@dataclasses.dataclass(frozen=True)
class PlotLine:
    label: str
    rows: tuple[LineRow, ...]


@dataclasses.dataclass(frozen=True)
class PlotDocument:
    title: str
    lines: tuple[PlotLine, ...]


def _px(c_x: float, c_y: float) -> tuple[float, float]:
    # clip into the unit square, then map; SVG y grows downward
    x = min(max(c_x, 0.0), 1.0)
    y = min(max(c_y, 0.0), 1.0)
    return (_MARGIN + x * _PLOT, _MARGIN + (1.0 - y) * _PLOT)


def _coord(v: float) -> str:
    return f"{v:.2f}"


def render_svg(doc: PlotDocument) -> str:
    e = []
    e.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
             f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">')
    e.append(f'<rect x="0" y="0" width="{_SIZE}" height="{_SIZE}" fill="white"/>')
    e.append(f'<text x="{_SIZE / 2:.0f}" y="24" text-anchor="middle" '
             f'font-family="sans-serif" font-size="14">{_escape(doc.title)}</text>')

    x0, y0 = _px(0.0, 0.0)
    x1, y1 = _px(1.0, 1.0)
    e.append(f'<rect x="{_coord(x0)}" y="{_coord(y1)}" width="{_coord(x1 - x0)}" '
             f'height="{_coord(y0 - y1)}" fill="none" stroke="black"/>')
    for t in range(6):
        v = t / 5.0
        px, py = _px(v, 0.0)
        e.append(f'<line x1="{_coord(px)}" y1="{_coord(y0)}" x2="{_coord(px)}" '
                 f'y2="{_coord(y0 + 4)}" stroke="black"/>')
        e.append(f'<text x="{_coord(px)}" y="{_coord(y0 + 18)}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="11">{v:.1f}</text>')
        px, py = _px(0.0, v)
        e.append(f'<line x1="{_coord(x0 - 4)}" y1="{_coord(py)}" '
                 f'x2="{_coord(x0)}" y2="{_coord(py)}" stroke="black"/>')
        e.append(f'<text x="{_coord(x0 - 8)}" y="{_coord(py + 4)}" '
                 f'text-anchor="end" font-family="sans-serif" '
                 f'font-size="11">{v:.1f}</text>')
    e.append(f'<text x="{_SIZE / 2:.0f}" y="{_SIZE - 10}" text-anchor="middle" '
             f'font-family="sans-serif" font-size="12">c_x</text>')
    e.append(f'<text x="16" y="{_SIZE / 2:.0f}" text-anchor="middle" '
             f'font-family="sans-serif" font-size="12" '
             f'transform="rotate(-90 16 {_SIZE / 2:.0f})">c_y</text>')

    e.append(f'<line x1="{_coord(x0)}" y1="{_coord(y0)}" x2="{_coord(x1)}" '
             f'y2="{_coord(y1)}" stroke="#aaaaaa" stroke-dasharray="4 3"/>')

    for ix, line in enumerate(doc.lines):
        color = _PALETTE[ix % len(_PALETTE)]
        pts = [(r.c_x, r.c_y) for r in line.rows if r.crossing]
        if pts:
            coords = " ".join("%s,%s" % tuple(map(_coord, _px(px, py)))
                              for px, py in sorted(pts))
            e.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        for r in line.rows:
            if r.crossing or r.preference is None:
                continue
            edge = 1.0 if r.preference == Preference.SECOND else 0.0
            mx, my = _px(r.c_x, edge)
            e.append(f'<circle cx="{_coord(mx)}" cy="{_coord(my)}" r="1.5" '
                     f'fill="{color}"/>')
        ly = _MARGIN + 16 + 16 * ix
        e.append(f'<line x1="{_MARGIN + 8}" y1="{ly - 4}" x2="{_MARGIN + 28}" '
                 f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        e.append(f'<text x="{_MARGIN + 34}" y="{ly}" font-family="sans-serif" '
                 f'font-size="11">{_escape(line.label)}</text>')

    e.append("</svg>")
    return "\n".join(e) + "\n"


def write_svg(doc: PlotDocument, path) -> None:
    pathlib.Path(path).write_text(render_svg(doc))


def _escape(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))

"""Independent numpy reference for the benchmark's output checks.

Nothing here imports confmeasures. It recomputes, from the paper's
definitions, what the program is expected to produce:

- the class proportions and the two controlled matrix series;
- the 14 ratio and agreement measures, vectorised over a stack of matrices;
- the first / second / tie verdict matrices of the series pairs;
- the union-find partition of measures by perfect rank concordance.

Undefined values (a zero denominator) are carried as NaN inside this module
only; the checks compare that mask against the program's explicit ``None``.
"""

from __future__ import annotations

import numpy as np

TIE = 1e-12
PER_CLASS = ("tpr", "tnr", "ppv", "npv", "fpr", "f", "jcc", "icsi", "kul")
MULTICLASS = ("osr", "csi", "ckc", "spc", "mre")
KINDS = ("osr",) + PER_CLASS + MULTICLASS[1:]


def proportions(k: int, p: float) -> np.ndarray:
    """pi_i = (1 - p)/k + p * 2^(k-i)/(2^k - 1), via normalised halving weights."""
    halving = 0.5 ** np.arange(k)
    return (1.0 - p) / k + p * halving / halving.sum()


def grid(step: float = 0.01) -> np.ndarray:
    return np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)


def series(pi: np.ndarray, c, first_only: bool) -> np.ndarray:
    """Stack (n, k, k) of controlled matrices at retention values ``c``.

    ``first_only`` erodes class 1 only (the y series); otherwise every class
    keeps the share c of its mass on the diagonal (the x series). The rest of
    column j is spread evenly over the other k - 1 rows.
    """
    c = np.atleast_1d(np.asarray(c, dtype=float))
    k = pi.size
    rates = np.ones((c.size, k))
    if first_only:
        rates[:, 0] = c
    else:
        rates[:] = c[:, None]
    off = (1.0 - rates) / (k - 1) * pi
    cells = np.repeat(off[:, None, :], k, axis=1)
    diag = np.arange(k)
    cells[:, diag, diag] = rates * pi
    return cells


def _ratio(num, den):
    num, den = np.broadcast_arrays(np.asarray(num, float), np.asarray(den, float))
    out = np.full(num.shape, np.nan)
    np.divide(num, den, out=out, where=den != 0)
    return out


def measures(cells) -> dict[str, np.ndarray]:
    """All 14 measures of a (n, k, k) stack (or one k x k matrix).

    Rows are estimated classes and columns true classes. Per-class values have
    shape (n, k); multiclass values shape (n,). NaN marks a zero denominator.
    """
    cells = np.asarray(cells, dtype=float)
    if cells.ndim == 2:
        cells = cells[None]
    k = cells.shape[-1]
    tp = np.diagonal(cells, axis1=1, axis2=2)
    row = cells.sum(axis=2)
    col = cells.sum(axis=1)
    tn = 1.0 - row - col + tp
    out = {
        "tpr": _ratio(tp, col),
        "tnr": _ratio(tn, 1.0 - col),
        "ppv": _ratio(tp, row),
        "npv": _ratio(tn, 1.0 - row),
        "f": _ratio(2.0 * tp, row + col),
        "jcc": _ratio(tp, row + col - tp),
    }
    out["fpr"] = 1.0 - out["tnr"]
    out["icsi"] = out["ppv"] + out["tpr"] - 1.0
    out["kul"] = (out["ppv"] + out["tpr"]) / 2.0
    osr = tp.sum(axis=1)
    out["osr"] = osr
    out["csi"] = out["icsi"].mean(axis=1)
    for name, chance in (("ckc", (row * col).sum(axis=1)),
                         ("spc", (col * col).sum(axis=1)),
                         ("mre", np.full(osr.shape, 1.0 / k))):
        out[name] = _ratio(osr - chance, np.where(chance < 1.0, 1.0 - chance, 0.0))
    return out


def pick(values: dict[str, np.ndarray], kind: str, class_index: int | None):
    """One kind's values; ``class_index`` is 1-based for per-class kinds."""
    v = values[kind]
    return v[:, class_index - 1] if kind in PER_CLASS else v


def line_values(kind: str, class_index, k: int, p: float, c, first_only: bool):
    """Measure values along one series at retention values ``c``."""
    return pick(measures(series(proportions(k, p), c, first_only)), kind,
                class_index)


def verdicts(first: np.ndarray, second: np.ndarray):
    """(sign, defined) matrices over every (first[i], second[j]) pair.

    sign is +1 where the first wins by more than the tie band, -1 where the
    second does, 0 for a tie.
    """
    a = first[:, None]
    b = second[None, :]
    sign = np.where(a > b + TIE, 1, np.where(b > a + TIE, -1, 0))
    return sign, ~np.isnan(a) & ~np.isnan(b)


def partition(kinds, class_index, k: int, p: float, step: float = 0.01):
    """Groups of ``kinds`` that issue identical verdicts on every comparable
    series pair, closed transitively; returns (groups, pairs_compared)."""
    c = grid(step)
    pi = proportions(k, p)
    mx = measures(series(pi, c, first_only=False))
    my = measures(series(pi, c, first_only=True))
    kinds = list(dict.fromkeys(kinds))
    table = [verdicts(pick(mx, kd, class_index), pick(my, kd, class_index))
             for kd in kinds]
    parent = list(range(len(kinds)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for ia in range(len(kinds)):
        for ib in range(ia + 1, len(kinds)):
            (sa, da), (sb, db) = table[ia], table[ib]
            both = da & db
            if not both.any():
                raise ValueError(f"no comparable pairs for {kinds[ia]} vs {kinds[ib]}")
            if (sa[both] == sb[both]).all():
                parent[find(ia)] = find(ib)
    groups: dict[int, list[str]] = {}
    for ix, kind in enumerate(kinds):
        groups.setdefault(find(ix), []).append(kind)
    return [set(g) for g in groups.values()], c.size * c.size

"""Equivalence partitions pinned by SHA-256.

``tests/data/partition_digests.json`` holds, for the multiclass kind set and
the per-class kind set at classes 1 and 2, at k in {3, 4, 5} and p in
{0, 0.5, 1}, grid step 0.02, two digests: one of the ``confmeasures
equivalence`` JSON, and one of the (total, concordant, excluded) triple of
``consistency`` for every pair of kinds in the set. A change to the series
pairs, their indexing or the verdicts that moves any group or any count
changes a digest. To rewrite the file after a deliberate change:

    PYTHONPATH=src python tests/test_partition_digests.py
"""

import contextlib
import hashlib
import io
import itertools
import json
import pathlib

from confmeasures.cli import main
from confmeasures.discrimination import consistency, series_pairs
from confmeasures.measures import parse_kind

DIGESTS = pathlib.Path(__file__).parent / "data" / "partition_digests.json"
STEP = 0.02
PER_CLASS = ("tpr", "tnr", "ppv", "npv", "f", "jcc", "icsi", "kul")
KIND_SETS = [("multi", ("osr", "ckc", "spc", "mre", "csi"), None),
             ("class1", PER_CLASS, 1), ("class2", PER_CLASS, 2)]


def partition_cases():
    """``(name, kinds, class_index, k, p)`` of every pinned partition."""
    for k in (3, 4, 5):
        for p in (0.0, 0.5, 1.0):
            for label, kinds, ci in KIND_SETS:
                yield f"k{k}_p{p:g}_{label}", kinds, ci, k, p


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def partition_digests() -> dict[str, str]:
    out = {}
    for name, kinds, ci, k, p in partition_cases():
        argv = ["equivalence", "--kinds", ",".join(kinds), "--k", str(k),
                "--p", str(p), "--grid-step", str(STEP)]
        if ci is not None:
            argv += ["--class", str(ci)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0
        out[f"{name}_cli"] = digest(stdout.getvalue())
        pairs = series_pairs(k, p, grid_step=STEP)
        rows = []
        for a, b in itertools.combinations(kinds, 2):
            res = consistency(parse_kind(a), parse_kind(b), pairs, ci)
            rows.append(f"{a},{b},{res.total},{res.concordant},{res.excluded}\n")
        out[f"{name}_pairs"] = digest("".join(rows))
    return out


def test_partitions_unchanged():
    want = json.loads(DIGESTS.read_text())
    got = partition_digests()
    assert got.keys() == want.keys()
    assert [name for name in want if got[name] != want[name]] == []


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(partition_digests(), indent=1) + "\n")

"""Line CSV bytes pinned by SHA-256.

``tests/data/line_digests.json`` holds the digest of ``line_csv_text`` for
every non-GT kind and class at k in {3, 4, 5} and p in {0, 0.5, 1}, grid step
0.02, plus six lines at ``c_lo`` 0.6. A solver change that moves any printed
digit of any row changes a digest. To rewrite the file after a deliberate
change of the lines:

    PYTHONPATH=src python tests/test_line_digests.py
"""

import hashlib
import json
import pathlib

from confmeasures.discrimination import discrimination_line
from confmeasures.matrixio import line_csv_text
from confmeasures.measures import MeasureKind as K

DIGESTS = pathlib.Path(__file__).parent / "data" / "line_digests.json"
RESTRICTED = [(K.OSR, None), (K.PPV, 1), (K.TPR, 2), (K.COHEN_KAPPA, None),
              (K.NPV, 2), (K.KULCZYNSKI, 1)]


def line_cases():
    """``(name, kind, k, p, class_index, c_lo)`` of every pinned line."""
    for k in (3, 4, 5):
        for p in (0.0, 0.5, 1.0):
            for kind in K:
                if kind == K.GT_INDEX:
                    continue
                classes = range(1, k + 1) if kind.class_specific else [None]
                for ci in classes:
                    yield (f"k{k}_p{p:g}_{kind.value}{ci or ''}", kind, k, p,
                           ci, 0.0)
    for kind, ci in RESTRICTED:
        yield f"k3_p0.5_{kind.value}{ci or ''}_clo0.6", kind, 3, 0.5, ci, 0.6


def line_digests() -> dict[str, str]:
    out = {}
    for name, kind, k, p, ci, c_lo in line_cases():
        line = discrimination_line(kind, k=k, p=p, class_index=ci,
                                   grid_step=0.02, c_lo=c_lo)
        out[name] = hashlib.sha256(line_csv_text(line).encode()).hexdigest()
    return out


def test_line_csvs_unchanged():
    want = json.loads(DIGESTS.read_text())
    got = line_digests()
    assert got.keys() == want.keys()
    assert [name for name in want if got[name] != want[name]] == []


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(line_digests(), indent=1) + "\n")

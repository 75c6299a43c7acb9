"""Self-tests of the benchmark: ``python3 -m pytest bench`` from the repo root.

They import the program from src/, as the benchmark's runs do.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

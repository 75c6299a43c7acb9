"""The README's code runs as printed, and the package exports what it lists."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

import confmeasures

ROOT = pathlib.Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                    re.DOTALL)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", BLOCKS[index]], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_every_exported_name_resolves():
    assert len(set(confmeasures.__all__)) == len(confmeasures.__all__)
    for name in confmeasures.__all__:
        assert getattr(confmeasures, name, None) is not None, name

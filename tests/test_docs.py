"""The README's code runs as printed, the package exports what it lists and
every name the benchmark's tracer wraps, and the sources parse as the oldest
Python that ``requires-python`` admits."""

import ast
import importlib
import importlib.util
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


def test_benchmark_patch_points_resolve():
    # the traced benchmark run wraps these names and fails on a missing one
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.PATCH_POINTS
    for module, attr, *_ in tracer.PATCH_POINTS:
        assert hasattr(importlib.import_module(module), attr), (module, attr)
    assert hasattr(confmeasures.ConfusionMatrix, "__post_init__")


def test_sources_parse_as_python_3_10():
    paths = [path for part in ("src", "scripts", "tests")
             for path in sorted((ROOT / part).rglob("*.py"))]
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))

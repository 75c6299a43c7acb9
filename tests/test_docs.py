"""The README's code runs as printed, the package exports what it lists and
every name the benchmark's tracer wraps, a traced ``generate`` reaches the
wrapped ``series_matrix``, no module imports a name it does not use unless
the tracer wraps it there, and the sources parse as the oldest Python that
``requires-python`` admits."""

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


def load_bench_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_patch_points_resolve():
    # the traced benchmark run wraps these names and fails on a missing one
    tracer = load_bench_tracer()
    assert tracer.PATCH_POINTS
    for module, attr, *_ in tracer.PATCH_POINTS:
        assert hasattr(importlib.import_module(module), attr), (module, attr)
    assert hasattr(confmeasures.ConfusionMatrix, "__post_init__")


def unused_imports(path):
    """The names a module binds by import and never reads, ``__future__``
    features aside."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    return bound - {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)}


def test_unused_imports_are_the_tracers():
    # an import kept only for the tracer to wrap is named in PATCH_POINTS
    wrapped = {(module, attr)
               for module, attr, *_ in load_bench_tracer().PATCH_POINTS}
    paths = sorted((ROOT / "src" / "confmeasures").glob("*.py"))
    unused = {(f"confmeasures.{path.stem}", name) for path in paths
              if path.name != "__init__.py" for name in unused_imports(path)}
    assert unused - wrapped == set()


def test_traced_generate_fills_the_series_matrix_layer(tmp_path):
    # a traced benchmark run exits 1 when no call fills ``series.matrix_us``;
    # ``generate`` makes 2 * |grid| such calls, a series partition none
    from confmeasures import cli, discrimination
    from confmeasures.measures import MeasureKind as K

    tracer = load_bench_tracer().Tracer()

    def spans(name):
        return sum(tracer.names[i] == name for i in tracer.name)

    try:
        tracer.instrument()
        assert cli.main(["generate", "--k", "3", "--p", "0.5", "--grid-step",
                         "0.25", "--output", str(tmp_path / "bundle")]) == 0
        assert spans("series.matrix") == 10
        assert spans("matrix.construct") == 10
        pairs = discrimination.series_pairs(3, 0.5, grid_step=0.25)
        discrimination.equivalence_classes([K.OSR, K.COHEN_KAPPA, K.CSI],
                                           pairs)
        assert spans("series.pairs") == spans("discrimination.partition") == 1
        assert spans("series.matrix") == spans("matrix.construct") == 10
    finally:
        tracer.restore()


def test_sources_parse_as_python_3_10():
    paths = [path for part in ("src", "scripts", "tests")
             for path in sorted((ROOT / part).rglob("*.py"))]
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))

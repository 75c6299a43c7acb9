"""Benchmark of confmeasures: one workload, one run.

    python3 bench/run.py --workload figures --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The workload runs in a fresh single-threaded
interpreter against ``src/`` (PYTHONPATH=src), so nothing is installed.

With ``--trace 0`` it prints the end-to-end metrics: ``setup_s`` (median of
seven fresh set-ups, three before the measured run, the run's own, three
after), ``ops_per_s``, ``op_ms_p50`` and ``peak_rss_mb``. With ``--trace 1``
it prints the per-layer metrics of a separate traced run. The last line of
standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
``--workload all`` runs the four in turn; its last line is then one JSON
object of those results keyed by workload. Run outputs go to
bench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("figures", "equivalence", "catalog", "cli")
SETUPS_AROUND_RUN = 3
# a run must end within 180 s; this leaves room to stop a late child
DEADLINE_S = 165

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    "discrimination.line_ms": "ms", "discrimination.evals_per_line": "count",
    "discrimination.partition_ms": "ms", "discrimination.evals_per_partition": "count",
    "series.pairs_ms": "ms", "series.matrices_per_line": "count",
    "series.matrix_us": "us", "matrix.construct_us": "us", "matrix.from_counts_us": "us",
    "measures.evaluate_us": "us", "measures.report_ms": "ms", "gt.index_ms": "ms",
    "gt.fits_per_report": "count", "gt.iterations_per_fit": "count",
    "matrixio.parse_ms": "ms", "matrixio.line_csv_ms": "ms", "plotting.svg_ms": "ms",
    "cli.import_ms": "ms", "cli.measure_ms": "ms", "cli.gt_ms": "ms",
    "cli.discriminate_ms": "ms", "cli.equivalence_ms": "ms", "cli.generate_ms": "ms",
    "cli.plot_ms": "ms", "trace.overhead_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def harness(workload: str, seed: int, seconds: int, mode: str, deadline: float) -> dict:
    """Run bench/harness.py in a fresh interpreter; its last line is JSON.

    The child leads its own process group, so a late run is stopped together
    with the CLI processes it started.
    """
    out = BENCH_DIR / "out" / workload
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "harness.py"), workload, str(seed),
         str(seconds), mode, repr(spawned_at), str(out)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} {mode} run did not end in time") from None
    if proc.returncode != 0 or not stdout.strip():
        raise RuntimeError(f"{workload} {mode} run exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of one workload: prints its metrics and returns the result."""
    deadline = time.monotonic() + DEADLINE_S
    shutil.rmtree(BENCH_DIR / "out" / workload, ignore_errors=True)

    def call(mode):
        return harness(workload, seed, seconds, mode, deadline)

    if trace:
        res = call("trace")
        values, units = res["metrics"], PER_LAYER
    else:
        setups = [call("setup")["setup_s"] for _ in range(SETUPS_AROUND_RUN)]
        res = call("run")
        setups += [res["setup_s"]]
        setups += [call("setup")["setup_s"] for _ in range(SETUPS_AROUND_RUN)]
        values = dict(res, setup_s=statistics.median(setups))
        units = END_TO_END
    missing = [name for name in units if values.get(name) is None]
    if missing:
        raise RuntimeError(f"{workload}: no value for {', '.join(missing)}")
    for line in res["problems"][:50] + res["errors"]:
        print(f"bench: {workload}: {line}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload} attempted = {res['attempted']}, failed = {res['failed']}, "
          f"check problems = {len(res['problems'])}")
    return {"correct": not res["problems"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "confmeasures" / "__init__.py").is_file():
        print(f"bench: no confmeasures package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: measure(w, args.seed, args.seconds, args.trace) for w in names}
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

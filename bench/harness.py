"""One benchmark run of one workload, in a fresh interpreter.

    python bench/harness.py WORKLOAD SEED SECONDS MODE SPAWNED_AT OUT_DIR

MODE is ``setup`` (set up, report the set-up time, stop), ``run`` (untraced
rounds for SECONDS of timed work, then the end-to-end figures) or ``trace``
(one untraced and one traced round, then the per-layer figures). SPAWNED_AT
is the parent's ``time.monotonic()`` just before it started this process, so
the set-up time counts interpreter start, imports and input generation.
Prints one JSON object as its last line.
"""

import json
import pathlib
import resource
import statistics
import sys
import time

from tracer import Tracer, layer_metrics
from workloads import LAYER_OWNERS, WORKLOADS


def run(wl, seconds: float) -> dict:
    """Untraced rounds until ``seconds`` of them are timed.

    ``op_ms_p50`` is the median over the operations of each one's median time
    over the rounds: a median of the pooled times would fall between the
    slowest of one kind of operation and the fastest of the next wherever a
    round holds an even number of them (the six CLI commands, the 26 lines).
    """
    times, failed, problems, errors, timed, rounds = {}, 0, [], [], 0.0, 0
    while rounds == 0 or timed < seconds:
        start = time.perf_counter()
        rnd = wl.run_round()
        timed += time.perf_counter() - start
        rounds += 1
        for op, seconds_taken in rnd.durations.items():
            times.setdefault(op, []).append(seconds_taken)
        failed += rnd.failed
        errors += rnd.errors
        problems += wl.check(rnd.outputs)
    completed = sum(len(t) for t in times.values())
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    return {
        "attempted": completed + failed, "failed": failed,
        "problems": problems, "errors": errors[:20], "rounds": rounds,
        "ops_per_s": completed / timed,
        "op_ms_p50": (statistics.median(statistics.median(t) for t in times.values()) * 1e3
                      if times else None),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def traced_round(wl, sample=False):
    tracer = Tracer()
    tracer.instrument()
    start = time.perf_counter()
    try:
        rnd = wl.run_round(tracer, sample=sample)
    finally:
        tracer.restore()
    return rnd, time.perf_counter() - start, tracer


def trace(wl, seed: int, out: pathlib.Path) -> dict:
    start = time.perf_counter()
    wl.run_round()
    untraced = time.perf_counter() - start
    rnd, traced, tracer = traced_round(wl)
    tracer.save(out / "spans.npz")
    problems = wl.check(rnd.outputs)
    metrics = layer_metrics(tracer)
    attempted, failed, errors = len(rnd.durations) + rnd.failed, rnd.failed, rnd.errors
    # fill each layer this workload never calls from a traced sample of the
    # workload that owns it, so every per-layer figure is a measurement
    owners = sorted({LAYER_OWNERS[m] for m in LAYER_OWNERS if m not in metrics})
    for owner in owners:
        other = WORKLOADS[owner](seed, out / "sample" / owner)
        sample, _, sample_tracer = traced_round(other, sample=True)
        sample_tracer.save(out / f"spans_sample_{owner}.npz")
        problems += other.check(sample.outputs)
        attempted += len(sample.durations) + sample.failed
        failed += sample.failed
        errors += sample.errors
        for name, value in layer_metrics(sample_tracer).items():
            metrics.setdefault(name, value)
    metrics["trace.overhead_s"] = traced - untraced
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "errors": errors[:20], "metrics": metrics, "sampled_from": owners}


def main() -> int:
    name, seed, seconds, mode, spawned_at, out = sys.argv[1:7]
    out = pathlib.Path(out)
    out.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[name](int(seed), out)
    result = {"setup_s": time.monotonic() - float(spawned_at)}
    if mode == "run":
        result.update(run(wl, float(seconds)))
    elif mode == "trace":
        result.update(trace(wl, int(seed), out))
    (out / f"{mode}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

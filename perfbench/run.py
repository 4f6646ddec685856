"""Benchmark entry point: one seeded workload, timed end to end or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload assess_batch --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the workload traced and reports the per-layer
metrics plus the tracing overhead (see :func:`traced_run`).

Output: human-readable lines naming every metric with its unit and
sample count, one ``run-record`` JSON line (input/output digests,
checks, workload-specific metrics), and as the last line the result
object ``{"correct", "attempted", "failed", "metrics"}``.  Spans of a
traced run and the run record are also written under ``perfbench/out/``.

Exit status: 0 when every correctness check passed, 1 when one failed
(the result line still prints), 2 when the program under test is not
present (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("assess_batch", "watch_durable", "serve_mixed")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: (name, unit, better) of every bounded end-to-end metric; each workload
#: reports all.  Each workload also prints ``latency_p50_ms`` and
#: ``latency_p99_ms``, unbounded: on the 2-vCPU box the bounds were set
#: on, their run-to-run spread reached the largest bound allowed
#: (README.md, "End-to-end metrics").
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("throughput_per_s", "1/s", "higher"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_workload(name: str, seed: int, seconds: float, tracer, setup_repeats: int, tmp: str):
    if name == "assess_batch":
        import assess

        return assess.run(seed, seconds, tracer, setup_repeats)
    if name == "watch_durable":
        import watch

        return watch.run(seed, seconds, tracer, setup_repeats, tmp)
    import serve

    return serve.run(seed, seconds, tracer, setup_repeats)


def traced_run(args, tmp: str):
    """A traced run and its overhead; returns (outcome, per-layer values).

    A workload that runs each input twice, idle and recording
    (``pairs``), gets its overhead and reconcile error from those pairs.  Any other
    is also run untraced, and its overhead is the ratio of the two runs'
    cost per operation.
    """
    import layers
    from tracing import Tracer, reconcile_pairs

    tracer = Tracer()
    span_ns, count_ns = tracer.calibrate()
    layers.install(tracer)
    try:
        traced = run_workload(args.workload, args.seed, args.seconds, tracer, 1, tmp)
    finally:
        tracer.restore()
    extra = {}
    if traced.pairs:
        overhead, error = reconcile_pairs(traced.pairs, span_ns, count_ns)
        extra["trace.reconcile_error_pct"] = error
        traced.notes.append(
            f"reconcile: {len(traced.pairs)} inputs run idle and traced; wrapper cost"
            f" {span_ns:.0f} ns/span, {count_ns:.0f} ns/counted call;"
            f" |median (traced - wrapper cost - idle) / idle| = {error:.2f}%"
        )
    else:
        baseline = run_workload(args.workload, args.seed, args.seconds, None, 1, tmp)
        overhead = (traced.cost / baseline.cost - 1.0) * 100.0
        traced.attempted += baseline.attempted
        traced.failed += baseline.failed
        traced.checks.update({f"untraced.{k}": v for k, v in baseline.checks.items()})
    extra["trace.overhead_pct"] = overhead
    values = layers.collect(tracer, traced.layer, extra)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{args.workload}-{args.seed}.jsonl", "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span.as_dict()) + "\n")
    return traced, values


def stop_processes() -> None:
    """Stop and wait for every process the run started.

    Pool workers are reaped first: the shared-memory resource tracker
    the process backend starts only exits once every process holding
    its pipe has, and left alone it outlives this one.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
    for child in multiprocessing.active_children():
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return measure(argv)
    finally:
        stop_processes()


def measure(argv) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    from tracing import check_metric_name, check_unit

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.trace:
            outcome, values = traced_run(args, tmp)
            metrics = {
                name: {"value": values[name], "unit": unit} for name, unit, _ in layers.PER_LAYER
            }
        else:
            outcome = run_workload(args.workload, args.seed, args.seconds, None, SETUP_REPEATS, tmp)
            metrics = {
                name: {"value": outcome.metrics[name].value, "unit": unit}
                for name, unit, _ in END_TO_END
            }
    for name, metric in metrics.items():
        check_metric_name(name)
        check_unit(metric["unit"])

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, metric in {**outcome.metrics, **outcome.detail}.items():
        print(f"  {name:<34} {metric.value:>14.4f} {metric.unit:<6} (n={metric.samples})")
    if args.trace:
        for name, metric in metrics.items():
            print(f"  {name:<34} {metric['value']:>14.4f} {metric['unit']}")
    for note in outcome.notes:
        print("  " + note)
    for check, ok in outcome.checks.items():
        print(f"  check {check}: {'ok' if ok else 'FAILED'}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpus": os.cpu_count(),
        "digests": outcome.digests,
        "checks": outcome.checks,
        "detail": {k: vars(v) for k, v in {**outcome.metrics, **outcome.detail}.items()},
    }
    (OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    print("run-record " + json.dumps(record, sort_keys=True))
    correct = outcome.correct
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""How much the end-to-end metrics depend on the assumed traffic mix.

The live feeds' population and the serving mix have no measured basis
(README.md, "Traffic mix").  This script reruns a workload with each
mix parameter halved and doubled, the others at their defaults, and
prints each variant's median over the seeds beside the defaults'::

    python3 perfbench/sensitivity.py --workload serve_mixed --seeds 1,2,3 --seconds 20

Seeds run in the outer loop and variants in the inner one, so the box's
drift from minute to minute spreads over every variant alike.  All runs
share one process, so ``setup_s`` and ``peak_rss_mb`` are not compared.
Exit status: 0 when every run's correctness checks passed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from run import OUT, SRC, run_workload, stop_processes

#: Mix parameters per workload: (module, constant).
PARAMETERS = {
    "watch_durable": [
        ("inputs", "FEED_ZIPF_S"),
        ("inputs", "STEP_SHARE"),
        ("inputs", "STEP_FACTOR"),
        ("inputs", "NOISY_SHARE"),
    ],
    "serve_mixed": [
        ("serve", "RECOMMEND_SHARE"),
        ("serve", "NEW_CUSTOMER_SHARE"),
        ("serve", "TARGET_ZIPF_S"),
    ],
}
FACTORS = (0.5, 2.0)
COMPARED = ("throughput_per_s", "latency_p50_ms", "latency_p99_ms")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PARAMETERS))
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import importlib

    from tracing import median

    variants = [("default", None, None, 1.0)] + [
        (f"{name} x{factor:g}", importlib.import_module(module), name, factor)
        for module, name in PARAMETERS[args.workload]
        for factor in FACTORS
    ]
    values: dict[str, dict[str, list[float]]] = {label: {} for label, *_ in variants}
    correct = True
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for seed in (int(s) for s in args.seeds.split(",")):
            for label, module, name, factor in variants:
                default = getattr(module, name) if module else None
                if module:
                    setattr(module, name, default * factor)
                try:
                    outcome = run_workload(args.workload, seed, args.seconds, None, 1, tmp)
                finally:
                    if module:
                        setattr(module, name, default)
                correct &= outcome.correct and outcome.failed == 0
                row = {m: outcome.metrics[m].value for m in COMPARED}
                print(
                    f"seed {seed} {label:<24} failed {outcome.failed} "
                    + "  ".join(f"{m} {v:.3f}" for m, v in row.items()),
                    flush=True,
                )
                for metric, value in row.items():
                    values[label].setdefault(metric, []).append(value)
    base = {m: median(values["default"][m]) for m in COMPARED}
    print(f"{'variant':<26}" + "".join(f"{m:>28}" for m in COMPARED))
    for label, per_metric in values.items():
        cells = []
        for metric in COMPARED:
            value = median(per_metric[metric])
            cells.append(f"{value:>18.2f} ({value / base[metric] - 1:+6.1%})")
        print(f"{label:<26}" + "".join(cells))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        stop_processes()

"""The per-layer metrics: which public boundaries are timed, and how.

Layers are the program's modules.  :func:`install` wraps each layer's
public functions on a :class:`~tracing.Tracer`; :func:`collect` turns
the recorded spans and counters, plus the numbers a workload read from
public counters, into the ``per_layer`` metrics of ``BENCHMARK.json``.
README.md lists which end-to-end metric each one should move.
"""

from __future__ import annotations

from tracing import Tracer

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("core.violation_kernel.calls", "count", "lower"),
    ("core.violation_kernel.self_ms", "ms", "lower"),
    ("core.violation_kernel.cells", "count", "lower"),
    ("core.build_curve.calls", "count", "lower"),
    ("core.build_curve.self_ms", "ms", "lower"),
    ("core.probabilities.calls", "count", "lower"),
    ("core.probabilities.self_ms", "ms", "lower"),
    ("core.capacity_vector.calls", "count", "lower"),
    ("core.profile.calls", "count", "lower"),
    ("core.profile.self_ms", "ms", "lower"),
    ("core.match.calls", "count", "lower"),
    ("core.match.self_ms", "ms", "lower"),
    ("core.recommend.calls", "count", "lower"),
    ("core.recommend.self_ms", "ms", "lower"),
    ("fleet.catalog_signature.calls", "count", "lower"),
    ("fleet.catalog_signature.self_ms", "ms", "lower"),
    ("fleet.fingerprint.calls", "count", "lower"),
    ("fleet.fingerprint.self_ms", "ms", "lower"),
    ("fleet.cache.hit_ratio", "ratio", "higher"),
    ("fleet.watch.wait_ms", "ms", "lower"),
    ("streaming.observe.calls", "count", "lower"),
    ("streaming.observe.self_ms", "ms", "lower"),
    ("streaming.refresh.calls", "count", "lower"),
    ("streaming.refresh.self_ms", "ms", "lower"),
    ("streaming.refresh_ratio", "ratio", "lower"),
    ("store.checkpoint.calls", "count", "lower"),
    ("store.checkpoint.self_ms", "ms", "lower"),
    ("store.checkpoint.rows", "count", "lower"),
    ("store.checkpoint.bytes", "bytes", "lower"),
    ("store.read.calls", "count", "lower"),
    ("store.read.self_ms", "ms", "lower"),
    ("store.evictions", "count", "lower"),
    ("store.readmits", "count", "lower"),
    ("serve.observe.busy_share", "ratio", "lower"),
    ("serve.observe.batch_mean", "count", "higher"),
    ("serve.observe.rejected", "count", "lower"),
    ("serve.recommend.busy_share", "ratio", "lower"),
    ("serve.recommend.batch_mean", "count", "higher"),
    ("serve.recommend.rejected", "count", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.reconcile_error_pct", "%", "lower"),
)

def install(tracer: Tracer) -> None:
    """Wrap every traced public boundary of the program on ``tracer``."""
    from repro.core import curve, engine, matching, ppm, profiler, throttling
    from repro.fleet import cache
    from repro.store import fleetstore
    from repro.streaming import live

    def kernel_cells(args, kwargs, result) -> None:
        demands, caps = args[0], args[1]
        rows = demands.shape[0] if hasattr(demands, "shape") else sum(b.shape[0] for b in demands)
        tracer.counters["core.violation_kernel.cells"] += rows * caps.shape[0] * caps.shape[1]

    def checkpoint_size(args, kwargs, record) -> None:
        tracer.counters["store.checkpoint.rows"] += record.n_customers
        tracer.counters["store.checkpoint.bytes"] += record.n_state_bytes

    def readmit(args, kwargs, record) -> None:
        if record is not None:
            tracer.counters["store.readmits"] += 1

    def timed(name, on_call=None):
        return lambda fn: tracer.timed(name, fn, on_call)

    for attr in ("violation_counts", "batch_violation_counts"):
        tracer.patch_function(throttling, attr, timed("core.violation_kernel", kernel_cells))
    tracer.patch_function(
        throttling, "capacity_vector", lambda fn: tracer.counted("core.capacity_vector", fn)
    )
    tracer.patch_function(cache, "catalog_signature", timed("fleet.catalog_signature"))
    tracer.patch_function(cache, "trace_fingerprint", timed("fleet.fingerprint"))

    methods = [
        (ppm.PricePerformanceModeler, ("build_curve", "build_curves_batch"), "core.build_curve"),
        (curve.PricePerformanceCurve, ("from_price_ordered",), "core.build_curve"),
        (profiler.CustomerProfiler, ("profile", "profile_streaming", "profile_batch"), "core.profile"),
        (matching.GroupScoreModel, ("recommend",), "core.match"),
        (engine.DopplerEngine, ("recommend",), "core.recommend"),
        (live.LiveRecommender, ("observe",), "streaming.observe"),
        (live.LiveRecommender, ("refresh",), "streaming.refresh"),
        (fleetstore.FleetStore, ("latest_checkpoint", "iter_customer_states"), "store.read"),
    ]
    estimators = [throttling.ThrottlingEstimator, *throttling.ThrottlingEstimator.__subclasses__()]
    for cls in estimators:
        names = tuple(
            attr
            for attr, value in vars(cls).items()
            if attr.startswith("probabilit")
            and not getattr(value, "__isabstractmethod__", False)
        )
        methods.append((cls, names, "core.probabilities"))
    for cls, attrs, name in methods:
        for attr in attrs:
            tracer.patch_method(cls, attr, timed(name))
    tracer.patch_method(fleetstore.FleetStore, "load_customer_state", timed("store.read", readmit))
    tracer.patch_method(fleetstore.FleetStore, "checkpoint", timed("store.checkpoint", checkpoint_size))


def collect(tracer: Tracer, layer: dict[str, float], extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric: spans and counters, then workload numbers.

    A layer the workload never reached reports 0, which is the measured
    value (the workload bypasses it), not a missing one.
    """
    values = {name: float(count) for name, count in tracer.counters.items()}
    for name, self_ms in tracer.self_ms_by_name().items():
        values[name + ".self_ms"] = self_ms
    values["fleet.watch.wait_ms"] = values.pop("fleet.watch.next.self_ms", 0.0)
    values.update(layer)
    values.update(extra)
    return {name: values.get(name, 0.0) for name, _, _ in PER_LAYER}

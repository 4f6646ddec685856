"""``assess_batch``: estate assessment through the serial fleet engine.

Set-up simulates a migrated training fleet, fits a serial
:class:`~repro.fleet.FleetEngine` on it and generates the first estate.
The timed loop then assesses fresh estates of SQL DB customers, each
through a new engine wrapper around the fitted model (so every pass
starts with a cold curve cache), until ``seconds`` of passes are
measured.  Estate generation between passes is not timed.

Throughput and latencies come from the slowest tenth of the passes, and
at least ten passes (:func:`outcome.slowest`).

On a traced run each estate is assessed twice back to back, once with
the tracer idle and once recording, so the tracing overhead and the reconcile
check compare the same work a few hundred milliseconds apart, not two
runs the box's drift can separate by 15%.  The idle pass must give the
same answers as the recording one.
"""

from __future__ import annotations

import time

from repro import FleetEngine

from inputs import customer_bytes, digest, estate, fitted_fleet, recommendation_line, rng_for
from outcome import Metric, Outcome, peak_rss_mb, recording, slowest, timed_setups
from tracing import median, percentile

ESTATE_SIZE = 200
#: Customers per pass re-assessed by the single-customer reference engine.
CHECKS_PER_PASS = 2
#: Share of the passes the figures come from: the slowest ones, and at
#: least enough for 20 customer latencies beyond the p99.
SLOWEST_SHARE = 0.1
MIN_LATENCIES = 2000


class HandoverList(list):
    """A list that notes when the program takes each of its items."""

    def __init__(self, items) -> None:
        super().__init__(items)
        self.taken = [0.0] * len(items)

    def __getitem__(self, index):
        now = time.perf_counter()
        if isinstance(index, slice):
            for i in range(*index.indices(len(self))):
                self.taken[i] = now
        else:
            self.taken[index] = now
        return super().__getitem__(index)

    def __iter__(self):
        for i in range(len(self)):
            self.taken[i] = time.perf_counter()
            yield list.__getitem__(self, i)


def idle_pass(fleet: FleetEngine, customers: list) -> tuple[list, float]:
    """One pass with the tracer idle: (results, seconds)."""
    start = time.perf_counter()
    results = list(FleetEngine(engine=fleet.engine, backend="serial").recommend_fleet(list(customers)))
    return results, time.perf_counter() - start


def run(seed: int, seconds: float, tracer=None, setup_repeats: int = 3) -> Outcome:
    (fleet, first_estate), setup_s = timed_setups(
        lambda: (fitted_fleet(seed), estate(seed, 0, ESTATE_SIZE)), setup_repeats
    )
    out = Outcome()
    passes: list[tuple[float, list[float]]] = []  # (seconds per customer, latencies)
    checked: list[tuple] = []
    hits = misses = 0
    traced_differs = 0
    timed = 0.0
    index = 0
    while timed < seconds or index == 0:
        customers = HandoverList(first_estate if index == 0 else estate(seed, index, ESTATE_SIZE))
        # On a traced run the idle pass goes first on even passes and
        # second on odd ones, so neither side always runs on warmer caches.
        if tracer is not None:
            n_spans, n_counted = len(tracer.spans), tracer.n_counted
            if index % 2 == 0:
                idle, idle_s = idle_pass(fleet, customers)
        runner = FleetEngine(engine=fleet.engine, backend="serial")
        results, latencies = [], []
        with recording(tracer):
            start = time.perf_counter()
            for result in runner.recommend_fleet(customers):
                latencies.append(time.perf_counter() - customers.taken[len(results)])
                results.append(result)
            elapsed = time.perf_counter() - start
        timed += elapsed
        if tracer is not None:
            if index % 2 == 1:
                idle, idle_s = idle_pass(fleet, customers)
            timed += idle_s
            out.pairs.append(
                (idle_s, elapsed, len(tracer.spans) - n_spans, tracer.n_counted - n_counted)
            )
            differs = sum(
                recommendation_line(a) != recommendation_line(b) for a, b in zip(idle, results)
            )
            out.attempted += len(idle)
            out.failed += differs
            traced_differs += differs
        passes.append((elapsed / len(results), latencies))
        stats = runner.cache_stats()
        hits, misses = hits + stats.hits, misses + stats.misses
        out.attempted += len(results)
        out.failed += sum(1 for result in results if result.recommendation is None)
        pick = rng_for(seed, "check", index).choice(len(results), CHECKS_PER_PASS, replace=False)
        checked.extend((customers[int(i)], results[int(i)]) for i in pick)
        if index == 0:
            out.digests["inputs"] = digest(customer_bytes(c) for c in first_estate)
            out.digests["outputs"] = digest(recommendation_line(r) for r in results)
        index += 1

    mismatches = 0
    for customer, result in checked:
        reference = fleet.engine.recommend(customer.trace, customer.deployment)
        served = result.recommendation
        if served is None or (served.sku.name, served.expected_throttling) != (
            reference.sku.name,
            reference.expected_throttling,
        ):
            mismatches += 1
    out.failed += mismatches
    out.checks["matches_single_customer_engine"] = mismatches == 0
    if tracer is not None:
        out.checks["traced_matches_untraced"] = traced_differs == 0

    slower = slowest(passes, SLOWEST_SHARE, MIN_LATENCIES)
    rates = [1.0 / per_customer for per_customer, _ in slower]
    latencies = [latency for _, pass_latencies in slower for latency in pass_latencies]
    throughput = median(rates)
    out.metrics = {
        "setup_s": Metric(setup_s, "s", setup_repeats),
        "peak_rss_mb": Metric(peak_rss_mb(), "MB", 1),
        "throughput_per_s": Metric(throughput, "1/s", len(rates)),
        "latency_p50_ms": Metric(percentile(latencies, 50) * 1e3, "ms", len(latencies)),
        "latency_p99_ms": Metric(percentile(latencies, 99) * 1e3, "ms", len(latencies)),
    }
    out.detail = {
        "assess.cust_per_s": Metric(throughput, "1/s", len(rates)),
        "assess.cust_per_s_all_passes": Metric(median([1.0 / p for p, _ in passes]), "1/s", len(passes)),
        "assess.estate_size": Metric(ESTATE_SIZE, "count", len(passes)),
        "assess.checked": Metric(len(checked), "count", len(checked)),
    }
    out.layer["fleet.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out.cost = 1.0 / throughput
    return out

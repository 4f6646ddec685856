"""Seeded input generators for the benchmark workloads.

Every input a workload hands the program is made here from the run's
``--seed`` (and a purpose tag, so the estate, the feed and the traffic
draw from independent streams).  The same seed gives the same inputs;
:func:`digest` fingerprints them so two commits can be shown to have
run the same load.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass

import numpy as np

from repro import DopplerEngine, FleetEngine, PerfDimension, SkuCatalog
from repro.catalog import DeploymentType
from repro.fleet import FleetCustomer, FleetLiveUpdate, FleetRecommendation, FleetSample
from repro.simulation import FleetConfig, simulate_fleet
from repro.workloads import (
    BurstyPattern,
    DiurnalPattern,
    PlateauPattern,
    SpikyPattern,
    WorkloadSpec,
    generate_trace,
)

#: Training set for every workload's fitted engine: simulated migrated
#: SQL DB customers with expert-chosen SKUs (paper Section 5 population).
TRAIN_CUSTOMERS = 80
TRACE_DAYS = 7.0
TRACE_INTERVAL_MINUTES = 30.0

#: Shape of the live feeds' population (README.md, "Traffic mix").  Only
#: STEP_FACTOR has a basis in the repository: ``simulate_sku_changes``
#: draws the demand change of the paper's SKU changers from 2.2-4.0x.
#: The shares and the skew are assumptions; ``sensitivity.py`` measures
#: what halving and doubling each does to the end-to-end metrics.
STEP_SHARE = 0.2
STEP_FACTOR = 2.5
STEP_AFTER = 30
NOISY_SHARE = 0.3
FEED_ZIPF_S = 1.0


def rng_for(seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """An independent generator for one purpose of one seeded run."""
    return np.random.default_rng([seed, zlib.crc32(purpose.encode("ascii")), index])


def fitted_fleet(seed: int) -> FleetEngine:
    """A serial fleet engine fitted on a simulated migrated fleet."""
    catalog = SkuCatalog.default()
    config = FleetConfig.paper_db(
        TRAIN_CUSTOMERS, duration_days=TRACE_DAYS, interval_minutes=TRACE_INTERVAL_MINUTES
    )
    train = simulate_fleet(config, catalog, rng=rng_for(seed, "train"))
    fleet = FleetEngine(engine=DopplerEngine(catalog=catalog), backend="serial")
    fleet.fit_fleet([customer.record for customer in train])
    return fleet


def estate(seed: int, index: int, n: int, days: float = TRACE_DAYS,
           interval_minutes: float = TRACE_INTERVAL_MINUTES, prefix: str = "estate") -> list[FleetCustomer]:
    """``n`` SQL DB customers in the usual fleet shapes (spiky, diurnal, plateau, bursty CPU).

    Peak CPU and storage footprint are stratified over the estate (one
    draw per equal-width slice, in seeded order), so every estate is
    equally heavy and seeds differ in detail, not in load.
    """
    rng = rng_for(seed, prefix, index)
    peak_slice = (rng.permutation(n) + rng.random(n)) / n
    storage_slice = (rng.permutation(n) + rng.random(n)) / n
    customers = []
    for k in range(n):
        cpu_peak = float(np.exp(np.log(1.5) + peak_slice[k] * np.log(32.0 / 1.5)))
        style = k % 4
        if style == 0:
            cpu = SpikyPattern(base=cpu_peak * 0.25, peak=cpu_peak, spike_probability=0.008)
        elif style == 1:
            cpu = DiurnalPattern(trough=cpu_peak * 0.3, peak=cpu_peak)
        elif style == 2:
            cpu = PlateauPattern(level=cpu_peak)
        else:
            cpu = BurstyPattern(low=cpu_peak * 0.4, high=cpu_peak)
        spec = WorkloadSpec(
            patterns={
                PerfDimension.CPU: cpu,
                PerfDimension.MEMORY: PlateauPattern(level=cpu_peak * float(rng.uniform(2.5, 5.5))),
                PerfDimension.IOPS: SpikyPattern(
                    base=cpu_peak * 60.0,
                    peak=cpu_peak * float(rng.uniform(200.0, 700.0)),
                    spike_probability=0.01,
                ),
                PerfDimension.LOG_RATE: DiurnalPattern(trough=cpu_peak * 0.4, peak=cpu_peak * 2.0),
            },
            storage_gb=float(30.0 + 870.0 * storage_slice[k]),
            base_latency_ms=float(rng.uniform(4.0, 8.0)),
            entity_id=f"{prefix}-{index:03d}-{k:05d}",
        )
        trace = generate_trace(spec, duration_days=days, interval_minutes=interval_minutes, rng=rng)
        customers.append(
            FleetCustomer(customer_id=spec.entity_id, trace=trace, deployment=DeploymentType.SQL_DB)
        )
    return customers


@dataclass(frozen=True)
class Population:
    """Per-customer telemetry levels for the live feeds.

    Most customers are steady (little sample noise, so their throttling
    estimates settle and drift is rare); the rest are noisy.  A share
    step-change their load after ``step_after`` samples, so drift
    refreshes happen beside the warm-up (cadence) refreshes.

    The population is laid out, not drawn: customer ``i`` gets the same
    profile (level, noise class, step, storage) on every seed, each
    attribute read from its own low-discrepancy sequence over ``i``, so
    any run of consecutive customers, and so the hot head of a Zipf
    feed, holds every level and the stated shares.  Seeds differ in the
    arrival order, the draws and the sample noise, not in how heavy the
    population or its hot customers are.
    """

    scale: np.ndarray
    noise: np.ndarray
    steps: np.ndarray
    storage: np.ndarray
    step_after: int
    step_factor: float

    @classmethod
    def make(cls, n: int) -> "Population":
        """Customers ``0 .. n - 1``, shaped by this module's population constants."""
        rank = np.arange(n) + 0.5

        def spread(step: float) -> np.ndarray:
            return (rank * step) % 1.0

        return cls(
            scale=np.exp(np.log(0.5) + spread(0.5698402909980532) * np.log(8.0)),
            noise=np.where(spread(0.6180339887498949) < NOISY_SHARE, 0.15, 0.02),
            steps=spread(0.4142135623730951) < STEP_SHARE,
            storage=50.0 + 350.0 * spread(0.7548776662466927),
            step_after=STEP_AFTER,
            step_factor=STEP_FACTOR,
        )

    def sample(self, rng: np.random.Generator, customer: int, n_seen: int, customer_id: str) -> FleetSample:
        """The ``n_seen``-th (1-based) sample of one customer."""
        level = self.scale[customer]
        if self.steps[customer] and n_seen > self.step_after:
            level *= self.step_factor
        v = np.abs(rng.normal(1.0, self.noise[customer], 5))
        return FleetSample(
            customer_id=customer_id,
            values={
                PerfDimension.CPU: float(level * 2.0 * v[0]),
                PerfDimension.MEMORY: float(level * 8.0 * v[1]),
                PerfDimension.IOPS: float(level * 350.0 * v[2]),
                PerfDimension.IO_LATENCY: float(6.0 * v[3] + 0.3),
                PerfDimension.LOG_RATE: float(level * 2.5 * v[4]),
                PerfDimension.STORAGE: float(self.storage[customer]),
            },
        )


def skewed_feed(seed: int, n_customers: int, n_samples: int) -> list[FleetSample]:
    """An interleaved fleet feed with hot and cold customers.

    Every customer arrives once, in a seeded order, before activity
    turns Zipf-skewed: customer ``i`` gets the share
    ``1/(i + 1)**FEED_ZIPF_S`` of the remaining samples (largest
    remainders rounded up), sent at a steady rate of its own from a
    seeded phase, as periodic telemetry is.  The seed thus sets the
    arrival order, the phases and the sample noise, not how many samples
    each customer sends: with independent Zipf draws instead, the
    samples past a customer's step and the readmissions of the cold
    tail varied enough between seeds to move watch throughput by 20%.
    Each feed holds exactly ``n_customers`` distinct customers.
    """
    rng = rng_for(seed, "feed")
    population = Population.make(n_customers)
    n_active = max(n_samples - n_customers, 0)
    weights = 1.0 / (np.arange(1, n_customers + 1) ** FEED_ZIPF_S)
    quota = weights / weights.sum() * n_active
    counts = np.floor(quota).astype(np.int64)
    counts[np.argsort(counts - quota, kind="stable")[: n_active - int(counts.sum())]] += 1
    phases = rng.random(n_customers)
    customers = np.repeat(np.arange(n_customers), counts)
    times = (np.concatenate([np.arange(n) for n in counts]) + phases[customers]) / counts[customers]
    picks = customers[np.lexsort((rng.random(len(times)), times))]
    order = np.concatenate([rng.permutation(n_customers), picks])[:n_samples]
    seen = np.zeros(n_customers, dtype=np.int64)
    feed = []
    for customer in order:
        seen[customer] += 1
        feed.append(population.sample(rng, customer, int(seen[customer]), f"watch-{customer:05d}"))
    return feed


def digest(parts) -> str:
    """Short sha256 over a sequence of ``bytes`` or ``str`` parts."""
    h = hashlib.sha256()
    for part in parts:
        data = part if isinstance(part, bytes) else str(part).encode("utf-8")
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()[:16]


def customer_bytes(customer: FleetCustomer) -> bytes:
    trace = customer.trace
    return customer.customer_id.encode() + b"".join(
        trace[dim].values.tobytes() for dim in trace.dimensions
    )


def sample_line(sample: FleetSample) -> str:
    values = ",".join(f"{dim.name}={value!r}" for dim, value in sample.values.items())
    return f"{sample.customer_id}|{values}"


def recommendation_line(result: FleetRecommendation) -> str:
    """Canonical text of one fleet recommendation (errors included)."""
    if result.recommendation is None:
        return f"{result.customer_id}|ERROR|{result.error}"
    rec = result.recommendation
    return (
        f"{result.customer_id}|{rec.sku.name}|{rec.strategy}|{rec.expected_throttling!r}"
        f"|{rec.target_probability!r}|{result.over_provisioned}"
    )


def update_line(update: FleetLiveUpdate) -> str:
    """Canonical text of one live update (errors included)."""
    if update.update is None:
        return f"{update.customer_id}|ERROR|{update.error}|{update.deferred}"
    live = update.update
    rec = live.recommendation
    return (
        f"{update.customer_id}|{live.n_seen}|{live.n_window}|{live.refreshed}"
        f"|{rec.sku.name if rec else None}|{rec.expected_throttling if rec else None!r}"
    )

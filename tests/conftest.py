"""Shared fixtures for the Doppler reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog import (
    DeploymentType,
    HardwareGeneration,
    ResourceLimits,
    ServiceTier,
    SkuCatalog,
    SkuSpec,
)
from repro.core import DopplerEngine
from repro.core.matching import GroupScoreModel
from repro.fleet import FleetRecommendation
from repro.telemetry import PerfDimension, PerformanceTrace, TimeSeries
from repro.workloads import (
    DiurnalPattern,
    PlateauPattern,
    SpikyPattern,
    WorkloadSpec,
    generate_trace,
)


def make_sku(
    vcores: float,
    tier: ServiceTier = ServiceTier.GENERAL_PURPOSE,
    deployment: DeploymentType = DeploymentType.SQL_DB,
    memory_per_vcore: float = 5.2,
    iops_per_vcore: float = 320.0,
    log_per_vcore: float = 3.75,
    storage_gb: float = 1024.0,
    latency_ms: float | None = None,
    price_per_vcore_hour: float = 0.2525,
    name: str = "",
) -> SkuSpec:
    """Small hand-built SKU for focused unit tests."""
    if latency_ms is None:
        latency_ms = 5.0 if tier is ServiceTier.GENERAL_PURPOSE else 1.0
    return SkuSpec(
        deployment=deployment,
        tier=tier,
        hardware=HardwareGeneration.GEN5,
        limits=ResourceLimits(
            vcores=vcores,
            max_memory_gb=vcores * memory_per_vcore,
            max_data_iops=vcores * iops_per_vcore,
            max_log_rate_mbps=vcores * log_per_vcore,
            max_data_size_gb=storage_gb,
            min_io_latency_ms=latency_ms,
        ),
        price_per_hour=vcores * price_per_vcore_hour,
        name=name,
    )


@pytest.fixture(scope="session")
def default_catalog() -> SkuCatalog:
    """The full generated catalog (expensive; shared per session)."""
    return SkuCatalog.default()


@pytest.fixture()
def small_catalog() -> SkuCatalog:
    """A compact GP/BC ladder for fast engine tests."""
    skus = []
    for vcores in (2, 4, 8, 16, 32):
        skus.append(make_sku(vcores, ServiceTier.GENERAL_PURPOSE))
        skus.append(
            make_sku(
                vcores,
                ServiceTier.BUSINESS_CRITICAL,
                iops_per_vcore=4000.0,
                log_per_vcore=12.0,
                price_per_vcore_hour=0.68,
            )
        )
    return SkuCatalog.from_skus(skus)


def make_trace(
    cpu: np.ndarray,
    interval_minutes: float = 10.0,
    entity_id: str = "test",
    **extra_dims: np.ndarray,
) -> PerformanceTrace:
    """Trace with a CPU series plus optional keyword dimensions.

    Extra dimensions are passed by PerfDimension value name, e.g.
    ``memory_gb=...``, ``data_iops=...``.
    """
    series = {
        PerfDimension.CPU: TimeSeries(values=cpu, interval_minutes=interval_minutes)
    }
    by_value = {dim.value: dim for dim in PerfDimension}
    for key, values in extra_dims.items():
        dim = by_value[key]
        series[dim] = TimeSeries(values=values, interval_minutes=interval_minutes)
    return PerformanceTrace(series=series, entity_id=entity_id)


def full_trace(
    n: int = 288,
    cpu_level: float = 1.0,
    interval_minutes: float = 10.0,
    entity_id: str = "full",
    rng: int = 0,
) -> PerformanceTrace:
    """A six-dimension steady trace sized for the small catalog."""
    generator = np.random.default_rng(rng)

    def noise(scale: float) -> np.ndarray:
        return np.abs(generator.normal(1.0, 0.03, size=n)) * scale

    return PerformanceTrace(
        series={
            PerfDimension.CPU: TimeSeries(noise(cpu_level), interval_minutes),
            PerfDimension.MEMORY: TimeSeries(noise(cpu_level * 4.0), interval_minutes),
            PerfDimension.IOPS: TimeSeries(noise(cpu_level * 150.0), interval_minutes),
            PerfDimension.IO_LATENCY: TimeSeries(noise(6.0), interval_minutes),
            PerfDimension.LOG_RATE: TimeSeries(noise(cpu_level * 1.0), interval_minutes),
            PerfDimension.STORAGE: TimeSeries(noise(100.0), interval_minutes),
        },
        entity_id=entity_id,
    )


def doppler_recommend_loop(engine: DopplerEngine, customers) -> list[FleetRecommendation]:
    """The single-customer reference a fleet recommendation pass must equal.

    One :meth:`DopplerEngine.recommend` call per customer, with the
    fleet's containment contract: a failure becomes an error result
    carrying ``TypeName: message`` instead of an exception.
    """
    results = []
    for customer in customers:
        sizes = list(customer.file_sizes_gib) if customer.file_sizes_gib else None
        try:
            recommendation = engine.recommend(
                customer.trace, customer.deployment, file_sizes_gib=sizes
            )
        except Exception as exc:  # noqa: BLE001 - contained like the fleet does
            results.append(
                FleetRecommendation(
                    customer_id=customer.customer_id,
                    recommendation=None,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        over = None
        if customer.current_sku_name is not None:
            over = DopplerEngine.is_over_provisioned_on(
                recommendation.curve, customer.current_sku_name
            )
        results.append(
            FleetRecommendation(
                customer_id=customer.customer_id,
                recommendation=recommendation,
                over_provisioned=over,
            )
        )
    return results


def watch_backend(name: str) -> dict:
    """``WatchConfig`` fields for one backend variant of a parametrized test.

    ``"process-pickled"`` is the process backend with the zero-copy
    plane off, so tick batches, replies and migration records cross the
    worker queues pickled; any other name is a backend as it stands.
    """
    if name == "process-pickled":
        return {"backend": "process", "zero_copy": False}
    return {"backend": name}


def doppler_fit_loop(
    engine: DopplerEngine, records, exclude_over_provisioned: bool = True
) -> int:
    """The single-customer reference a fleet training pass must equal.

    :meth:`DopplerEngine.training_observation` per record, grouped and
    installed exactly as :meth:`DopplerEngine.fit` does, except that a
    record whose curve cannot be built is skipped and counted (the
    fleet's one documented deviation).  Returns the skipped count.
    """
    observations: dict[DeploymentType, list] = {d: [] for d in DeploymentType}
    n_unbuildable = 0
    for record in records:
        try:
            observation = engine.training_observation(
                record, exclude_over_provisioned=exclude_over_provisioned
            )
        except ValueError:
            n_unbuildable += 1
            continue
        if observation is not None:
            observations[record.deployment].append(observation)
    for deployment, group_observations in observations.items():
        if group_observations:
            engine.install_group_model(deployment, GroupScoreModel.fit(group_observations))
    return n_unbuildable


@pytest.fixture()
def steady_trace() -> PerformanceTrace:
    return full_trace(entity_id="steady")


@pytest.fixture()
def spiky_db_trace() -> PerformanceTrace:
    """A 7-day DB-dimension trace with spiky CPU/IOPS demand."""
    spec = WorkloadSpec(
        patterns={
            PerfDimension.CPU: SpikyPattern(base=1.0, peak=6.0, spike_probability=0.008),
            PerfDimension.MEMORY: PlateauPattern(level=12.0),
            PerfDimension.IOPS: SpikyPattern(base=200.0, peak=1500.0, spike_probability=0.008),
            PerfDimension.LOG_RATE: DiurnalPattern(trough=1.0, peak=4.0),
        },
        storage_gb=200.0,
        base_latency_ms=6.0,
        entity_id="spiky-db",
    )
    return generate_trace(spec, duration_days=7, rng=7)

"""The modeler's capacity memo: one read-only matrix per key, per process.

Capacities are fixed by the catalog, so every curve build, live
estimator construction, readmission and resume of one engine shares a
handful of matrices keyed by (deployment, dimension tuple, GP IOPS
override).  These tests count builds through ``capacity_vector`` (the
per-SKU definition) and never time anything.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import FleetEngine
from repro.catalog import DeploymentType, ServiceTier, SkuCatalog
from repro.core import DopplerEngine, IncrementalThrottlingEstimator, throttling
from repro.core.ppm import gp_iops_overrides
from repro.core.throttling import EmpiricalThrottlingEstimator
from repro.fleet import CheckpointConfig, FleetSample, WatchConfig, catalog_signature
from repro.store import FleetStore
from repro.telemetry import DB_DIMENSIONS, MI_DIMENSIONS, PerfDimension
from repro.telemetry.counters import LATENCY_FLOOR

from .conftest import full_trace, make_sku
from .test_fleet_backends import live_samples

CPU, MEMORY, IOPS, LATENCY = (
    PerfDimension.CPU,
    PerfDimension.MEMORY,
    PerfDimension.IOPS,
    PerfDimension.IO_LATENCY,
)


def mixed_catalog() -> SkuCatalog:
    """GP/BC ladders for both deployments, plus one degenerate-latency SKU."""
    skus = []
    for deployment in DeploymentType:
        for vcores in (2, 4, 8, 16, 32):
            skus.append(make_sku(vcores, ServiceTier.GENERAL_PURPOSE, deployment))
            skus.append(
                make_sku(
                    vcores,
                    ServiceTier.BUSINESS_CRITICAL,
                    deployment,
                    iops_per_vcore=4000.0,
                    log_per_vcore=12.0,
                    price_per_vcore_hour=0.68,
                )
            )
    # A latency limit below the floor: its inverted capacity must floor.
    skus.append(
        make_sku(
            64,
            ServiceTier.BUSINESS_CRITICAL,
            DeploymentType.SQL_MI,
            latency_ms=1e-12,
            price_per_vcore_hour=0.9,
        )
    )
    return SkuCatalog.from_skus(skus)


def scalar_capacities(skus, dimensions, gp_iops=None) -> np.ndarray:
    """Per-SKU, per-dimension reference written out longhand."""
    fields = {
        PerfDimension.CPU: "vcores",
        PerfDimension.MEMORY: "max_memory_gb",
        PerfDimension.IOPS: "max_data_iops",
        PerfDimension.IO_LATENCY: "min_io_latency_ms",
        PerfDimension.LOG_RATE: "max_log_rate_mbps",
        PerfDimension.STORAGE: "max_data_size_gb",
    }
    rows = []
    for sku in skus:
        row = []
        for dim in dimensions:
            value = float(getattr(sku.limits, fields[dim]))
            if dim is IOPS and gp_iops is not None and sku.tier is ServiceTier.GENERAL_PURPOSE:
                value = float(gp_iops)
            if dim is LATENCY:
                value = 1.0 / max(value, LATENCY_FLOOR)
            row.append(value)
        rows.append(row)
    return np.array(rows)


@pytest.fixture
def count_builds(monkeypatch):
    """Count ``capacity_vector`` calls (one per SKU row built)."""
    calls = []
    original = throttling.capacity_vector

    def counting(limits, dimensions):
        calls.append(tuple(dimensions))
        return original(limits, dimensions)

    monkeypatch.setattr(throttling, "capacity_vector", counting)
    return calls


def mixed_feed(n_each: int, seed: int) -> list[FleetSample]:
    """Round-robin feed of three DB and three MI customers."""
    rng = np.random.default_rng(seed)
    customers = [
        (f"{deployment.short_name.lower()}-{index}", deployment, 1.0 + 0.4 * index)
        for deployment in DeploymentType
        for index in range(3)
    ]
    streams = {
        customer_id: live_samples(n_each, rng, scale=scale)
        for customer_id, _, scale in customers
    }
    return [
        FleetSample(customer_id, streams[customer_id][position], deployment)
        for position in range(n_each)
        for customer_id, deployment, _ in customers
    ]


class TestOneBuildPerKey:
    def test_serial_watch_with_readmission_and_resume_builds_each_matrix_once(
        self, count_builds
    ):
        engine = DopplerEngine(catalog=mixed_catalog())
        feed = mixed_feed(24, seed=5)
        store = FleetStore()
        config = WatchConfig(
            window=16,
            min_refresh_samples=8,
            tick_samples=6,
            checkpoint=CheckpointConfig(store=store, every_ticks=1, max_resident=2),
        )
        prefix = FleetEngine(engine=engine, backend="serial").watch_fleet(
            feed, config=config
        )
        consumed = [update for _, update in zip(range(20), prefix)]
        prefix.close()
        assert len(consumed) == 20
        resumed = list(
            FleetEngine(engine=engine, backend="serial").watch_fleet(
                feed, config=config, resume_from=store
            )
        )
        assert resumed
        events = store.event_counts()
        assert events.get("eviction", 0) > 0
        store.close()

        memo = {
            deployment: engine.ppm._deployment_state(deployment)._caps
            for deployment in DeploymentType
        }
        # MI refreshes rebased the estimators onto the file layout's
        # IOPS, so the override path was exercised too.
        assert any(gp_iops is not None for _, gp_iops in memo[DeploymentType.SQL_MI])
        expected = sum(
            len(engine.ppm.candidates(deployment)) * len(keys)
            for deployment, keys in memo.items()
        )
        assert len(count_builds) == expected

    def test_repeated_lookups_build_nothing(self, count_builds):
        engine = DopplerEngine(catalog=mixed_catalog())
        ppm = engine.ppm
        first = ppm.capacity_matrix_for(DeploymentType.SQL_DB, DB_DIMENSIONS)
        n_built = len(count_builds)
        for _ in range(3):
            assert ppm.capacity_matrix_for(DeploymentType.SQL_DB, DB_DIMENSIONS) is first
            ppm.build_curve(full_trace(), DeploymentType.SQL_DB)
        assert len(count_builds) == n_built


class TestReadOnly:
    def test_memoized_matrices_raise_on_write(self):
        ppm = DopplerEngine(catalog=mixed_catalog()).ppm
        candidates = ppm.candidates(DeploymentType.SQL_MI)
        overrides = {
            sku.name: 2300.0
            for sku in candidates
            if sku.tier is ServiceTier.GENERAL_PURPOSE
        }
        matrices = [
            ppm.capacity_matrix_for(DeploymentType.SQL_DB, DB_DIMENSIONS),
            ppm.capacity_matrix_for(DeploymentType.SQL_MI, MI_DIMENSIONS),
            ppm.capacity_matrix_for(DeploymentType.SQL_MI, MI_DIMENSIONS, overrides),
        ]
        for caps in matrices:
            with pytest.raises(ValueError, match="read-only"):
                caps[0, 0] = 1.0

    def test_overrides_must_be_one_limit_over_the_gp_candidates(self):
        ppm = DopplerEngine(catalog=mixed_catalog()).ppm
        gp = [
            sku.name
            for sku in ppm.candidates(DeploymentType.SQL_MI)
            if sku.tier is ServiceTier.GENERAL_PURPOSE
        ]
        for bad in ({gp[0]: 100.0}, {name: float(i + 1) for i, name in enumerate(gp)}):
            with pytest.raises(ValueError, match="every GP candidate"):
                ppm.capacity_matrix_for(DeploymentType.SQL_MI, MI_DIMENSIONS, bad)


class TestMemoEqualsScalarReference:
    @pytest.mark.parametrize("deployment", list(DeploymentType))
    @pytest.mark.parametrize(
        "dimensions",
        [DB_DIMENSIONS, MI_DIMENSIONS, (LATENCY,), (CPU, IOPS), (MEMORY, LATENCY)],
    )
    @pytest.mark.parametrize("gp_iops", [None, 2300.0])
    def test_matrix_matches_per_sku_reference(self, deployment, dimensions, gp_iops):
        ppm = DopplerEngine(catalog=mixed_catalog()).ppm
        candidates = ppm.candidates(deployment)
        overrides = (
            None
            if gp_iops is None
            else {
                sku.name: gp_iops
                for sku in candidates
                if sku.tier is ServiceTier.GENERAL_PURPOSE
            }
        )
        caps = ppm.capacity_matrix_for(deployment, dimensions, overrides)
        reference = scalar_capacities(candidates, dimensions, gp_iops)
        assert caps.tobytes() == reference.tobytes()
        if LATENCY in dimensions and deployment is DeploymentType.SQL_MI:
            assert caps[:, dimensions.index(LATENCY)].max() == 1.0 / LATENCY_FLOOR

    def test_candidates_are_the_catalog_order_of_the_deployment(self):
        catalog = mixed_catalog()
        ppm = DopplerEngine(catalog=catalog).ppm
        for deployment in DeploymentType:
            assert ppm.candidates(deployment) == catalog.for_deployment(deployment).skus

    @pytest.mark.parametrize("cpu_level", [0.5, 3.0, 12.0])
    def test_refresh_curve_matches_catalog_filter_reference(self, cpu_level):
        """build_curve equals the candidate-filtering construction it replaced."""
        catalog = mixed_catalog()
        ppm = DopplerEngine(catalog=catalog).ppm
        estimator = EmpiricalThrottlingEstimator()
        trace = full_trace(cpu_level=cpu_level, entity_id=f"c{cpu_level}")
        footprint = trace[PerfDimension.STORAGE].max()

        db = catalog.for_deployment(DeploymentType.SQL_DB).fitting_storage(footprint)
        expected = estimator.probabilities(trace, list(db), DB_DIMENSIONS)
        curve = ppm.build_curve(trace, DeploymentType.SQL_DB)
        assert [p.sku for p in curve.points] == list(db)
        assert [p.throttling_probability for p in curve.points] == np.clip(
            expected, 0.0, 1.0
        ).tolist()

        plan = ppm.plan_mi_storage(trace)
        mi = catalog.for_deployment(DeploymentType.SQL_MI).fitting_storage(footprint)
        if not plan.gp_allowed:
            mi = mi.for_tier(ServiceTier.BUSINESS_CRITICAL)
        expected = estimator.probabilities(
            trace, list(mi), MI_DIMENSIONS, iops_overrides=gp_iops_overrides(mi, plan)
        )
        curve = ppm.build_curve(trace, DeploymentType.SQL_MI)
        assert [p.sku for p in curve.points] == list(mi)
        assert [p.throttling_probability for p in curve.points] == np.clip(
            expected, 0.0, 1.0
        ).tolist()

    def test_bound_estimator_matches_a_standalone_one(self):
        """Modeler-bound and catalog-built estimators count identically."""
        ppm = DopplerEngine(catalog=mixed_catalog()).ppm
        candidates = ppm.candidates(DeploymentType.SQL_MI)
        trace = full_trace(n=40, cpu_level=2.0)
        bound = IncrementalThrottlingEstimator(
            candidates,
            MI_DIMENSIONS,
            window=16,
            capacities=lambda overrides: ppm.capacity_matrix_for(
                DeploymentType.SQL_MI, MI_DIMENSIONS, overrides
            ),
        )
        standalone = IncrementalThrottlingEstimator(candidates, MI_DIMENSIONS, window=16)
        overrides = gp_iops_overrides(candidates, ppm.plan_mi_storage(trace))
        for estimator in (bound, standalone):
            estimator.ingest_trace(trace)
            estimator.rebase_capacity(overrides, trace)
        assert bound.probabilities().tolist() == standalone.probabilities().tolist()
        restored = IncrementalThrottlingEstimator(
            candidates,
            MI_DIMENSIONS,
            window=16,
            capacities=lambda overrides: ppm.capacity_matrix_for(
                DeploymentType.SQL_MI, MI_DIMENSIONS, overrides
            ),
        )
        restored.load_state(standalone.state_dict())
        assert restored.probabilities().tolist() == standalone.probabilities().tolist()


class TestCatalogSignature:
    def test_equal_names_with_different_limits_or_prices_differ(self):
        base = SkuCatalog.from_skus([make_sku(2), make_sku(4)])
        other_limits = SkuCatalog.from_skus(
            [make_sku(2, iops_per_vcore=321.0, name=base[0].name), make_sku(4)]
        )
        other_price = SkuCatalog.from_skus(
            [make_sku(2, price_per_vcore_hour=0.26, name=base[0].name), make_sku(4)]
        )
        assert other_limits.names() == base.names() == other_price.names()
        signatures = {catalog_signature(c) for c in (base, other_limits, other_price)}
        assert len(signatures) == 3

    def test_equal_content_signs_equal_and_is_computed_once(self):
        first = SkuCatalog.from_skus([make_sku(2), make_sku(4)])
        second = SkuCatalog.from_skus([make_sku(4), make_sku(2)])
        assert catalog_signature(first) == catalog_signature(second)
        assert "signature" in vars(first)  # memoized on the instance
        assert catalog_signature(first) is catalog_signature(first)

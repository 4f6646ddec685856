"""Columnar fleet-assessment kernel: equality with the single-customer engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import DeploymentType, ServiceTier, SkuCatalog
from repro.core import DopplerEngine, EmpiricalThrottlingEstimator
from repro.core.throttling import (
    batch_violation_counts,
    capacity_matrix,
    demand_matrix,
    violation_counts,
)
from repro.fleet import FleetCustomer, FleetEngine
from repro.simulation import FleetConfig, simulate_fleet
from repro.telemetry import PerfDimension
from repro.telemetry.counters import DB_DIMENSIONS, MI_DIMENSIONS

from .conftest import (
    doppler_fit_loop,
    doppler_recommend_loop,
    full_trace,
    make_sku,
    make_trace,
)

# ----------------------------------------------------------------------
# Hypothesis strategies: random traces / catalogs / overrides
# ----------------------------------------------------------------------
DIMS3 = (PerfDimension.CPU, PerfDimension.MEMORY, PerfDimension.IOPS)

positive = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False)


@st.composite
def random_trace(draw, index: int = 0):
    n = draw(st.integers(min_value=2, max_value=60))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return make_trace(
        np.abs(rng.normal(4.0, 3.0, n)) + 1e-3,
        memory_gb=np.abs(rng.normal(20.0, 10.0, n)) + 1e-3,
        data_iops=np.abs(rng.normal(800.0, 600.0, n)) + 1e-3,
        entity_id=f"prop-{index}",
    )


@st.composite
def random_skus(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    skus = []
    for index in range(n):
        vcores = draw(st.floats(min_value=0.5, max_value=64.0, allow_nan=False))
        skus.append(
            make_sku(
                vcores,
                iops_per_vcore=draw(st.floats(min_value=10.0, max_value=500.0)),
                name=f"prop-sku-{index}",
            )
        )
    return skus


class TestColumnarKernelProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        traces=st.lists(random_trace(), min_size=1, max_size=5),
        skus=random_skus(),
        override_scale=st.one_of(
            st.none(), st.floats(min_value=0.1, max_value=4.0, allow_nan=False)
        ),
    )
    def test_batch_matches_per_trace_estimates(self, traces, skus, override_scale):
        """probabilities_batch == stacked per-trace probabilities, exactly."""
        estimator = EmpiricalThrottlingEstimator()
        overrides = None
        if override_scale is not None:
            overrides = {
                sku.name: sku.limits.max_data_iops * override_scale
                for sku in skus[::2]
            }
        batch = estimator.probabilities_batch(traces, skus, DIMS3, overrides)
        serial = np.stack(
            [estimator.probabilities(t, skus, DIMS3, overrides) for t in traces]
        )
        assert batch.shape == (len(traces), len(skus))
        np.testing.assert_array_equal(batch, serial)

    @settings(max_examples=40, deadline=None)
    @given(traces=st.lists(random_trace(), min_size=1, max_size=4), skus=random_skus())
    def test_memory_cap_never_changes_counts(self, traces, skus):
        """Chunked kernels agree bit-for-bit at any memory cap."""
        caps = capacity_matrix(skus, DIMS3)
        blocks = [demand_matrix(t, DIMS3) for t in traces]
        generous = batch_violation_counts(blocks, caps, memory_cap_mb=64.0)
        # ~1 KB cap: every trace splits into many chunks/groups.
        tiny = batch_violation_counts(blocks, caps, memory_cap_mb=0.001)
        np.testing.assert_array_equal(generous, tiny)
        for block, expected in zip(blocks, generous):
            np.testing.assert_array_equal(
                violation_counts(block, caps, memory_cap_mb=0.001), expected
            )

    def test_single_customer_estimator_respects_memory_cap(self):
        """The satellite memory fix: capped estimator equals the default."""
        trace = full_trace(n=512, cpu_level=3.0)
        skus = [make_sku(v) for v in (1, 2, 4, 8, 16)]
        default = EmpiricalThrottlingEstimator().probabilities(
            trace, skus, DB_DIMENSIONS
        )
        capped = EmpiricalThrottlingEstimator(memory_cap_mb=0.001).probabilities(
            trace, skus, DB_DIMENSIONS
        )
        np.testing.assert_array_equal(default, capped)

    def test_memory_cap_must_be_positive(self):
        with pytest.raises(ValueError, match="memory cap"):
            violation_counts(np.ones((3, 2)), np.ones((2, 2)), memory_cap_mb=0.0)


class TestDemandMatrixCache:
    def test_demand_matrix_memoized_per_dimension_tuple(self):
        trace = full_trace(n=32)
        first = trace.demand_matrix(DB_DIMENSIONS)
        assert trace.demand_matrix(DB_DIMENSIONS) is first
        assert trace.demand_matrix(MI_DIMENSIONS) is not first

    def test_demand_matrix_is_read_only_and_inverted(self):
        trace = full_trace(n=16)
        matrix = trace.demand_matrix(DB_DIMENSIONS)
        assert not matrix.flags.writeable
        latency_col = DB_DIMENSIONS.index(PerfDimension.IO_LATENCY)
        expected = 1.0 / np.maximum(
            trace[PerfDimension.IO_LATENCY].values, 1e-9
        )
        np.testing.assert_array_equal(matrix[:, latency_col], expected)

    def test_module_level_demand_matrix_delegates_to_cache(self):
        trace = full_trace(n=16)
        assert demand_matrix(trace, DB_DIMENSIONS) is trace.demand_matrix(DB_DIMENSIONS)


@pytest.fixture(scope="module")
def module_catalog() -> SkuCatalog:
    return SkuCatalog.default()


@pytest.fixture(scope="module")
def db_traces():
    rng = np.random.default_rng(42)
    traces = []
    for index in range(12):
        n = 48
        traces.append(
            make_trace(
                np.abs(rng.normal(3.0, 2.0, n)) + 0.1,
                memory_gb=np.abs(rng.normal(12.0, 6.0, n)) + 0.1,
                data_iops=np.abs(rng.normal(700.0, 400.0, n)) + 1.0,
                io_latency_ms=np.abs(rng.normal(6.0, 2.0, n)) + 0.2,
                log_rate_mbps=np.abs(rng.normal(4.0, 2.0, n)) + 0.1,
                data_size_gb=np.full(n, float(rng.uniform(20.0, 800.0))),
                entity_id=f"db-{index}",
            )
        )
    return traces


class TestBuildCurvesBatch:
    def test_db_curves_match_serial_construction(self, module_catalog, db_traces):
        ppm = DopplerEngine(catalog=module_catalog).ppm
        batch = ppm.build_curves_batch(db_traces, DeploymentType.SQL_DB)
        for trace, outcome in zip(db_traces, batch):
            serial = ppm.build_curve(trace, DeploymentType.SQL_DB)
            assert not isinstance(outcome, Exception)
            assert outcome.entity_id == serial.entity_id
            assert len(outcome.points) == len(serial.points)
            for got, expected in zip(outcome.points, serial.points):
                assert got == expected  # exact float + SKU equality

    def test_mi_curves_match_serial_including_overrides(self, module_catalog, db_traces):
        ppm = DopplerEngine(catalog=module_catalog).ppm
        sizes = [None if index % 2 else (40.0, 25.0) for index in range(len(db_traces))]
        batch = ppm.build_curves_batch(db_traces, DeploymentType.SQL_MI, sizes)
        for trace, trace_sizes, outcome in zip(db_traces, sizes, batch):
            serial = ppm.build_curve(
                trace,
                DeploymentType.SQL_MI,
                file_sizes_gib=list(trace_sizes) if trace_sizes else None,
            )
            assert not isinstance(outcome, Exception)
            assert tuple(outcome.points) == tuple(serial.points)

    def test_storage_misfit_reproduces_serial_error(self, module_catalog):
        ppm = DopplerEngine(catalog=module_catalog).ppm
        monster = make_trace(
            np.full(8, 2.0), data_size_gb=np.full(8, 1e9), entity_id="monster"
        )
        fine = full_trace(n=8)
        with pytest.raises(ValueError) as excinfo:
            ppm.build_curve(monster, DeploymentType.SQL_DB)
        outcomes = ppm.build_curves_batch([monster, fine], DeploymentType.SQL_DB)
        assert isinstance(outcomes[0], ValueError)
        assert str(outcomes[0]) == str(excinfo.value)
        assert not isinstance(outcomes[1], Exception)

    def test_non_empirical_estimator_falls_back(self, module_catalog, db_traces):
        from repro.core import KdeThrottlingEstimator

        engine = DopplerEngine(
            catalog=module_catalog, estimator=KdeThrottlingEstimator()
        )
        trace = db_traces[0]
        outcome = engine.ppm.build_curves_batch([trace], DeploymentType.SQL_DB)[0]
        serial = engine.ppm.build_curve(trace, DeploymentType.SQL_DB)
        assert tuple(outcome.points) == tuple(serial.points)


def result_projection(result):
    recommendation = result.recommendation
    return (
        result.customer_id,
        recommendation.sku.name if recommendation else None,
        recommendation.strategy if recommendation else None,
        recommendation.expected_throttling if recommendation else None,
        recommendation.target_probability if recommendation else None,
        result.over_provisioned,
        result.error,
    )


class TestFleetColumnarPath:
    @pytest.fixture(scope="class")
    def records(self, module_catalog):
        config = FleetConfig.paper_db(16, duration_days=3.0, interval_minutes=60.0)
        return [c.record for c in simulate_fleet(config, module_catalog, rng=3)]

    @pytest.fixture(scope="class")
    def module_catalog(self):
        return SkuCatalog.default()

    def test_fit_and_recommend_identical_to_per_customer(self, module_catalog, records):
        customers = [
            FleetCustomer.from_record(record, customer_id=f"c{index:03d}")
            for index, record in enumerate(records)
        ]
        fleet = FleetEngine(engine=DopplerEngine(catalog=module_catalog), backend="serial")
        report = fleet.fit_fleet(records)
        results = [result_projection(r) for r in fleet.recommend_fleet(customers)]
        reference = DopplerEngine(catalog=module_catalog)
        assert report.n_unbuildable == doppler_fit_loop(reference, records)
        for deployment in DeploymentType:
            assert fleet.engine.group_model(deployment) == reference.group_model(deployment)
        expected = [
            result_projection(r) for r in doppler_recommend_loop(reference, customers)
        ]
        assert results == expected

    def test_columnar_failure_containment_matches(self, module_catalog):
        bad = FleetCustomer(
            customer_id="bad",
            trace=make_trace(np.full(8, 1.0), data_size_gb=np.full(8, 1e9)),
            deployment=DeploymentType.SQL_DB,
        )
        good = FleetCustomer(
            customer_id="good", trace=full_trace(n=16), deployment=DeploymentType.SQL_DB
        )
        fleet = FleetEngine(engine=DopplerEngine(catalog=module_catalog), backend="serial")
        got = [result_projection(r) for r in fleet.recommend_fleet([bad, good])]
        expected = [
            result_projection(r)
            for r in doppler_recommend_loop(DopplerEngine(catalog=module_catalog), [bad, good])
        ]
        assert got == expected
        assert got[0][0] == "bad"
        assert got[0][-1] is not None  # contained error string
        assert got[1][-1] is None

    def test_mi_customers_take_columnar_path(self, module_catalog, records):
        customers = [
            FleetCustomer(
                customer_id=f"mi{index}",
                trace=record.trace,
                deployment=DeploymentType.SQL_MI,
                file_sizes_gib=(64.0, 32.0) if index % 2 else None,
            )
            for index, record in enumerate(records[:6])
        ]
        fleet = FleetEngine(engine=DopplerEngine(catalog=module_catalog), backend="serial")
        got = [result_projection(r) for r in fleet.recommend_fleet(customers)]
        expected = [
            result_projection(r)
            for r in doppler_recommend_loop(DopplerEngine(catalog=module_catalog), customers)
        ]
        assert got == expected

    def test_columnar_chunk_probes_cache_in_batches(self, module_catalog, records):
        fleet = FleetEngine(
            engine=DopplerEngine(catalog=module_catalog), backend="serial"
        )
        fleet.fit_fleet(records)
        after_fit = fleet.cache_stats()
        assert after_fit.misses > 0 and after_fit.hits == 0
        customers = [
            FleetCustomer.from_record(record, customer_id=f"c{index:03d}")
            for index, record in enumerate(records)
        ]
        list(fleet.recommend_fleet(customers))
        after_recommend = fleet.cache_stats()
        assert after_recommend.hits >= after_fit.misses

    def test_duplicate_customers_share_one_build(self, module_catalog):
        fleet = FleetEngine(
            engine=DopplerEngine(catalog=module_catalog), backend="serial"
        )
        customer = FleetCustomer(
            customer_id="dup", trace=full_trace(n=16), deployment=DeploymentType.SQL_DB
        )
        results = list(fleet.recommend_fleet([customer, customer, customer]))
        assert all(r.ok for r in results)
        stats = fleet.cache_stats()
        # Same counters a sequential get_or_build loop would produce:
        # one build, the duplicates served as hits.
        assert stats.misses == 1
        assert stats.hits == 2
        assert len({result_projection(r)[1:] for r in results}) == 1

    def test_duplicate_failing_customers_count_misses_like_serial(self, module_catalog):
        """Counter parity on the failure path: duplicates re-miss."""
        bad = FleetCustomer(
            customer_id="bad",
            trace=make_trace(np.full(8, 1.0), data_size_gb=np.full(8, 1e9)),
            deployment=DeploymentType.SQL_DB,
        )
        fleet = FleetEngine(engine=DopplerEngine(catalog=module_catalog), backend="serial")
        results = list(fleet.recommend_fleet([bad, bad]))
        stats = fleet.cache_stats()
        assert not any(r.ok for r in results)
        # A sequential get_or_build loop re-misses a failed build.
        assert (stats.hits, stats.misses) == (0, 2)


class TestMiOverrideGrouping:
    def test_gp_override_applied_to_capacity_matrix(self, module_catalog=None):
        """Columnar override grouping equals per-trace with_iops overrides."""
        skus = [
            make_sku(2, ServiceTier.GENERAL_PURPOSE, deployment=DeploymentType.SQL_MI, name="gp"),
            make_sku(
                4,
                ServiceTier.BUSINESS_CRITICAL,
                deployment=DeploymentType.SQL_MI,
                iops_per_vcore=4000.0,
                name="bc",
            ),
        ]
        catalog = SkuCatalog.from_skus(skus)
        ppm = DopplerEngine(catalog=catalog).ppm
        rng = np.random.default_rng(0)
        n = 32
        trace = make_trace(
            np.abs(rng.normal(1.0, 0.5, n)) + 0.05,
            memory_gb=np.abs(rng.normal(6.0, 2.0, n)) + 0.1,
            # Modest IOPS demand: the planned layout covers >= 95 %,
            # so GP SKUs stay candidates and inherit the override.
            data_iops=np.abs(rng.normal(100.0, 40.0, n)) + 1.0,
            io_latency_ms=np.abs(rng.normal(5.0, 1.0, n)) + 0.2,
            data_size_gb=np.full(n, 100.0),
            entity_id="mi-override",
        )
        assert ppm.plan_mi_storage(trace).gp_allowed
        outcome = ppm.build_curves_batch([trace], DeploymentType.SQL_MI)[0]
        serial = ppm.build_curve(trace, DeploymentType.SQL_MI)
        assert tuple(outcome.points) == tuple(serial.points)
        # The GP point's probability must reflect the layout override,
        # not the SKU's nominal IOPS limit.
        plan = ppm.plan_mi_storage(trace)
        estimator = EmpiricalThrottlingEstimator()
        expected = estimator.probabilities(
            trace,
            skus,
            MI_DIMENSIONS,
            iops_overrides={"gp": plan.layout.total_iops},
        )
        got = {p.sku.name: p.throttling_probability for p in outcome.points}
        np.testing.assert_allclose(
            [got["gp"], got["bc"]], expected, rtol=0, atol=0
        )


# ----------------------------------------------------------------------
# Property: every backend equals a DopplerEngine loop, result by result
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fitted_engine():
    """A default-catalog engine with a fitted DB model (MI stays cold-start)."""
    catalog = SkuCatalog.default()
    config = FleetConfig.paper_db(12, duration_days=3.0, interval_minutes=60.0)
    records = [c.record for c in simulate_fleet(config, catalog, rng=41)]
    engine = DopplerEngine(catalog=catalog)
    FleetEngine(engine=engine, backend="serial").fit_fleet(records)
    return engine


@st.composite
def estate(draw):
    """DB and MI customers, some unbuildable, some submitted twice."""
    sku_names = [sku.name for sku in SkuCatalog.default().skus[::17]]
    customers = []
    for index in range(draw(st.integers(min_value=1, max_value=7))):
        n = draw(st.integers(min_value=4, max_value=48))
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
        level = draw(st.floats(min_value=0.2, max_value=12.0))
        unbuildable = draw(st.integers(min_value=0, max_value=3)) == 0
        trace = make_trace(
            np.abs(rng.normal(level, level / 3, n)) + 1e-3,
            memory_gb=np.abs(rng.normal(level * 5, level, n)) + 1e-3,
            data_iops=np.abs(rng.normal(level * 300, level * 80, n)) + 1e-3,
            io_latency_ms=np.abs(rng.normal(6.0, 1.0, n)) + 0.2,
            log_rate_mbps=np.abs(rng.normal(level, level / 4, n)) + 1e-3,
            data_size_gb=np.full(n, 1e9 if unbuildable else 50.0 * level),
            entity_id=f"prop-{index}",
        )
        deployment = draw(st.sampled_from([DeploymentType.SQL_DB, DeploymentType.SQL_MI]))
        sizes = None
        if deployment is DeploymentType.SQL_MI and draw(st.booleans()):
            sizes = tuple(
                draw(st.lists(st.floats(min_value=8.0, max_value=512.0), min_size=1, max_size=3))
            )
        customer = FleetCustomer(
            customer_id=f"prop-{index}",
            trace=trace,
            deployment=deployment,
            file_sizes_gib=sizes,
            current_sku_name=draw(st.one_of(st.none(), st.sampled_from(sku_names))),
        )
        customers.append(customer)
        if draw(st.booleans()):
            customers.append(customer)  # a duplicate rides the cache-hit path
    return customers


def full_projection(result):
    """``result_projection`` plus every curve point, bit for bit."""
    curve = result.recommendation.curve if result.recommendation else None
    points = (
        tuple((p.sku.name, repr(p.throttling_probability)) for p in curve.points)
        if curve
        else None
    )
    return (*result_projection(result), points)


class TestFleetEqualsDopplerLoop:
    @settings(max_examples=6, deadline=None)
    @given(customers=estate())
    def test_serial_and_process_equal_doppler_loop(self, fitted_engine, customers):
        expected = [
            full_projection(r) for r in doppler_recommend_loop(fitted_engine, customers)
        ]
        for customer, row in zip(customers, expected):
            unbuildable = customer.trace[PerfDimension.STORAGE].max() > 1e8
            assert (row[-2] is not None) == unbuildable  # contained error string
        for backend, workers in (("serial", None), ("process", 2)):
            fleet = FleetEngine(
                engine=fitted_engine, backend=backend, max_workers=workers, chunk_size=3
            )
            got = [full_projection(r) for r in fleet.recommend_fleet(customers)]
            assert got == expected, f"{backend} diverged from the DopplerEngine loop"

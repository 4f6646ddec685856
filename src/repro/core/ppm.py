"""Price-Performance Modeler (PPM) -- paper Section 3.2 and Figure 3.

The PPM is the first of Doppler's two modules.  It takes three inputs
-- the customer's performance counters, the SKU catalog and the
billing interface (already folded into each SKU's price) -- and
produces the price-performance curve.

For SQL DB targets it evaluates the full six-dimension throttling
probability directly.  For SQL MI it first runs the two-step
storage-tier procedure: plan the premium-disk file layout from the
data size, verify the layout covers 100 % of storage and >= 95 % of
the IOPS/throughput demand (else restrict the candidate set to
Business Critical), then build the instance-level curve with the
layout's summed IOPS as the GP IOPS limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..catalog.catalog import SkuCatalog
from ..catalog.models import DeploymentType, ServiceTier, SkuSpec
from ..catalog.storage import IOPS_THROUGHPUT_COVERAGE, FileLayout, plan_file_layout
from ..telemetry.counters import DB_DIMENSIONS, MI_DIMENSIONS, PerfDimension
from ..telemetry.trace import PerformanceTrace
from .curve import PricePerformanceCurve
from .throttling import (
    EmpiricalThrottlingEstimator,
    ThrottlingEstimator,
    capacity_matrix,
)

__all__ = ["PricePerformanceModeler", "MiStoragePlan", "gp_iops_overrides"]


def gp_iops_overrides(
    skus: Sequence[SkuSpec], plan: "MiStoragePlan"
) -> dict[str, float]:
    """Step-2 IOPS overrides: GP SKUs inherit the layout's summed limit.

    The MI override policy (paper Section 3.2 Step 2) as a per-SKU
    mapping, used by the live recommender's drift-estimator sync.  The
    modeler's capacity memo applies the same rule through its GP mask
    and accepts only mappings of this form
    (:meth:`PricePerformanceModeler.capacity_matrix_for`), so curve
    construction and the estimator see identical capacities -- the
    parity contract.
    """
    return {
        sku.name: plan.layout.total_iops
        for sku in skus
        if sku.tier is ServiceTier.GENERAL_PURPOSE
    }


def _no_storage_fit_message(footprint: float) -> str:
    """Shared error text for the storage-fit failure.

    One definition for the serial and columnar paths: fleet error
    results embed this string, and the determinism contract requires
    both paths to produce identical bytes.
    """
    return f"no candidate SKU can hold {footprint:.0f} GB of data"


def _storage_footprint(trace: PerformanceTrace) -> float:
    if PerfDimension.STORAGE in trace:
        return trace[PerfDimension.STORAGE].max()
    return 1.0


class _DeploymentCurveState:
    """Precomputed per-deployment inputs of every curve build.

    Built once per modeler and deployment: the candidate SKUs in
    catalog (price) order plus the vectorized per-SKU attributes that
    curve construction needs -- storage limits for the per-customer fit
    mask, the GP/BC tier masks for the MI procedure, and the memo of
    read-only capacity matrices keyed by (dimension tuple, GP IOPS
    override).  The catalog fixes capacities, so a fleet needs only a
    handful of matrices; MI overrides are sums of discrete premium-disk
    limits, which keeps the memo small.
    """

    def __init__(self, skus: Sequence[SkuSpec]) -> None:
        self.skus: tuple[SkuSpec, ...] = tuple(skus)
        self.monthly_prices: tuple[float, ...] = tuple(
            sku.monthly_price for sku in self.skus
        )
        self.max_data_size_gb = np.array(
            [sku.limits.max_data_size_gb for sku in self.skus]
        )
        self.gp_mask = np.array(
            [sku.tier is ServiceTier.GENERAL_PURPOSE for sku in self.skus]
        )
        self.bc_mask = np.array(
            [sku.tier is ServiceTier.BUSINESS_CRITICAL for sku in self.skus]
        )
        self.gp_names = frozenset(
            sku.name for sku, gp in zip(self.skus, self.gp_mask) if gp
        )
        self._caps: dict[tuple[tuple[PerfDimension, ...], float | None], np.ndarray] = {}

    def caps_for(
        self, dimensions: tuple[PerfDimension, ...], gp_iops: float | None = None
    ) -> np.ndarray:
        """Read-only capacity matrix over all candidates, memoized.

        ``gp_iops`` replaces the IOPS capacity of every GP candidate
        (paper Section 3.2 Step 2); it is ignored when IOPS is not
        evaluated, so such tuples share one matrix.
        """
        if PerfDimension.IOPS not in dimensions:
            gp_iops = None
        key = (dimensions, gp_iops)
        caps = self._caps.get(key)
        if caps is None:
            overrides = None if gp_iops is None else dict.fromkeys(self.gp_names, gp_iops)
            caps = capacity_matrix(list(self.skus), dimensions, overrides)
            caps.flags.writeable = False
            self._caps[key] = caps
        return caps

    def gp_iops_of(self, iops_overrides: Mapping[str, float] | None) -> float | None:
        """The GP IOPS limit a :func:`gp_iops_overrides` mapping encodes.

        Raises:
            ValueError: If the mapping is not one limit over exactly
                this deployment's GP candidates.
        """
        if not iops_overrides:
            return None
        limit = next(iter(iops_overrides.values()))
        if iops_overrides.keys() != self.gp_names or any(
            value != limit for value in iops_overrides.values()
        ):
            raise ValueError(
                "IOPS overrides must give every GP candidate of the deployment "
                "one limit (see gp_iops_overrides)"
            )
        return limit

    def fit_mask(self, trace: PerformanceTrace) -> np.ndarray:
        """Candidates that hold the trace's data at 100 % (never negotiable).

        Raises:
            ValueError: If no candidate can.
        """
        footprint = _storage_footprint(trace)
        mask = self.max_data_size_gb >= footprint
        if not mask.any():
            raise ValueError(_no_storage_fit_message(footprint))
        return mask

    def mi_mask(self, trace: PerformanceTrace, plan: "MiStoragePlan") -> np.ndarray:
        """MI candidates: the storage fit, restricted to BC unless Step 1 allows GP.

        Raises:
            ValueError: If no candidate is left.
        """
        mask = self.fit_mask(trace)
        if not plan.gp_allowed:
            mask = mask & self.bc_mask
            if not mask.any():
                raise ValueError("no MI SKU satisfies the storage requirement")
        return mask

#: Quantile summarizing the IOPS/throughput demand checked in Step 1.
_STEP1_DEMAND_QUANTILE = 0.99

#: Assumed IO transfer size for converting IOPS into MiB/s when the
#: workload trace has no native throughput counter (8 KiB SQL pages).
_IO_TRANSFER_KIB = 8.0


@dataclass(frozen=True)
class MiStoragePlan:
    """Outcome of the MI Step-1 storage-tier determination.

    Attributes:
        layout: The planned premium-disk file layout.
        gp_allowed: Whether GP SKUs stay in the candidate set (the
            layout covered >= 95 % of IOPS and throughput demand).
        required_iops: IOPS demand checked against the layout.
        required_throughput_mibps: Throughput demand checked.
    """

    layout: FileLayout
    gp_allowed: bool
    required_iops: float
    required_throughput_mibps: float


@dataclass(frozen=True)
class PricePerformanceModeler:
    """Builds price-performance curves from counters and a catalog.

    Attributes:
        catalog: All candidate SKUs (both deployments; filtered per
            call).
        estimator: Joint throttling-probability estimator; defaults to
            the paper's non-parametric production estimator.
    """

    catalog: SkuCatalog
    estimator: ThrottlingEstimator = field(default_factory=EmpiricalThrottlingEstimator)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def build_curve(
        self,
        trace: PerformanceTrace,
        deployment: DeploymentType,
        file_sizes_gib: list[float] | None = None,
        mi_plan: "MiStoragePlan | None" = None,
    ) -> PricePerformanceCurve:
        """Produce the price-performance curve for one workload.

        Args:
            trace: Customer performance history.  DB curves use up to
                six dimensions, MI curves four (paper Section 3.2);
                dimensions absent from the trace are skipped.
            deployment: Target deployment type.
            file_sizes_gib: Explicit MI data-file sizes; default is a
                single file holding the observed data size.
            mi_plan: Optional precomputed Step-1 storage plan for this
                exact trace/file layout (callers that already planned
                -- e.g. the live recommender's MI override sync --
                pass it to avoid planning twice).  Ignored for DB.

        Returns:
            The monotone price-performance curve over every catalog
            SKU of the deployment that can hold the data.

        Raises:
            ValueError: If no SKU can accommodate the workload's
                storage footprint.
        """
        if deployment is DeploymentType.SQL_DB:
            return self._build_db_curve(trace)
        return self._build_mi_curve(trace, file_sizes_gib, plan=mi_plan)

    def build_curves_batch(
        self,
        traces: Sequence[PerformanceTrace],
        deployment: DeploymentType,
        file_sizes_gib: Sequence[Sequence[float] | None] | None = None,
    ) -> list[PricePerformanceCurve | Exception]:
        """Columnar batch counterpart of :meth:`build_curve`.

        Evaluates a whole fleet shard as stacked NumPy operations: the
        per-deployment capacity matrix is built once (memoized on the
        modeler), customers are grouped by their evaluated dimension
        tuple (and, for MI, by the planned file layout's IOPS
        override), each group's demand rows flow through one chunked
        broadcast, and the per-customer storage fit reduces to a
        vectorized mask over precomputed SKU storage limits.

        The results are byte-identical to calling :meth:`build_curve`
        per trace -- same probabilities (per-SKU estimates are
        independent of the candidate subset), same candidate order
        (catalog price order), same error types and messages in the
        same precedence.  Estimators without a columnar kernel (KDE,
        copula) transparently fall back to the serial path per trace.

        Args:
            traces: One trace per customer.
            deployment: Target deployment type, shared by the batch.
            file_sizes_gib: Optional per-customer MI file layouts,
                aligned with ``traces``.

        Returns:
            One entry per trace, aligned with the input: the built
            curve, or the exception :meth:`build_curve` would have
            raised for that trace (exceptions are returned, not
            raised, so one pathological customer cannot abort a fleet
            shard).
        """
        n_traces = len(traces)
        sizes_per_trace: Sequence[Sequence[float] | None]
        if file_sizes_gib is None:
            sizes_per_trace = [None] * n_traces
        elif len(file_sizes_gib) != n_traces:
            raise ValueError(
                f"expected {n_traces} file-size entries, got {len(file_sizes_gib)}"
            )
        else:
            sizes_per_trace = file_sizes_gib

        if not isinstance(self.estimator, EmpiricalThrottlingEstimator):
            return [
                self._build_one_guarded(trace, deployment, sizes)
                for trace, sizes in zip(traces, sizes_per_trace)
            ]

        results: list[PricePerformanceCurve | Exception | None] = [None] * n_traces
        state = self._deployment_state(deployment)
        base_dims = (
            DB_DIMENSIONS if deployment is DeploymentType.SQL_DB else MI_DIMENSIONS
        )
        fit_masks: list[np.ndarray | None] = [None] * n_traces
        groups: dict[tuple, list[int]] = {}
        for index, trace in enumerate(traces):
            try:
                dims = tuple(dim for dim in base_dims if dim in trace)
                if not dims:
                    raise ValueError(
                        f"trace has none of the {deployment.short_name} "
                        "performance dimensions"
                    )
                iops_override: float | None = None
                if deployment is DeploymentType.SQL_MI:
                    sizes = sizes_per_trace[index]
                    plan = self.plan_mi_storage(
                        trace, list(sizes) if sizes else None
                    )
                    iops_override = plan.layout.total_iops
                    fit_masks[index] = state.mi_mask(trace, plan)
                else:
                    fit_masks[index] = state.fit_mask(trace)
                groups.setdefault((dims, iops_override), []).append(index)
            except Exception as exc:  # noqa: BLE001 - per-customer containment
                results[index] = exc

        for (dims, iops_override), indices in groups.items():
            caps = state.caps_for(dims, iops_override)
            probabilities = self.estimator.probabilities_batch_from_caps(
                [traces[i].demand_matrix(dims) for i in indices], caps
            )
            for row, index in zip(probabilities, indices):
                fitted = np.flatnonzero(fit_masks[index]).tolist()
                try:
                    # Candidate subsets inherit catalog (price) order,
                    # so the trusted sorted-input constructor applies.
                    results[index] = PricePerformanceCurve.from_price_ordered(
                        [state.skus[j] for j in fitted],
                        [state.monthly_prices[j] for j in fitted],
                        row[fitted],
                        entity_id=traces[index].entity_id,
                    )
                except Exception as exc:  # noqa: BLE001 - per-customer containment
                    results[index] = exc
        return results  # type: ignore[return-value]

    def _build_one_guarded(
        self,
        trace: PerformanceTrace,
        deployment: DeploymentType,
        sizes: Sequence[float] | None,
    ) -> PricePerformanceCurve | Exception:
        try:
            return self.build_curve(
                trace, deployment, file_sizes_gib=list(sizes) if sizes else None
            )
        except Exception as exc:  # noqa: BLE001 - per-customer containment
            return exc

    # ------------------------------------------------------------------
    # Candidates and capacities (the modeler owns the memo)
    # ------------------------------------------------------------------
    def candidates(self, deployment: DeploymentType) -> tuple[SkuSpec, ...]:
        """Every catalog SKU of the deployment, in catalog (price) order."""
        return self._deployment_state(deployment).skus

    def capacity_matrix_for(
        self,
        deployment: DeploymentType,
        dimensions: tuple[PerfDimension, ...],
        iops_overrides: Mapping[str, float] | None = None,
    ) -> np.ndarray:
        """The memoized, read-only capacity matrix over :meth:`candidates`.

        Built once per (deployment, dimension tuple, GP IOPS override)
        and shared by curve construction and every live estimator
        bound to the deployment.  ``iops_overrides`` must be a
        :func:`gp_iops_overrides` mapping over the candidates (or
        None).

        Raises:
            ValueError: If ``iops_overrides`` is not such a mapping.
        """
        state = self._deployment_state(deployment)
        return state.caps_for(tuple(dimensions), state.gp_iops_of(iops_overrides))

    def has_capacity_matrix(
        self, deployment: DeploymentType, dimensions: tuple[PerfDimension, ...]
    ) -> bool:
        """Whether the override-free matrix for this tuple is memoized."""
        return (dimensions, None) in self._deployment_state(deployment)._caps

    def adopt_capacity_matrix(
        self,
        deployment: DeploymentType,
        dimensions: tuple[PerfDimension, ...],
        caps: np.ndarray,
    ) -> None:
        """Seed the capacity memo with a parent-published matrix.

        The zero-copy rehydration hook: a process-pool worker installs
        the override-free capacity matrix its parent exported over
        shared memory so it skips rebuilding it from the catalog.  The
        caller asserts the matrix equals what :meth:`capacity_matrix_for`
        would compute (the publisher exports from a sibling modeler's
        memo, which guarantees it).  An already-memoized tuple is left
        untouched.

        Raises:
            ValueError: If the matrix shape does not match the
                deployment's candidate set.
        """
        state = self._deployment_state(deployment)
        key = (dimensions, None)
        if key in state._caps:
            return
        expected = (len(state.skus), len(dimensions))
        if caps.shape != expected:
            raise ValueError(
                f"capacity matrix for {deployment.short_name} over "
                f"{len(dimensions)} dimensions must have shape {expected}, "
                f"got {caps.shape}"
            )
        caps = np.ascontiguousarray(caps, dtype=np.float64)
        caps.flags.writeable = False
        state._caps[key] = caps

    def _deployment_state(self, deployment: DeploymentType) -> _DeploymentCurveState:
        """Columnar candidate state, memoized per deployment.

        Lazily attached to the (frozen) modeler; dropped on pickling
        so worker processes rebuild it locally (a few milliseconds per
        matrix) instead of shipping it.
        """
        cache = self.__dict__.get("_columnar_state")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_columnar_state", cache)
        state = cache.get(deployment)
        if state is None:
            state = _DeploymentCurveState(self.catalog.for_deployment(deployment))
            cache[deployment] = state
        return state

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_columnar_state", None)
        return state

    def plan_mi_storage(
        self,
        trace: PerformanceTrace,
        file_sizes_gib: list[float] | None = None,
    ) -> MiStoragePlan:
        """Run MI Step 1: storage-tier planning and the 95 % filter."""
        data_size = _storage_footprint(trace)
        sizes = file_sizes_gib if file_sizes_gib else [data_size]
        layout = plan_file_layout(sizes)
        required_iops, required_throughput = self._io_demand(trace)
        gp_allowed = layout.covers(
            required_iops, required_throughput, coverage=IOPS_THROUGHPUT_COVERAGE
        )
        return MiStoragePlan(
            layout=layout,
            gp_allowed=gp_allowed,
            required_iops=required_iops,
            required_throughput_mibps=required_throughput,
        )

    # ------------------------------------------------------------------
    # DB path
    # ------------------------------------------------------------------
    def _build_db_curve(self, trace: PerformanceTrace) -> PricePerformanceCurve:
        dimensions = tuple(dim for dim in DB_DIMENSIONS if dim in trace)
        if not dimensions:
            raise ValueError("trace has none of the DB performance dimensions")
        state = self._deployment_state(DeploymentType.SQL_DB)
        return self._curve_over(
            trace, state, state.fit_mask(trace), state.caps_for(dimensions), dimensions
        )

    # ------------------------------------------------------------------
    # MI path (two-step procedure, paper Section 3.2)
    # ------------------------------------------------------------------
    def _build_mi_curve(
        self,
        trace: PerformanceTrace,
        file_sizes_gib: list[float] | None,
        plan: MiStoragePlan | None = None,
    ) -> PricePerformanceCurve:
        dimensions = tuple(dim for dim in MI_DIMENSIONS if dim in trace)
        if not dimensions:
            raise ValueError("trace has none of the MI performance dimensions")
        if plan is None:
            plan = self.plan_mi_storage(trace, file_sizes_gib)
        state = self._deployment_state(DeploymentType.SQL_MI)
        mask = state.mi_mask(trace, plan)
        # Step 2: GP SKUs inherit the file layout's summed IOPS limit.
        caps = state.caps_for(dimensions, plan.layout.total_iops)
        return self._curve_over(trace, state, mask, caps, dimensions)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _curve_over(
        self,
        trace: PerformanceTrace,
        state: _DeploymentCurveState,
        mask: np.ndarray,
        caps: np.ndarray,
        dimensions: tuple[PerfDimension, ...],
    ) -> PricePerformanceCurve:
        """The curve over the masked candidates, from their capacity rows."""
        fitted = np.flatnonzero(mask).tolist()
        probabilities = self.estimator.probabilities_from_caps(
            trace.demand_matrix(dimensions), caps[fitted]
        )
        # Candidate subsets inherit catalog (price) order.
        return PricePerformanceCurve.from_price_ordered(
            [state.skus[j] for j in fitted],
            [state.monthly_prices[j] for j in fitted],
            probabilities,
            entity_id=trace.entity_id,
        )

    @staticmethod
    def _io_demand(trace: PerformanceTrace) -> tuple[float, float]:
        """(IOPS, MiB/s) demand summarized at a high quantile."""
        if PerfDimension.IOPS not in trace:
            return 0.0, 0.0
        iops = trace[PerfDimension.IOPS].quantile(_STEP1_DEMAND_QUANTILE)
        throughput = iops * _IO_TRANSFER_KIB / 1024.0
        return iops, throughput

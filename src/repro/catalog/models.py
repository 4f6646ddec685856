"""Data model for Azure SQL PaaS SKUs.

The paper (Section 2) narrows its scope to the Azure SQL PaaS surface:
two *deployment types* -- Azure SQL Database (DB) and Azure SQL Managed
Instance (MI) -- each offered in two *service tiers* -- General Purpose
(GP) and Business Critical (BC).  A SKU is one concrete offering: a
deployment type, a service tier, a number of virtual cores and a set of
resource capacities (memory, IOPS, log rate, storage, IO latency) plus
an hourly price.

Everything downstream of the catalog (the Price-Performance Modeler,
the baseline strategy, the profiling pipeline) consumes SKUs only
through :class:`SkuSpec`: a capacity vector plus a price.  That is what
makes the substitution of the proprietary Azure billing catalog with a
generated one sound.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

__all__ = [
    "DeploymentType",
    "ServiceTier",
    "HardwareGeneration",
    "ResourceLimits",
    "SkuSpec",
    "HOURS_PER_MONTH",
]

#: Average hours in a month used by the billing interface to convert the
#: hourly list price into the monthly subscription shown on the
#: price-performance curve's x axis (Figures 4b, 5, 12 of the paper).
HOURS_PER_MONTH = 730.0


class DeploymentType(enum.Enum):
    """Azure SQL PaaS deployment model (paper Section 2)."""

    SQL_DB = "SQL_DB"
    SQL_MI = "SQL_MI"

    @property
    def short_name(self) -> str:
        """Short label used in reports: ``DB`` or ``MI``."""
        return "DB" if self is DeploymentType.SQL_DB else "MI"


class ServiceTier(enum.Enum):
    """vCore-model service tier (paper Section 2).

    The Business Critical tier offers higher transaction rates and
    lower-latency IO than General Purpose at a higher price.
    """

    GENERAL_PURPOSE = "GP"
    BUSINESS_CRITICAL = "BC"

    @property
    def short_name(self) -> str:
        return self.value


class HardwareGeneration(enum.Enum):
    """Compute hardware generation.

    Azure segments SKUs further by hardware series; the catalog
    generator emits the standard series (Gen5) plus a premium series so
    that the generated catalog reaches the paper's "over 200 PaaS SKUs"
    scale with realistic price/capacity spreads.
    """

    GEN5 = "Gen5"
    PREMIUM_SERIES = "PremiumSeries"

    @property
    def memory_per_vcore_gb(self) -> float:
        """GB of max server memory per vCore for this generation.

        Gen5 exposes 5.2 GB/vCore (Figure 1 of the paper: 2 vCores ->
        10.4 GB); the premium series exposes 7.0 GB/vCore.
        """
        if self is HardwareGeneration.GEN5:
            return 5.2
        return 7.0

    @property
    def price_multiplier(self) -> float:
        """Relative hourly price of this generation versus Gen5."""
        if self is HardwareGeneration.GEN5:
            return 1.0
        return 1.15


@dataclass(frozen=True, slots=True)
class ResourceLimits:
    """Maximum capacities of a SKU along each performance dimension.

    These are the ``R_i`` upper bounds of equation (1) in the paper:
    the throttling probability of a SKU is the probability that the
    customer's resource demand exceeds any of these limits.

    Attributes:
        vcores: Number of virtual cores.
        max_memory_gb: Maximum server memory in GB.
        max_data_iops: Maximum data-file IOPS.
        max_log_rate_mbps: Maximum transaction-log write rate in MB/s.
        max_data_size_gb: Maximum database (or instance) storage in GB.
        min_io_latency_ms: Best-case IO latency in milliseconds.  The
            paper treats latency inversely: a SKU *satisfies* a latency
            requirement when its floor latency is at or below the
            latency the workload needs.
    """

    vcores: float
    max_memory_gb: float
    max_data_iops: float
    max_log_rate_mbps: float
    max_data_size_gb: float
    min_io_latency_ms: float

    def __post_init__(self) -> None:
        for name in (
            "vcores",
            "max_memory_gb",
            "max_data_iops",
            "max_log_rate_mbps",
            "max_data_size_gb",
            "min_io_latency_ms",
        ):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")

    def dominates(self, other: "ResourceLimits") -> bool:
        """Return True when this limit set is at least as capable as ``other``.

        Capability is monotone in every dimension except latency, where
        *lower* is better.
        """
        return (
            self.vcores >= other.vcores
            and self.max_memory_gb >= other.max_memory_gb
            and self.max_data_iops >= other.max_data_iops
            and self.max_log_rate_mbps >= other.max_log_rate_mbps
            and self.max_data_size_gb >= other.max_data_size_gb
            and self.min_io_latency_ms <= other.min_io_latency_ms
        )

    def with_iops(self, max_data_iops: float) -> "ResourceLimits":
        """Return a copy with the IOPS limit replaced.

        Used by the MI storage-tier step (paper Section 3.2): the
        instance-level IOPS limit of an MI General Purpose SKU is the
        sum of the premium-disk limits of its file layout, not a fixed
        per-SKU constant.
        """
        return replace(self, max_data_iops=max_data_iops)

    # Explicit pickle fast path: the default slots-dataclass protocol
    # resolves ``dataclasses.fields()`` per instance, which dominates
    # fleet checkpoint encoding (hundreds of limit objects per customer
    # state).  Values were validated at construction, so restore skips
    # ``__post_init__`` by design.
    def __getstate__(self) -> tuple:
        return (
            self.vcores,
            self.max_memory_gb,
            self.max_data_iops,
            self.max_log_rate_mbps,
            self.max_data_size_gb,
            self.min_io_latency_ms,
        )

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(ResourceLimits.__slots__, state):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, slots=True)
class SkuSpec:
    """One concrete cloud target: capacities plus price.

    Attributes:
        deployment: SQL DB or SQL MI.
        tier: General Purpose or Business Critical.
        hardware: Compute hardware generation.
        limits: Resource capacities (:class:`ResourceLimits`).
        price_per_hour: Hourly list price in USD.
        name: Stable human-readable identifier, e.g. ``DB_GP_Gen5_8``.
    """

    deployment: DeploymentType
    tier: ServiceTier
    hardware: HardwareGeneration
    limits: ResourceLimits
    price_per_hour: float
    name: str = field(default="")

    def __post_init__(self) -> None:
        if not math.isfinite(self.price_per_hour) or self.price_per_hour <= 0:
            raise ValueError(f"price_per_hour must be positive, got {self.price_per_hour!r}")
        if not self.name:
            generated = (
                f"{self.deployment.short_name}_{self.tier.short_name}_"
                f"{self.hardware.value}_{int(self.limits.vcores)}v_"
                f"{int(self.limits.max_data_size_gb)}gb"
            )
            object.__setattr__(self, "name", generated)

    @property
    def monthly_price(self) -> float:
        """Monthly subscription cost in USD (price-performance x axis)."""
        return self.price_per_hour * HOURS_PER_MONTH

    @property
    def vcores(self) -> float:
        return self.limits.vcores

    # Same pickle fast path as ResourceLimits: skip the per-instance
    # ``dataclasses.fields()`` resolution on the fleet-checkpoint and
    # process-backend hot paths.
    def __getstate__(self) -> tuple:
        return (
            self.deployment,
            self.tier,
            self.hardware,
            self.limits,
            self.price_per_hour,
            self.name,
        )

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(SkuSpec.__slots__, state):
            object.__setattr__(self, name, value)

    def describe(self) -> str:
        """One-line description in the format of Figure 1 of the paper."""
        limits = self.limits
        return (
            f"{self.deployment.short_name} {self.tier.short_name} "
            f"{int(limits.vcores)} vCores | {limits.max_data_size_gb:.0f} GB data | "
            f"{limits.max_memory_gb:.1f} GB mem | {limits.max_data_iops:.0f} IOPS | "
            f"{limits.max_log_rate_mbps:.1f} MBps log | "
            f"{limits.min_io_latency_ms:.0f} ms IO | ${self.price_per_hour:.2f}/h"
        )

"""Shared record types of the Doppler engine's public API."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..catalog.models import DeploymentType, SkuSpec
from ..telemetry.trace import PerformanceTrace
from .confidence import ConfidenceResult
from .curve import PricePerformanceCurve
from .profiler import CustomerProfile

__all__ = [
    "CloudCustomerRecord",
    "DopplerRecommendation",
    "OverProvisionReport",
]


@dataclass(frozen=True)
class CloudCustomerRecord:
    """One successfully migrated Azure customer used for training.

    The paper's training population: customers "that have fixed their
    SKU choice for at least 40 days", whose fixed SKU is taken as the
    optimal ground truth (Section 5.2).

    Attributes:
        trace: The customer's cloud performance history.
        deployment: Their deployment type.
        chosen_sku_name: Name of the SKU they fixed.
        days_on_sku: How long the SKU has been fixed; records under
            40 days are excluded from training by the engine.
    """

    trace: PerformanceTrace
    deployment: DeploymentType
    chosen_sku_name: str
    days_on_sku: float = 40.0

    @property
    def is_settled(self) -> bool:
        """The paper's >= 40-day retention filter."""
        return self.days_on_sku >= 40.0


@dataclass(frozen=True)
class DopplerRecommendation:
    """Full output of one Doppler assessment.

    Attributes:
        sku: The recommended cloud target.
        curve: The customer's price-performance curve (the
            interpretability artifact shown in the dashboard).
        profile: The customer's negotiability profile.
        target_probability: The group throttling target ``P_g`` the
            selection matched against.
        expected_throttling: The recommended SKU's own throttling
            probability on this workload.
        confidence: Optional bootstrap confidence result.
        strategy: Which selection path produced the SKU
            (``profile_match`` or a fallback heuristic name).
        notes: Human-readable explanation lines.
    """

    sku: SkuSpec
    curve: PricePerformanceCurve
    profile: CustomerProfile
    target_probability: float
    expected_throttling: float
    confidence: ConfidenceResult | None = None
    strategy: str = "profile_match"
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def monthly_price(self) -> float:
        return self.sku.monthly_price

    def explain(self) -> str:
        """Multi-line, customer-facing explanation of the choice."""
        lines = [
            f"Recommended SKU: {self.sku.describe()}",
            f"Workload profile: {self.profile.describe()}",
            (
                f"Expected throttling on this SKU: "
                f"{self.expected_throttling:.1%} (group target {self.target_probability:.1%})"
            ),
            f"Selection strategy: {self.strategy}",
        ]
        if self.confidence is not None:
            lines.append(
                f"Confidence: {self.confidence.score:.0%} over "
                f"{self.confidence.n_rounds} bootstrap runs"
                + ("" if self.confidence.is_confident else " -- collect more data")
            )
        lines.extend(self.notes)
        return "\n".join(lines)


@dataclass(frozen=True)
class OverProvisionReport:
    """Right-sizing assessment of an existing cloud customer.

    Attributes:
        current_sku: The SKU the customer is paying for.
        recommended_sku: The cheapest SKU meeting the workload at
            100 % (None when even the current SKU throttles).
        is_over_provisioned: Whether the customer sits materially past
            the cheapest full-performance point (>= 2 price steps, paper
            Section 5.1).
        utilization_ratio: Peak observed demand over current capacity
            on the binding CPU dimension.
        monthly_savings: Price delta current - recommended.
    """

    current_sku: SkuSpec
    recommended_sku: SkuSpec | None
    is_over_provisioned: bool
    utilization_ratio: float
    monthly_savings: float

    @property
    def annual_savings(self) -> float:
        return self.monthly_savings * 12.0

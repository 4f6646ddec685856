"""Customer-population simulation substrate.

Synthesizes the proprietary datasets of paper Section 5: migrated
cloud fleets with expert-chosen SKUs (back-testing ground truth),
SKU-change customers, on-prem estates and the DMA adoption stream.
"""

from .adoption import (
    PAPER_MONTHS,
    AssessmentRequest,
    MonthProfile,
    simulate_adoption_log,
)
from .choice import ExpertChoiceModel
from .events import SkuChangeCustomer, simulate_sku_change_customers
from .onprem import OnPremDatabase, OnPremServer, simulate_onprem_estate
from .validation import (
    DetectionQuality,
    ProfilingQuality,
    SelectionQuality,
    overprovision_detection_quality,
    profiling_quality,
    selection_quality,
)
from .population import (
    FleetConfig,
    SimulatedCustomer,
    simulate_customer,
    simulate_fleet,
)

__all__ = [
    "PAPER_MONTHS",
    "AssessmentRequest",
    "MonthProfile",
    "simulate_adoption_log",
    "ExpertChoiceModel",
    "SkuChangeCustomer",
    "simulate_sku_change_customers",
    "OnPremDatabase",
    "OnPremServer",
    "simulate_onprem_estate",
    "DetectionQuality",
    "ProfilingQuality",
    "SelectionQuality",
    "overprovision_detection_quality",
    "profiling_quality",
    "selection_quality",
    "FleetConfig",
    "SimulatedCustomer",
    "simulate_customer",
    "simulate_fleet",
]

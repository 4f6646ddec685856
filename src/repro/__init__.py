"""Doppler: automated SKU recommendation for SQL cloud migration.

A full reproduction of *Doppler: Automated SKU Recommendation in
Migrating SQL Workloads to the Cloud* (Cahoon et al., PVLDB 15(12),
VLDB 2022): price-performance modelling over resource-throttling
probabilities, customer profiling via negotiability summarizers,
profile-matched SKU selection, bootstrap confidence scores, the naive
baseline, the DMA integration pipeline, the simulation substrates
(SKU catalog, telemetry, workload synthesis/replay, customer fleets)
the evaluation requires, and a durable fleet store
(:mod:`repro.store`) that checkpoints live watches for byte-identical
resume after a crash.

Quickstart::

    from repro import DopplerEngine, SkuCatalog, DeploymentType

    engine = DopplerEngine(catalog=SkuCatalog.default())
    recommendation = engine.recommend(trace, DeploymentType.SQL_DB)
    print(recommendation.explain())

See README.md for the architecture overview ("Layout" maps each
subpackage) and the benchmark commands that regenerate the paper's
tables and figures.
"""

from .catalog import (
    DeploymentType,
    HardwareGeneration,
    PricingModel,
    ResourceLimits,
    ServiceTier,
    SkuCatalog,
    SkuSpec,
)
from .core import (
    BaselineStrategy,
    CloudCustomerRecord,
    ConfidenceResult,
    CurveShape,
    CustomerProfile,
    CustomerProfiler,
    DopplerEngine,
    DopplerRecommendation,
    GroupScoreModel,
    IncrementalThrottlingEstimator,
    OverProvisionReport,
    PricePerformanceCurve,
    PricePerformanceModeler,
    ThresholdingSummarizer,
    confidence_score,
)
from .dma import AssessmentPipeline, AssessmentResult, FleetAssessmentResult
from .faults import FaultPlan
from .fleet import (
    CheckpointConfig,
    FleetCustomer,
    FleetEngine,
    FleetFitReport,
    FleetLiveUpdate,
    FleetRecommendation,
    FleetSample,
    FleetSummary,
    LoadImbalancePolicy,
    ShardRing,
    SupervisionConfig,
    WatchConfig,
    WatchSupervisionStats,
    WorkerEvent,
    summarize_fleet,
)
from . import serve
from .serve import AdmissionError, RecommendationService, ServeConfig
from .store import (
    FleetStore,
    FleetStoreError,
    StaleStateError,
    StoreCorruptionError,
    StoreSchemaError,
)
from .streaming import DriftDetector, DriftReport, LiveRecommender, LiveUpdate
from .telemetry import (
    PerfDimension,
    PerformanceTrace,
    StreamingTraceBuilder,
    TimeSeries,
)
from .workloads import WorkloadSpec, WorkloadSynthesizer, generate_trace, replay_on_sku

__version__ = "1.0.0"

__all__ = [
    "DeploymentType",
    "HardwareGeneration",
    "PricingModel",
    "ResourceLimits",
    "ServiceTier",
    "SkuCatalog",
    "SkuSpec",
    "BaselineStrategy",
    "CloudCustomerRecord",
    "ConfidenceResult",
    "CurveShape",
    "CustomerProfile",
    "CustomerProfiler",
    "DopplerEngine",
    "DopplerRecommendation",
    "GroupScoreModel",
    "IncrementalThrottlingEstimator",
    "OverProvisionReport",
    "PricePerformanceCurve",
    "PricePerformanceModeler",
    "ThresholdingSummarizer",
    "confidence_score",
    "AssessmentPipeline",
    "AssessmentResult",
    "FleetAssessmentResult",
    "CheckpointConfig",
    "FaultPlan",
    "SupervisionConfig",
    "WatchSupervisionStats",
    "WorkerEvent",
    "FleetCustomer",
    "FleetEngine",
    "FleetFitReport",
    "FleetLiveUpdate",
    "FleetRecommendation",
    "FleetSample",
    "FleetSummary",
    "LoadImbalancePolicy",
    "ShardRing",
    "WatchConfig",
    "summarize_fleet",
    "FleetStore",
    "FleetStoreError",
    "StaleStateError",
    "StoreCorruptionError",
    "StoreSchemaError",
    "AdmissionError",
    "RecommendationService",
    "ServeConfig",
    "serve",
    "DriftDetector",
    "DriftReport",
    "LiveRecommender",
    "LiveUpdate",
    "PerfDimension",
    "PerformanceTrace",
    "StreamingTraceBuilder",
    "TimeSeries",
    "WorkloadSpec",
    "WorkloadSynthesizer",
    "generate_trace",
    "replay_on_sku",
    "__version__",
]

"""Adaptive particle-window search over discrete (x, y, scale) spaces."""

from .detectors import (
    DetectorConfig,
    RunTrace,
    TraceRecord,
    TraceRecords,
    mpw_schedule,
    nms,
    run_ipw,
    run_mpw,
    run_sipw,
    run_sw,
)
from .harness import (
    CostModel,
    Metrics,
    SceneParams,
    cost_estimate,
    evaluate,
    extract_curves,
    generate_scenes,
    hit_probability,
)
from .proposal import (
    DentedGaussianMixture,
    DentedUniform,
    MixtureWeights,
    mixture_weights,
)
from .regions import (
    RadiusInterval,
    RadiusTable,
    RegionBook,
    RegionKind,
    ScalePropagation,
    mark_acceptance,
    mark_rejection,
)
from .scoring import (
    CascadeScorer,
    SyntheticScene,
    SyntheticScorer,
    normalize_weights,
)
from .space import Box, SearchSpace, Window, overlap

__version__ = "0.1.0"

__all__ = [
    "Box",
    "CascadeScorer",
    "CostModel",
    "DentedGaussianMixture",
    "DentedUniform",
    "DetectorConfig",
    "Metrics",
    "MixtureWeights",
    "RadiusInterval",
    "RadiusTable",
    "RegionBook",
    "RegionKind",
    "RunTrace",
    "ScalePropagation",
    "SceneParams",
    "SearchSpace",
    "SyntheticScene",
    "SyntheticScorer",
    "TraceRecord",
    "TraceRecords",
    "Window",
    "cost_estimate",
    "evaluate",
    "extract_curves",
    "generate_scenes",
    "hit_probability",
    "mark_acceptance",
    "mark_rejection",
    "mixture_weights",
    "mpw_schedule",
    "nms",
    "normalize_weights",
    "overlap",
    "run_ipw",
    "run_mpw",
    "run_sipw",
    "run_sw",
]

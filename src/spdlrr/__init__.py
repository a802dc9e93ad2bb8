"""Superpixel-guided discriminative low-rank restoration and classification
of hyperspectral images."""

from .classify import (
    LabelField,
    MetricsReport,
    TrainSplit,
    evaluate,
    metrics_from_confusion,
    split,
    train_predict,
)
from .cube import HsiCube, normalize
from .errors import (
    DegenerateInput,
    FormatError,
    NonFiniteData,
    SolverDiverged,
    SpdlrrError,
    SvdFailure,
)
from .linalg import (
    max_norm,
    nuclear_norm,
    nuclear_subgradient,
    soft_threshold,
    svt,
)
from .pipeline import PipelineConfig, PipelineResult, run
from .solver import DlrrParams, SolveTrace, SolverState, solve
from .superpixel import SuperpixelPartition, project_base_image, refine, segment

__version__ = "0.1.0"

__all__ = [
    "DegenerateInput",
    "DlrrParams",
    "FormatError",
    "HsiCube",
    "LabelField",
    "MetricsReport",
    "NonFiniteData",
    "PipelineConfig",
    "PipelineResult",
    "SolveTrace",
    "SolverDiverged",
    "SolverState",
    "SpdlrrError",
    "SuperpixelPartition",
    "SvdFailure",
    "TrainSplit",
    "evaluate",
    "max_norm",
    "metrics_from_confusion",
    "normalize",
    "nuclear_norm",
    "nuclear_subgradient",
    "project_base_image",
    "refine",
    "run",
    "segment",
    "soft_threshold",
    "split",
    "svt",
    "solve",
    "train_predict",
]

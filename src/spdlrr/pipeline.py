"""The outer restoration/classification loop.

Each round segments the current working image (the raw cube on the first
round, the latest restoration afterwards), refines the segmentation with
classifier predictions, and then decomposes the ORIGINAL normalized cube
over the refined superpixel blocks.  After the last round the restoration
is classified and scored on the held-out test pixels.
"""

from dataclasses import dataclass, field

import numpy as np

from .classify import (
    DEFAULT_KNN_K,
    LabelField,
    MetricsReport,
    check_classifier,
    evaluate,
    split,
    train_predict,
)
from .cube import HsiCube, normalize
from .solver import DlrrParams, solve
from .superpixel import project_base_image, refine, segment


@dataclass
class PipelineConfig:
    t_max: int = 3
    initial_superpixels: int = 50
    delta: float = 0.6
    m_split: int = 3
    dlrr: DlrrParams = field(default_factory=DlrrParams)
    classifier: str = "nearest-centroid"
    knn_k: int = DEFAULT_KNN_K
    split_percent: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.t_max < 1:
            raise ValueError("t_max must be at least 1")
        if self.initial_superpixels < 1:
            raise ValueError("initial_superpixels must be at least 1")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if self.m_split < 1:
            raise ValueError("m_split must be at least 1")
        if self.knn_k < 1:
            raise ValueError("knn_k must be at least 1")
        if not 0.0 < self.split_percent < 1.0:
            raise ValueError("split_percent must lie strictly between 0 and 1")
        check_classifier(self.classifier)


@dataclass
class PipelineResult:
    l_final: np.ndarray
    e_final: np.ndarray
    partitions: list
    final_predictions: LabelField
    metrics: MetricsReport
    traces: list
    converged: list


def run(cube, labels, config):
    """Run the full loop and score the final restoration.

    Returns a PipelineResult holding the restoration, the per-round
    refined partitions and solver traces, the final per-pixel predictions,
    and the metrics on the test pixels of split(labels,
    config.split_percent, config.seed).  A non-converged solve is recorded
    in `converged` and the loop continues.  A label raster whose shape is
    not the cube's raises ValueError before any work.
    """
    if labels.shape != (cube.height, cube.width):
        raise ValueError("label raster is %dx%d, cube is %dx%d" % (*labels.shape, cube.height, cube.width))
    cube = normalize(cube)
    tsplit = split(labels, config.split_percent, config.seed)
    working = cube
    partitions, traces, converged = [], [], []
    restored, variations = None, None
    for _ in range(config.t_max):
        base = project_base_image(working)
        part = segment(base, config.initial_superpixels)
        preds = train_predict(
            working.x, tsplit, labels, config.classifier, k=config.knn_k
        )
        # Training pixels keep their known labels when guiding refinement.
        guided = preds.labels.copy()
        guided[tsplit.train_mask] = labels.labels[tsplit.train_mask]
        part = refine(part, LabelField(guided), config.delta, config.m_split, base)
        restored, variations, trace, ok = solve(cube.x, part.labels, config.dlrr)
        working = HsiCube(cube.height, cube.width, restored)
        partitions.append(part)
        traces.append(trace)
        converged.append(ok)
    final_preds = train_predict(
        restored, tsplit, labels, config.classifier, k=config.knn_k
    )
    metrics = evaluate(final_preds, labels, tsplit.test_mask)
    return PipelineResult(
        l_final=restored,
        e_final=variations,
        partitions=partitions,
        final_predictions=final_preds,
        metrics=metrics,
        traces=traces,
        converged=converged,
    )

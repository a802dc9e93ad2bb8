"""The outer restoration/classification loop: config.t_max rounds of
run_round, then the last restoration classified and scored on the
held-out test pixels."""

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
from .errors import DegenerateInput, check_options, same_shape
from .solver import DlrrParams, SolveTrace, solve
from .superpixel import SuperpixelPartition, project_base_image, refine, segment


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
        check_options(**vars(self))
        check_classifier(self.classifier)


@dataclass
class Round:
    """One round's record: `segment`'s partition, the predictions that
    guided its refinement (round 1's are the raw-pixel baseline), the
    refined partition the solve used, its trace and status; none cube-sized."""

    initial: SuperpixelPartition
    guidance: LabelField
    partition: SuperpixelPartition
    trace: SolveTrace
    converged: bool


@dataclass
class PipelineResult:
    l_final: np.ndarray
    e_final: np.ndarray
    rounds: list
    final_predictions: LabelField
    metrics: MetricsReport

    @property
    def converged(self):
        return [r.converged for r in self.rounds]


def run_round(cube, working, labels, tsplit, config):
    """One round: segment `working` (the normalized `cube` in round 1, the
    last restoration after), refine the segmentation with the classifier's
    predictions on `working`, and decompose the ORIGINAL normalized `cube`
    over the refined superpixel blocks.  Returns (Round, L, E)."""
    base = project_base_image(working)
    initial = segment(base, config.initial_superpixels)
    guidance = train_predict(working.x, tsplit, labels, config.classifier, k=config.knn_k)
    # Training pixels keep their known labels when guiding refinement.
    guided = np.where(tsplit.train_mask, labels.labels, guidance.labels)
    part = refine(initial, LabelField(guided), config.delta, config.m_split, base)
    restored, variations, trace, ok = solve(cube.x, part.labels, config.dlrr)
    return Round(initial, guidance, part, trace, ok), restored, variations


def run(cube, labels, config):
    """Run config.t_max rounds of run_round and score the final restoration.

    Returns a PipelineResult holding the restoration, one Round per round,
    the final per-pixel predictions, and the metrics on the test pixels of
    split(labels, config.split_percent, config.seed).  A non-converged
    solve is recorded in its Round (`converged` lists them) and the loop
    continues.  A label raster whose shape is not the cube's raises
    ValueError before any work, and a split that leaves no test pixel
    raises DegenerateInput before the first round.
    """
    same_shape(labels=labels.shape, cube=(cube.height, cube.width))
    cube = normalize(cube)
    tsplit = split(labels, config.split_percent, config.seed)
    if not tsplit.test_mask.any():
        raise DegenerateInput(f"the split at percent {config.split_percent} leaves no test pixel: "
                              "every labeled pixel is a training pixel")
    working, rounds = cube, []
    for _ in range(config.t_max):
        record, restored, variations = run_round(cube, working, labels, tsplit, config)
        working = HsiCube(cube.height, cube.width, restored)
        rounds.append(record)
    final_preds = train_predict(restored, tsplit, labels, config.classifier, k=config.knn_k)
    metrics = evaluate(final_preds, labels, tsplit.test_mask)
    return PipelineResult(restored, variations, rounds, final_preds, metrics)

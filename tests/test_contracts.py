"""Each public entry point rejects an array argument of the wrong ndim,
dtype or shape with an error that names the argument or its role, and
never returns.  The per-block kernels (svt, nuclear_subgradient,
soft_threshold, max_norm) are left out: their callers pass checked arrays."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spdlrr import (
    DlrrParams,
    HsiCube,
    LabelField,
    PipelineConfig,
    SpdlrrError,
    SuperpixelPartition,
    TrainSplit,
    evaluate,
    metrics_from_confusion,
    refine,
    run,
    segment,
    solve,
    train_predict,
)

# Each wrong form of an array a.  "row short" drops a's last row and
# "column short" its last column, for an argument whose shape must agree
# with another's; "integers" is a mask of 2s.
WRONG = {
    "0-d": lambda a: np.asarray(a.ravel()[0]),
    "1-D": lambda a: a.ravel(),
    "3-D": lambda a: a[None],
    "fractions": lambda a: a + 0.5,
    "bool": lambda a: a != 0,
    "integers": lambda a: 2 * (a != 0).astype(np.int64),
    "row short": lambda a: a[:-1],
    "column short": lambda a: a[:, :-1],
}
RASTER = ("0-d", "1-D", "3-D", "fractions", "bool")
MASK = ("0-d", "1-D", "3-D", "fractions", "integers")
MATRIX = ("0-d", "1-D", "3-D")


def scene(h, w, seed):
    """A valid h x w, 3-band scene: labels of classes 1 and 2, four
    superpixel quadrants, features, a base image and a train/test split."""
    rng = np.random.default_rng(seed)
    rows, cols = np.indices((h, w))
    labels = 1 + (rows + cols) % 2
    train = np.zeros((h, w), bool)
    train[0, :2] = True  # one pixel of each class
    return {
        "labels": labels,
        "ids": 2 * (rows >= h // 2) + (cols >= w // 2),
        "x": rng.random((3, h * w)),
        "base": rng.random((h, w)),
        "train": train,
        "test": ~train,
        "confusion": np.array([[3.0, 1.0], [0.0, 2.0]]),
    }


def _split(s, train):
    """A split with this train mask: its test mask is the scene's, or the
    train mask itself where their shapes differ."""
    return TrainSplit(train, s["test"] if train.shape == s["test"].shape else train, 0, 0.5)


# (entry point, argument, the scene array it is made from, its wrong forms,
# a regex for the argument or its role, call(scene, bad)).
CASES = [
    ("LabelField", "labels", "labels", RASTER, "labels", lambda s, a: LabelField(a)),
    ("SuperpixelPartition", "labels", "ids", RASTER, "superpixel ids", lambda s, a: SuperpixelPartition(a)),
    ("TrainSplit", "train_mask", "train", MASK, "train mask", lambda s, a: TrainSplit(a, s["test"], 0, 0.5)),
    ("TrainSplit", "test_mask", "test", (*MASK, "row short"), "test mask",
     lambda s, a: TrainSplit(s["train"], a, 0, 0.5)),
    ("HsiCube", "x", "x", (*MATRIX, "column short"), "pixel matrix",
     lambda s, a: HsiCube(*s["labels"].shape, a)),
    ("evaluate", "mask", "test", (*MASK, "row short"), "mask",
     lambda s, a: evaluate(LabelField(s["labels"]), LabelField(s["labels"]), a)),
    ("evaluate", "predictions", "labels", ("row short", "column short"), "predictions",
     lambda s, a: evaluate(LabelField(a), LabelField(s["labels"]), s["test"])),
    ("metrics_from_confusion", "confusion", "confusion", (*MATRIX, "row short"), "confusion",
     lambda s, a: metrics_from_confusion(a)),
    ("train_predict", "features", "x", (*MATRIX, "column short"), "features",
     lambda s, a: train_predict(a, _split(s, s["train"]), LabelField(s["labels"]))),
    ("train_predict", "tsplit", "train", ("row short", "column short"), "train.mask",
     lambda s, a: train_predict(s["x"], _split(s, a), LabelField(s["labels"]))),
    ("train_predict", "labels", "labels", ("row short", "column short"), "labels",
     lambda s, a: train_predict(s["x"], _split(s, s["train"]), LabelField(a))),
    ("segment", "base", "base", MATRIX, "base image", lambda s, a: segment(a, 2)),
    ("refine", "base", "base", (*MATRIX, "row short"), "base",
     lambda s, a: refine(SuperpixelPartition(s["ids"]), LabelField(s["labels"]), 0.9, 2, a)),
    ("refine", "predictions", "labels", ("row short", "column short"), "predictions",
     lambda s, a: refine(SuperpixelPartition(s["ids"]), LabelField(a), 0.9, 2, s["base"])),
    ("refine", "partition", "ids", ("row short", "column short"), "partition",
     lambda s, a: refine(SuperpixelPartition(a), LabelField(s["labels"]), 0.9, 2, s["base"])),
    ("solve", "x", "x", (*MATRIX, "column short"), r"\bx\b",
     lambda s, a: solve(a, s["ids"], DlrrParams(max_iter=1))),
    ("solve", "labels", "ids", ("0-d", "fractions", "bool", "row short"), "block id|superpixel ids",
     lambda s, a: solve(s["x"], a, DlrrParams(max_iter=1))),
    ("run", "labels", "labels", ("row short", "column short"), "labels",
     lambda s, a: run(HsiCube(*s["labels"].shape, s["x"]), LabelField(a), PipelineConfig(t_max=1))),
]
DRAWS = [(case, form) for case in CASES for form in case[3]]


class TestArrayContracts:
    # About four draws of each (case, wrong form) pair, at scene sizes 3 to 6.
    @settings(max_examples=4 * len(DRAWS), deadline=None)
    @given(draw=st.sampled_from(DRAWS), h=st.integers(3, 6), w=st.integers(3, 6), seed=st.integers(0, 99))
    def test_a_wrong_array_is_rejected_by_name(self, draw, h, w, seed):
        (entry, argument, source, _, role, call), form = draw
        s = scene(h, w, seed)
        bad = WRONG[form](s[source])
        with pytest.raises((ValueError, SpdlrrError)) as exc:
            call(s, bad)
        assert re.search(role, str(exc.value)), f"{entry}({argument}={form}): {exc.value}"


@pytest.mark.parametrize("build, name", [(LabelField, "labels"), (SuperpixelPartition, "superpixel ids")])
def test_a_uint64_id_past_the_int64_range_does_not_wrap(build, name):
    # A sign test before the int64 cast would pass these ids, and the cast
    # would then wrap them to negative ones (2**64 - 1 to -1).
    for big in (2**63, 2**64 - 1):
        with pytest.raises(ValueError, match=rf"^{name} must be non-negative and below 2\*\*63: out of range$"):
            build(np.array([[0, big]], dtype=np.uint64))

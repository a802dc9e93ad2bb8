"""Pixel classifiers and classification accuracy metrics.

A classifier is named by its CLASSIFIERS key: a nearest-centroid rule or a
k-nearest-neighbour vote.  Training uses the split's training pixels;
predictions are produced for every pixel, labeled or not.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, boolean_mask, check_options, finite_matrix, integer_raster, same_shape
from .linalg import _each_chunk

DEFAULT_KNN_K = 5
# Rows per chunk of the chunk pool (linalg._each_chunk).  A chunk's
# largest temporary is its rows x training pixels of float64: 1.7 MB for
# kNN at Pavia extent (212 training pixels).  glibc keeps about twice the
# largest freed temporary in each pool thread's malloc arena after the
# call, so a small chunk keeps that memory small.
_PREDICT_CHUNK = 1024


@dataclass
class LabelField:
    """Per-pixel integer class ids on the 2-D image grid: 0 = unlabeled, classes 1..C."""

    labels: np.ndarray

    def __post_init__(self):
        self.labels = integer_raster("labels", self.labels)

    @property
    def shape(self):
        return self.labels.shape

    @property
    def n_classes(self):
        return int(self.labels.max())


@dataclass
class TrainSplit:
    """Per-pixel training and test masks over the labeled pixels: two 2-D
    boolean rasters of one shape, checked when built.  `split` makes them
    disjoint."""

    train_mask: np.ndarray
    test_mask: np.ndarray
    seed: int
    percent: float

    def __post_init__(self):
        self.train_mask = boolean_mask("train mask", self.train_mask)
        self.test_mask = boolean_mask("test mask", self.test_mask, self.train_mask.shape)


def split(labels, percent, seed):
    """Draw max(1, ceil(percent * n_c)) training pixels per class, uniformly
    without replacement; the remaining labeled pixels become test pixels."""
    check_options(split_percent=percent, seed=seed)
    flat = labels.labels.ravel()
    n_classes = labels.n_classes
    if n_classes < 2:
        raise DegenerateInput("need at least two classes to split")
    rng = np.random.default_rng(seed)
    train = np.zeros(flat.size, dtype=bool)
    for c in range(1, n_classes + 1):
        idx = np.flatnonzero(flat == c)
        if idx.size == 0:
            raise DegenerateInput(f"class {c} has no labeled pixels")
        # The 1e-9 slack keeps exact products (e.g. 5% of 20) from being
        # pushed over the next integer by float rounding; percent < 1 keeps
        # n_train <= idx.size.
        n_train = max(1, math.ceil(percent * idx.size - 1e-9))
        train[rng.choice(idx, size=n_train, replace=False)] = True
    test = (flat > 0) & ~train
    shape = labels.shape
    return TrainSplit(train.reshape(shape), test.reshape(shape), seed, percent)


def _sq_distances(rows, ref):
    """sum(r**2) - 2 r.f + sum(f**2) for every row r and ref row f: that
    expression's steps in its order (so to the bit), but in place."""
    tmp = np.square(rows)
    sq_rows = tmp.sum(axis=1)[:, None]
    d2 = np.multiply(rows, 2.0, out=tmp) @ ref.T
    return np.add(np.subtract(sq_rows, d2, out=d2), np.sum(ref**2, axis=1), out=d2)


def _nearest_centroid(train_x, train_y, k):
    classes = np.unique(train_y)
    centroids = np.stack([train_x[train_y == c].mean(axis=0) for c in classes])
    return lambda rows: classes[np.argmin(_sq_distances(rows, centroids), axis=1)]


def _knn(train_x, train_y, k):
    check_options(knn_k=k)
    k = min(k, train_x.shape[0])
    n_classes = int(train_y.max())

    def rule(rows):
        n = rows.shape[0]
        d2 = _sq_distances(rows, train_x)
        # The k nearest are those within the k-th smallest distance, unless
        # a tie straddles it; there a stable sort takes equidistant
        # neighbours by training index.
        near = d2 <= np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
        tied = np.flatnonzero(np.count_nonzero(near, axis=1) != k)
        near[tied] = False
        near[tied[:, None], np.argsort(d2[tied], axis=1, kind="stable")[:, :k]] = True
        nn = np.flatnonzero(near).reshape(n, k) % near.shape[1]  # k per row
        cells = np.arange(n)[:, None] * (n_classes + 1) + train_y[nn]
        votes = np.bincount(cells.ravel(), minlength=n * (n_classes + 1))
        # argmax returns the first maximum, i.e. the smallest class id on ties.
        votes = votes.reshape(n, n_classes + 1)[:, 1:]
        return np.argmax(votes, axis=1) + 1

    return rule


def _predict(rule, all_x):
    """rule's labels for the rows of all_x, by _PREDICT_CHUNK-row chunks."""
    return np.concatenate(_each_chunk(all_x.shape[0], _PREDICT_CHUNK, lambda s: rule(all_x[s])))


# The built-in classifiers by name, as (train_x, train_y, k) -> a rule, the
# function rows -> labels that the training pixels define.
CLASSIFIERS = {"nearest-centroid": _nearest_centroid, "knn": _knn}


def check_classifier(kind):
    """Raise ValueError unless kind is a CLASSIFIERS name."""
    if kind not in CLASSIFIERS:
        raise ValueError(f"unknown classifier kind {kind!r}")


def train_predict(features, tsplit, labels, kind="nearest-centroid", k=DEFAULT_KNN_K):
    """Train on the split's training pixels and predict a class for every
    pixel.  A train mask not of the label raster's shape raises ValueError.

    `features` is the bands x pixels matrix, finite (else NonFiniteData);
    `kind` is a CLASSIFIERS name, "nearest-centroid" or "knn".
    """
    check_classifier(kind)
    same_shape(train_mask=tsplit.train_mask.shape, labels=labels.shape)
    all_x = finite_matrix("features", np.asarray(features, dtype=np.float64)).T
    flat = labels.labels.ravel()
    if all_x.shape[0] != flat.size:
        raise ValueError(f"features have {all_x.shape[0]} columns, the label raster {flat.size} pixels")
    train_idx = np.flatnonzero(tsplit.train_mask.ravel())
    train_y = flat[train_idx]
    if train_y.size == 0:
        raise DegenerateInput("empty training mask")
    for c in range(1, labels.n_classes + 1):
        if not (train_y == c).any():
            raise DegenerateInput(f"class {c} has no training pixels")
    pred = _predict(CLASSIFIERS[kind](all_x[train_idx], train_y, k), all_x)
    return LabelField(pred.reshape(labels.shape))


@dataclass
class MetricsReport:
    """Confusion counts (rows = truth, cols = predicted, classes 1..C) with
    the derived accuracy summaries."""

    confusion: np.ndarray
    per_class: np.ndarray
    oa: float
    aa: float
    kappa: float

    def to_json_dict(self):
        return {
            "oa": self.oa,
            "aa": self.aa,
            "kappa": self.kappa,
            "per_class": [None if math.isnan(v) else v for v in self.per_class],
            "confusion": self.confusion.astype(int).tolist(),
        }


def metrics_from_confusion(confusion):
    """Overall/average accuracy and Cohen's kappa from a confusion matrix.

    Classes with no truth pixels get NaN per-class accuracy and are skipped
    by the average.  The degenerate chance-agreement case p_e = 1 maps to
    kappa = 1 for perfect agreement and 0 otherwise.  Anything but a square
    matrix of finite, non-negative counts raises ValueError.
    """
    confusion = finite_matrix("confusion", np.asarray(confusion, dtype=np.float64))
    if confusion.shape[0] != confusion.shape[1] or confusion.min() < 0:
        raise ValueError("confusion must be a square matrix of non-negative counts, "
                         f"not {confusion.shape} with minimum {confusion.min()}")
    total = confusion.sum()
    if total <= 0:
        raise DegenerateInput("empty confusion matrix")
    row = confusion.sum(axis=1)
    col = confusion.sum(axis=0)
    diag = np.diag(confusion)
    with np.errstate(invalid="ignore", divide="ignore"):
        per_class = np.where(row > 0, diag / np.where(row > 0, row, 1), np.nan)
    oa = float(diag.sum() / total)
    aa = float(np.nanmean(per_class))
    p_e = float(row @ col) / (total * total)
    if p_e == 1.0:
        kappa = 1.0 if oa == 1.0 else 0.0
    else:
        kappa = (oa - p_e) / (1.0 - p_e)
    return MetricsReport(confusion, per_class, oa, aa, float(kappa))


def evaluate(predictions, truth, mask):
    """Score predictions against ground truth over the pixels of mask, a
    boolean raster of their shape."""
    mask = boolean_mask("mask", mask)
    same_shape(predictions=predictions.shape, truth=truth.shape, mask=mask.shape)
    t = truth.labels[mask]
    p = predictions.labels[mask]
    if t.size == 0:
        raise DegenerateInput("empty evaluation mask")
    if (t < 1).any():
        raise DegenerateInput("evaluation mask includes unlabeled pixels")
    if (p < 1).any():
        raise DegenerateInput("predictions must be classes >= 1 on the mask")
    n_classes = int(max(t.max(), p.max()))
    confusion = np.bincount(
        (t - 1) * n_classes + (p - 1), minlength=n_classes * n_classes
    ).reshape(n_classes, n_classes)
    return metrics_from_confusion(confusion)

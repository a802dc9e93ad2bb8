"""Pixel classifiers and classification accuracy metrics.

Classifiers are pluggable: the built-ins are a nearest-centroid rule and a
k-nearest-neighbour vote, and any callable (train_x, train_y, all_x) ->
predicted labels can be passed in their place.  Training uses the split's
training pixels; predictions are produced for every pixel, labeled or not.
"""

import math
import mmap
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput

DEFAULT_KNN_K = 5
_PREDICT_CHUNK = 4096
# Threads that classify row chunks: the caller and a pool of the rest, one
# per CPU this process may run on (macOS has no sched_getaffinity), but at
# most two, the one size that was timed.  CPU quotas are not read.
if hasattr(os, "sched_getaffinity"):
    _WORKERS = min(len(os.sched_getaffinity(0)), 2)
else:
    _WORKERS = min(os.cpu_count() or 1, 2)


@dataclass
class LabelField:
    """Per-pixel class ids on the image grid: 0 = unlabeled, classes 1..C."""

    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 2:
            raise ValueError("labels must be a 2-d raster")
        if (self.labels < 0).any():
            raise ValueError("labels must be non-negative")

    @property
    def shape(self):
        return self.labels.shape

    @property
    def n_classes(self):
        return int(self.labels.max())


@dataclass
class TrainSplit:
    """Disjoint per-pixel training and test masks over the labeled pixels."""

    train_mask: np.ndarray
    test_mask: np.ndarray
    seed: int
    percent: float


def split(labels, percent, seed):
    """Draw max(1, ceil(percent * n_c)) training pixels per class, uniformly
    without replacement; the remaining labeled pixels become test pixels."""
    if not 0.0 < percent < 1.0:
        raise DegenerateInput("percent must lie strictly between 0 and 1")
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


def _fresh(buf, shape, order="C"):
    """The first prod(shape) elements of the 1-d array buf, laid out as
    np.empty(shape, order=order) would lay them out."""
    return buf[: math.prod(shape)].reshape(shape, order=order)


def _sq_distances(rows, ref, tmp=None, out=None):
    """sum(r**2) - 2 r.f + sum(f**2) for every row r and ref row f: that
    expression's steps in its order (so to the bit), but in place.

    tmp and out, 1-d float64 arrays of at least rows.size and
    len(rows) * len(ref) elements, hold the temporary and the result if
    given, laid out as numpy lays out fresh ones."""
    if tmp is not None:  # np.square allocates in rows' axis order
        tmp = _fresh(tmp, rows.shape, "F" if abs(rows.strides[0]) < abs(rows.strides[1]) else "C")
    if out is not None:
        out = _fresh(out, (rows.shape[0], ref.shape[0]))
    tmp = np.square(rows, out=tmp)
    sq_rows = tmp.sum(axis=1)[:, None]
    d2 = np.matmul(np.multiply(rows, 2.0, out=tmp), ref.T, out=out)
    return np.add(np.subtract(sq_rows, d2, out=d2), np.sum(ref**2, axis=1), out=d2)


def _scratch(size):
    """A float64 array of size elements in an anonymous memory map of its
    own, which goes back to the OS when the array is freed.  Memory that a
    pool thread takes from malloc instead stays in that thread's glibc
    arena, up to its trim threshold (17.6 MB at Pavia extent), after the
    call has ended.  Like numpy's own large arrays, the map asks for
    transparent huge pages where the OS has them."""
    buf = mmap.mmap(-1, 8 * max(1, size))
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype=np.float64)


def _each_chunk(n_rows, widths, fn):
    """Call fn(start, scratch) once for the first row of every
    _PREDICT_CHUNK-row chunk of n_rows rows; fn must write only its own
    chunk's rows.  scratch is one 1-d float64 array of a chunk's rows times
    w elements for each w in widths, for fn's temporaries: from np.empty on
    the caller, from _scratch on pool threads.

    Up to _WORKERS threads, the caller and a pool that lives only for this
    call (so no thread is left for os.fork to strand in a child process),
    take every n-th chunk each.  Results do not depend on which thread ran
    a chunk: the chunks and each chunk's arithmetic are those of a serial
    loop, and numpy releases the GIL in the matmul, partition and sorts
    that dominate."""
    starts = range(0, n_rows, _PREDICT_CHUNK)
    n = max(1, min(_WORKERS, len(starts)))
    rows = min(n_rows, _PREDICT_CHUNK)

    def run(i):
        alloc = _scratch if i else np.empty  # the caller's malloc is reused
        scratch = [alloc(rows * w) for w in widths]
        for start in starts[i::n]:
            fn(start, scratch)

    if n == 1:
        run(0)
        return
    with ThreadPoolExecutor(n - 1) as pool:
        futures = [pool.submit(run, i) for i in range(1, n)]
        run(0)
    for future in futures:
        future.result()


def _nearest_centroid(train_x, train_y, all_x):
    classes = np.unique(train_y)
    centroids = np.stack([train_x[train_y == c].mean(axis=0) for c in classes])
    pred = np.empty(all_x.shape[0], dtype=np.int64)

    def chunk(start, scratch):
        rows = all_x[start : start + _PREDICT_CHUNK]
        d2 = _sq_distances(rows, centroids, *scratch)
        pred[start : start + rows.shape[0]] = classes[np.argmin(d2, axis=1)]

    _each_chunk(all_x.shape[0], (all_x.shape[1], len(classes)), chunk)
    return pred


def _knn(train_x, train_y, all_x, k):
    if k < 1:
        raise DegenerateInput("knn_k must be at least 1")
    k = min(k, train_x.shape[0])
    n_classes = int(train_y.max())
    pred = np.empty(all_x.shape[0], dtype=np.int64)

    def chunk(start, scratch):
        rows = all_x[start : start + _PREDICT_CHUNK]
        n = rows.shape[0]
        d2 = _sq_distances(rows, train_x, scratch[0], scratch[1])
        # np.partition(d2, k - 1, axis=1), in the buffer of the temporary
        # that _sq_distances is done with.
        kth = _fresh(scratch[0], d2.shape)
        np.copyto(kth, d2)
        kth.partition(k - 1, axis=1)
        # The k nearest are those within the k-th smallest distance, unless
        # a tie straddles it; there a stable sort takes equidistant
        # neighbours by training index.
        near = d2 <= kth[:, k - 1 : k]
        tied = np.flatnonzero(np.count_nonzero(near, axis=1) != k)
        near[tied] = False
        near[tied[:, None], np.argsort(d2[tied], axis=1, kind="stable")[:, :k]] = True
        nn = np.flatnonzero(near).reshape(n, k) % near.shape[1]  # k per row
        cells = np.arange(n)[:, None] * (n_classes + 1) + train_y[nn]
        votes = np.bincount(cells.ravel(), minlength=n * (n_classes + 1))
        # argmax returns the first maximum, i.e. the smallest class id on ties.
        votes = votes.reshape(n, n_classes + 1)[:, 1:]
        pred[start : start + n] = np.argmax(votes, axis=1) + 1

    n_train = train_x.shape[0]
    _each_chunk(all_x.shape[0], (max(all_x.shape[1], n_train), n_train), chunk)
    return pred


# The built-in classifiers by name, as (train_x, train_y, all_x, k) -> labels.
CLASSIFIERS = {"nearest-centroid": lambda x, y, a, k: _nearest_centroid(x, y, a), "knn": _knn}


def check_classifier(kind):
    """Raise ValueError unless kind is a callable or a CLASSIFIERS name."""
    if not callable(kind) and kind not in CLASSIFIERS:
        raise ValueError(f"unknown classifier kind {kind!r}")


def train_predict(features, tsplit, labels, kind="nearest-centroid", k=DEFAULT_KNN_K):
    """Train on the split's training pixels and predict a class for every
    pixel.

    `features` is the bands x pixels matrix; `kind` names a built-in
    (CLASSIFIERS: "nearest-centroid" or "knn") or is a callable
    (train_x, train_y, all_x) -> labels operating on pixels-as-rows.
    """
    check_classifier(kind)
    all_x = np.asarray(features, dtype=np.float64).T
    flat = labels.labels.ravel()
    train_idx = np.flatnonzero(tsplit.train_mask.ravel())
    train_y = flat[train_idx]
    if train_y.size == 0:
        raise DegenerateInput("empty training mask")
    for c in range(1, labels.n_classes + 1):
        if not (train_y == c).any():
            raise DegenerateInput(f"class {c} has no training pixels")
    train_x = all_x[train_idx]
    if callable(kind):
        pred = np.asarray(kind(train_x, train_y, all_x), dtype=np.int64)
    else:
        pred = CLASSIFIERS[kind](train_x, train_y, all_x, k)
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
    kappa = 1 for perfect agreement and 0 otherwise.
    """
    confusion = np.asarray(confusion, dtype=np.float64)
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
    """Score predictions against ground truth over the masked pixels."""
    mask = np.asarray(mask, dtype=bool)
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

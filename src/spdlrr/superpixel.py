"""Superpixel segmentation and classification-guided refinement.

Segmentation is a SLIC-style k-means over (value, row, col) on a scalar
base image, followed by 4-connectivity enforcement.  Refinement splits
"noisy" superpixels — those whose dominant predicted class covers less than
a threshold fraction of their pixels — by re-segmenting the smallest
enclosing square around them, restricted to the superpixel's own pixels.

Everything here is deterministic: no random numbers are drawn.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import DegenerateInput, check_options, finite_matrix, integer_raster, same_shape
from .linalg import _each_chunk, _each_column_chunk

COMPACTNESS = 0.1
KMEANS_SWEEPS = 10
# Rows per band of a k-means assignment step.  Every band walks all the
# centers, and at Pavia extent (610 rows, 50 superpixels) a search window
# is 259 rows high, so it spans several narrow bands: on 2 threads segment
# took 0.34-0.35 s with two bands of 320 rows, 0.40-0.41 s with bands of
# 160 or 205 rows.
_BAND_ROWS = 320

_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


@dataclass
class SuperpixelPartition:
    """Per-pixel superpixel ids, a 2-D integer raster of 0..count-1: checked when built."""

    labels: np.ndarray

    def __post_init__(self):
        self.labels = integer_raster("superpixel ids", self.labels)
        if not np.bincount(self.labels.ravel()).all():
            raise ValueError("superpixel ids must be contiguous and non-empty")

    @property
    def count(self):
        """One more than the largest id: the number of superpixels."""
        return int(self.labels.max()) + 1

    def validate(self):
        """Check that each superpixel is 4-connected: nothing to cut."""
        cut = _cut_fragments(self.labels)[0][1:-1, 1:-1] < 0
        if cut.any():
            raise ValueError(f"superpixel {self.labels[cut].min()} is not 4-connected")


def project_base_image(cube):
    """Leading principal component of the pixel spectra, min-max scaled to
    [0, 1] on the image grid.

    The component's sign is fixed so that its largest-magnitude band loading
    is positive.  Degenerate (constant) cubes map to an all-0.5 image.

    The mean, covariance and scores come from column chunks widened to
    float64 one at a time, so no cube-sized copy is made; the chunks' sums
    and covariances are added in chunk order.  On one chunk this is the
    one-expression formula on the widened cube, to the bit.
    """
    x = cube.x
    n = x.shape[1]

    # Not x[:, s].sum(dtype=np.float64): a float32 row is summed by the
    # 8,192 values of numpy's cast buffer, not pairwise as the widened row.
    def chunk_sum(s):
        return np.asarray(x[:, s], dtype=np.float64).sum(axis=1, keepdims=True)

    def centered(s):
        return x[:, s] - mean  # float64, as mean is

    def covariance(s):
        c = centered(s)
        return c @ c.T

    mean = functools.reduce(np.add, _each_column_chunk(x, chunk_sum)) / n
    _, vecs = np.linalg.eigh(functools.reduce(np.add, _each_column_chunk(x, covariance)) / n)
    u = vecs[:, -1]
    if u[np.argmax(np.abs(u))] < 0:
        u = -u
    scores = np.concatenate(_each_column_chunk(x, lambda s: u @ centered(s)))
    span = scores.max() - scores.min()
    if span == 0.0:
        return np.full((cube.height, cube.width), 0.5)
    return ((scores - scores.min()) / span).reshape(cube.height, cube.width)


def _grid_shape(h, w, target):
    """Rows x cols of seed centers whose product is as close to target as
    possible, preferring cells that match the window's aspect ratio."""
    best = None
    ideal_rows = math.sqrt(target * h / w)
    for rows in range(1, min(h, target) + 1):
        cols = min(w, max(1, round(target / rows)))
        key = (abs(rows * cols - target), abs(rows - ideal_rows), rows)
        if best is None or key < best[0]:
            best = (key, rows, cols)
    return best[1], best[2]


def _init_centers(values, rows, cols):
    h, w = values.shape
    r = (np.arange(rows) + 0.5) * (h / rows) - 0.5
    c = (np.arange(cols) + 0.5) * (w / cols) - 0.5
    rr, cc = np.meshgrid(r, c, indexing="ij")
    rr = rr.ravel()
    cc = cc.ravel()
    ri = np.clip(np.round(rr).astype(int), 0, h - 1)
    ci = np.clip(np.round(cc).astype(int), 0, w - 1)
    return np.stack([values[ri, ci], rr, cc], axis=1)


def _kmeans_sweeps(values, mask, centers, step):
    """Windowed k-means assignments in (value, row, col) space.

    Distances are d_value^2 + COMPACTNESS^2 * d_spatial^2 / step^2; each
    center only competes for pixels within twice its grid step, as in SLIC.
    Each sweep assigns _BAND_ROWS-row bands of pixels apart; a band takes
    the centers in id order, so a pixel goes to the first of its nearest
    centers whichever band and thread it is in.  Returns labels (-1
    outside mask).
    """
    h, w = values.shape
    half = max(1, int(math.ceil(2.0 * step)))
    comp2 = (COMPACTNESS / step) ** 2
    labels = np.empty((h, w), dtype=np.int64)
    dist = np.empty((h, w))
    # The masked pixels' values and coordinates, for _recenter.
    rs, cs = np.nonzero(mask)
    pixels = (values[mask], rs.astype(np.float64), cs.astype(np.float64))

    def band(s):
        dist[s].fill(np.inf)
        labels[s].fill(-1)
        for k in range(centers.shape[0]):
            vk, rk, ck = centers[k]
            r0 = max(s.start, int(rk) - half)
            r1 = min(s.stop, int(rk) + half + 1)
            if r0 >= r1:
                continue
            c0 = max(0, int(ck) - half)
            c1 = min(w, int(ck) + half + 1)
            rr = np.arange(r0, r1, dtype=np.float64)[:, None]
            cc = np.arange(c0, c1, dtype=np.float64)[None, :]
            d2 = (values[r0:r1, c0:c1] - vk) ** 2 + comp2 * (
                (rr - rk) ** 2 + (cc - ck) ** 2
            )
            better = mask[r0:r1, c0:c1] & (d2 < dist[r0:r1, c0:c1])
            np.copyto(dist[r0:r1, c0:c1], d2, where=better)
            np.copyto(labels[r0:r1, c0:c1], k, where=better)

    for sweep in range(KMEANS_SWEEPS):
        if sweep:
            centers = _recenter(pixels, mask, labels, centers)
        _each_chunk(h, _BAND_ROWS, band)
        _assign_orphan_windows(values, mask, labels, centers, comp2)
    return labels


def _assign_orphan_windows(values, mask, labels, centers, comp2):
    """Pixels outside every search window (possible once centers drift) get
    the globally nearest center."""
    missing = mask & (labels < 0)
    if not missing.any():
        return
    rs, cs = np.nonzero(missing)
    v = values[rs, cs]
    d2 = (
        (v[:, None] - centers[None, :, 0]) ** 2
        + comp2 * (rs[:, None] - centers[None, :, 1]) ** 2
        + comp2 * (cs[:, None] - centers[None, :, 2]) ** 2
    )
    labels[rs, cs] = np.argmin(d2, axis=1)


def _recenter(pixels, mask, labels, centers):
    """Move each center that holds a masked pixel to its pixels' mean;
    pixels are the masked (values, rows, cols), rows and cols as floats."""
    flat = labels[mask]
    k = centers.shape[0]
    counts = np.bincount(flat, minlength=k).astype(np.float64)
    out = centers.copy()
    occupied = counts > 0
    for i, weights in enumerate(pixels):
        sums = np.bincount(flat, weights=weights, minlength=k)
        out[occupied, i] = sums[occupied] / counts[occupied]
    return out


def first_appearance_ids(values, keep_zero=False):
    """Map values to consecutive ids 0, 1, ... in order of first appearance
    in scan (row-major) order.  With keep_zero, 0 stays 0 and the other
    values become 1, 2, ...

    Returns (ids, mapping): ids has the shape of values, and mapping sends
    each distinct value (except 0 under keep_zero) to its id, in id order.
    """
    values = np.asarray(values)
    skip = int(keep_zero)  # a 0 put ahead of the values ranks first, with id 0
    flat = np.concatenate([np.zeros(skip, dtype=values.dtype), values.ravel()])
    uniq, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[order] = np.arange(uniq.size)
    mapping = dict(zip(uniq[order][skip:].tolist(), range(skip, uniq.size)))
    return rank[inverse[skip:]].reshape(values.shape), mapping


def _cut_fragments(labels):
    """labels (-1 outside any region) padded with -1, so neighbour reads need
    no bounds checks, and each id's 4-connected components but its largest
    (the first on a tie) cut to -1; and the cut ones, by their first pixel."""
    out = np.pad(labels, 1, constant_values=-1)
    fragments = []
    # Each id and fragment is handled inside its bounding box, where
    # row-major order is the global scan order.
    for sid, box in enumerate(ndimage.find_objects(out + 1)):
        comp = ndimage.label(out[box] == sid, structure=_FOUR_CONNECTED)[0]
        sizes = np.bincount(comp.ravel())[1:]
        main = int(np.argmax(sizes)) + 1
        for part, sub in enumerate(ndimage.find_objects(comp), 1):
            if part != main:
                rs, cs = np.nonzero(comp[sub] == part)
                pix = (rs + box[0].start + sub[0].start, cs + box[1].start + sub[1].start)
                fragments.append(pix)
                out[pix] = -1
    fragments.sort(key=lambda pix: (pix[0][0], pix[1][0]))
    return out, fragments


def _enforce_connectivity(labels):
    """Merge each component that _cut_fragments cuts, in turn, into its
    4-adjacent region of largest current size, the lowest id on a tie; a round
    in which none has a labeled neighbour makes the first a region of its own."""
    out, pending = _cut_fragments(labels)
    counts = {int(s): int(c) for s, c in zip(*np.unique(out[out >= 0], return_counts=True))}
    while pending:
        deferred = []
        for pix in pending:
            nr = np.concatenate((pix[0] - 1, pix[0] + 1, pix[0], pix[0]))
            nc = np.concatenate((pix[1], pix[1], pix[1] - 1, pix[1] + 1))
            vals = out[nr, nc]
            neigh = np.unique(vals[vals >= 0]).tolist()
            if not neigh:
                deferred.append(pix)
                continue
            target = max(neigh, key=lambda s: (counts[s], -s))
            out[pix] = target
            counts[target] += len(pix[0])
        if len(deferred) == len(pending):
            pix = deferred.pop(0)
            counts[max(counts) + 1] = len(pix[0])
            out[pix] = max(counts)
        pending = deferred
    return out[1:-1, 1:-1]


def _slic(values, mask, target):
    """SLIC-style superpixels over the masked pixels of a scalar image.

    Returns labels, -1 outside mask and contiguous ids 0..count-1 inside.
    Seed centers are laid on a grid over the full window and centers that
    attract no masked pixel are dropped.  target is at most the number of
    masked pixels (segment and refine ensure it).
    """
    h, w = values.shape
    rows, cols = _grid_shape(h, w, target)
    centers = _init_centers(values, rows, cols)
    step = math.sqrt(h * w / centers.shape[0])
    labels = _kmeans_sweeps(values, mask, centers, step)
    labels[mask] = first_appearance_ids(labels[mask])[0]
    labels = _enforce_connectivity(labels)
    labels[mask] = first_appearance_ids(labels[mask])[0]
    return labels


def segment(base, target_count, seed=0):
    """Segment a scalar [0, 1] image into roughly target_count superpixels.

    Deterministic for fixed inputs; the result satisfies the partition
    invariants and its size stays within [target_count / 2, 2 * target_count].
    seed is unused; it stays because bench/workloads.py passes it by position.
    """
    base = finite_matrix("base image", np.asarray(base, dtype=np.float64))
    h, w = base.shape
    check_options(initial_superpixels=target_count)
    if target_count > h * w:
        raise DegenerateInput("target_count exceeds the pixel count")
    return SuperpixelPartition(_slic(base, np.ones((h, w), dtype=bool), target_count))


def _enclosing_square(rs, cs, h, w):
    """Bounding box grown to a square, clipped at the image borders (so
    possibly rectangular at the edges)."""
    r0, r1 = int(rs.min()), int(rs.max())
    c0, c1 = int(cs.min()), int(cs.max())
    side = max(r1 - r0 + 1, c1 - c0 + 1)
    grow_r = side - (r1 - r0 + 1)
    grow_c = side - (c1 - c0 + 1)
    r0 -= grow_r // 2
    r1 += grow_r - grow_r // 2
    c0 -= grow_c // 2
    c1 += grow_c - grow_c // 2
    return max(0, r0), min(h - 1, r1), max(0, c0), min(w - 1, c1)


def refine(partition, predictions, delta, m_split, base, seed=0):
    """Split noisy superpixels using per-pixel class predictions.

    A superpixel is noisy when the fraction of its dominant predicted class
    is below delta; it is then re-segmented into (up to) m_split parts
    within its smallest enclosing square, using only its own pixels.  Noisy
    superpixels smaller than m_split fall apart into singletons.  Output ids
    are re-compacted; every output superpixel is a subset of one input
    superpixel.  seed is unused; it stays because bench/workloads.py passes
    it by position.
    """
    check_options(delta=delta, m_split=m_split)
    base = finite_matrix("base image", np.asarray(base, dtype=np.float64))
    preds = predictions.labels
    h, w = partition.labels.shape
    same_shape(partition=(h, w), predictions=preds.shape, base=base.shape)
    if (preds < 1).any():
        raise DegenerateInput("refine needs a predicted class for every pixel")
    n_classes = int(preds.max())
    out = np.full((h, w), -1, dtype=np.int64)
    next_id = 0
    for sid, box in enumerate(ndimage.find_objects(partition.labels + 1)):
        member = partition.labels[box] == sid
        hist = np.bincount(preds[box][member], minlength=n_classes + 1)[1:]
        if hist.max() / hist.sum() >= delta:
            out[box][member] = next_id
            next_id += 1
            continue
        rs, cs = np.nonzero(member)
        rs, cs = rs + box[0].start, cs + box[1].start
        if rs.size < m_split:
            out[rs, cs] = next_id + np.arange(rs.size)
            next_id += rs.size
            continue
        r0, r1, c0, c1 = _enclosing_square(rs, cs, h, w)
        window = np.s_[r0 : r1 + 1, c0 : c1 + 1]
        inside = partition.labels[window] == sid
        sub_labels = _slic(base[window], inside, m_split)
        out[window][inside] = sub_labels[inside] + next_id
        next_id += int(sub_labels.max()) + 1
    return SuperpixelPartition(out)

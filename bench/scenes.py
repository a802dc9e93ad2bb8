"""Planted hyperspectral scenes for the benchmark.

A scene is a Voronoi map of class regions ("fields"); each class owns a
low-rank spectral subspace spanned by a positive, smooth base spectrum and
a few smooth variation directions.  The observed cube adds Gaussian noise
and sparse +-spikes to the clean cube, which is kept as the restoration
oracle.  Everything is drawn from one seed, so a seed fixes the inputs.
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

SIZE_RATIO = 8.0  # largest / smallest class weight
RANK = 3  # per-class subspace dimension
ILLUMINATION = 0.1  # std of the pixel brightness around 1
VARIATION = 0.06  # std of the variation coefficients
SPIKE = 0.3  # spike amplitude, relative to the clean cube's max


@dataclass(frozen=True)
class SceneSpec:
    height: int
    width: int
    bands: int
    n_classes: int
    cells_per_class: float = 1.0  # Voronoi cells per class, on average
    min_class_pixels: int = 12
    smoothness: float = 4.0  # correlation length, in pixels, of brightness and variation
    noise: float = 0.03  # Gaussian noise std, relative to the cube's max
    spike_frac: float = 0.02
    labeled_frac: float = 1.0  # share of each field near its centre that is labeled
    town_area: float = 0.0  # share of the image taken by a dense district
    town_sites: float = 0.0  # share of the cells whose sites lie in that district
    library: int = 0  # seed of the class spectra, fixed per workload
    # Rectangular fields instead of Voronoi cells: row heights and column
    # widths, shuffled by the seed, one class per field.
    field_rows: tuple = ()
    field_cols: tuple = ()


@dataclass
class Scene:
    x: np.ndarray  # bands x pixels, noisy
    clean: np.ndarray  # bands x pixels, planted low-rank part
    classes: np.ndarray  # height x width, 1..C everywhere
    labels: np.ndarray  # height x width, 0 = unlabeled, else the class


def _field_map(spec, rng):
    """A grid of rectangular fields: the row and column sizes are shuffled
    and the classes dealt to the fields, so every seed has the same field
    sizes in other places."""
    heights = rng.permutation(spec.field_rows)
    widths = rng.permutation(spec.field_cols)
    rows = np.repeat(np.arange(heights.size), heights)
    cols = np.repeat(np.arange(widths.size), widths)
    owner = rng.permutation(heights.size * widths.size) % spec.n_classes
    cell = (rows[:, None] * widths.size + cols[None, :]).ravel()
    return owner[cell].reshape(spec.height, spec.width) + 1, cell, np.zeros(cell.size)


def _class_map(spec, rng):
    """Voronoi cells assigned to classes with unequal weights; redraws the
    sites until every class covers at least min_class_pixels.

    The cells of the dense district (an urban block) are small and take
    their class uniformly, so superpixels there mix many classes."""
    h, w, c = spec.height, spec.width, spec.n_classes
    n_cells = max(c, int(round(c * spec.cells_per_class)))
    n_town = min(int(round(spec.town_sites * n_cells)), n_cells - c)
    n_open = n_cells - n_town
    side = np.sqrt(spec.town_area) * np.array([h, w], dtype=np.float64)
    rr, cc = np.mgrid[0:h, 0:w]
    pixels = np.column_stack([rr.ravel(), cc.ravel()]).astype(np.float64)
    weights = np.geomspace(1.0, SIZE_RATIO, c)
    weights = rng.permutation(weights / weights.sum())
    for _ in range(1000):
        corner = rng.uniform([0.0, 0.0], [h, w] - side)
        sites = np.concatenate(
            [
                rng.uniform([0.0, 0.0], [h, w], size=(n_open, 2)),
                corner + rng.uniform([0.0, 0.0], side, size=(n_town, 2)),
            ]
        )
        owner = np.concatenate(
            [
                rng.permutation(c),
                rng.choice(c, size=n_open - c, p=weights),
                rng.integers(0, c, size=n_town),
            ]
        )
        dist, cell = cKDTree(sites).query(pixels)
        classes = owner[cell] + 1
        if np.bincount(classes, minlength=c + 1)[1:].min() >= spec.min_class_pixels:
            return classes.reshape(h, w), cell, dist
    raise RuntimeError("could not place classes of the minimum size")


def _labeled_mask(cell, dist, frac):
    """The part of each field nearest its site, frac of its area."""
    if frac >= 1.0:
        return np.ones(cell.size, dtype=bool)
    mask = np.zeros(cell.size, dtype=bool)
    order = np.lexsort((dist, cell))
    sizes = np.bincount(cell)
    start = 0
    for size in sizes:
        keep = max(1, int(round(frac * size))) if size else 0
        mask[order[start : start + keep]] = True
        start += size
    return mask


def _smooth_curves(rng, t, n, harmonics=4):
    """n unit-norm smooth random curves over band positions t in [0, 1]."""
    freq = np.arange(1, harmonics + 1)
    amp = rng.standard_normal((n, harmonics)) / freq
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(n, harmonics))
    curves = np.einsum("nf,nft->nt", amp, np.cos(np.pi * freq[None, :, None] * t + phase[..., None]))
    return curves / np.linalg.norm(curves, axis=1, keepdims=True)


def _smooth_fields(rng, n, shape, length):
    """n spatially smooth random fields with zero mean and unit std, one per
    row, flattened row-major like the pixel columns."""
    white = rng.standard_normal((n,) + shape)
    fields = ndimage.gaussian_filter(white, sigma=(0, length, length), mode="wrap")
    fields -= fields.mean(axis=(1, 2), keepdims=True)
    fields /= fields.std(axis=(1, 2), keepdims=True)
    return fields.reshape(n, -1)


def _base_spectra(rng, t, n):
    """Positive, smooth base spectra: an offset plus three Gaussian bumps."""
    height = rng.uniform(0.1, 0.6, size=(n, 3, 1))
    centre = rng.uniform(0.0, 1.0, size=(n, 3, 1))
    width = rng.uniform(0.05, 0.2, size=(n, 3, 1))
    bumps = height * np.exp(-((t - centre) ** 2) / (2.0 * width**2))
    return rng.uniform(0.2, 0.4, size=(n, 1)) + bumps.sum(axis=1)


def make_scene(spec, seed):
    """Draw the scene for `seed`; the clean cube is scaled to a maximum of 1."""
    rng = np.random.default_rng(seed)
    layout = _field_map if spec.field_rows else _class_map
    classes, cell, dist = layout(spec, rng)
    flat = classes.ravel() - 1
    n_pixels = flat.size
    # The materials come from a fixed library, as in a real sensor's scenes;
    # the seed draws the layout, the spatial fields and the noise.
    lib = np.random.default_rng(spec.library)
    t = np.linspace(0.0, 1.0, spec.bands)
    base = _base_spectra(lib, t, spec.n_classes)
    rms = np.sqrt(np.mean(base**2, axis=1))
    dirs = [
        _smooth_curves(lib, t, RANK - 1) * rms[k] * np.sqrt(spec.bands)
        for k in range(spec.n_classes)
    ]
    # Brightness and the variation coefficients vary smoothly in space.
    fields = _smooth_fields(rng, RANK, classes.shape, spec.smoothness)
    bright = np.clip(1.0 + ILLUMINATION * fields[0], 0.5, 1.5)
    coeff = VARIATION * fields[1:]
    clean = np.empty((spec.bands, n_pixels))
    for k in range(spec.n_classes):
        idx = np.flatnonzero(flat == k)
        clean[:, idx] = np.outer(base[k], bright[idx]) + dirs[k].T @ coeff[:, idx]
    clean /= clean.max()
    x = clean + spec.noise * rng.standard_normal(clean.shape)
    n_spikes = int(round(spec.spike_frac * x.size))
    where = rng.choice(x.size, size=n_spikes, replace=False)
    x.ravel()[where] += SPIKE * rng.choice([-1.0, 1.0], size=n_spikes)
    labeled = _labeled_mask(cell, dist, spec.labeled_frac).reshape(classes.shape)
    return Scene(x=x, clean=clean, classes=classes, labels=np.where(labeled, classes, 0))

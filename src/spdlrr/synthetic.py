"""Synthetic instances with known ground truth.

The generators double as oracles: recovery and classification quality are
judged against the planted structure.
"""

import numpy as np

from .classify import LabelField
from .cube import HsiCube


def rpca_instance(height=100, width=200, rank=5, spike_frac=0.05, spike=0.5, seed=0):
    """Low-rank plus sparse matrix: a rank-`rank` product of standard-normal
    factors scaled to unit spectral norm, corrupted on a random spike_frac of
    entries by +-spike.  Returns (X, L0, E0)."""
    rng = np.random.default_rng(seed)
    low = rng.standard_normal((height, rank)) @ rng.standard_normal((rank, width))
    low /= np.linalg.norm(low, 2)
    n_spikes = int(round(spike_frac * height * width))
    flat = rng.choice(height * width, size=n_spikes, replace=False)
    sparse = np.zeros(height * width)
    sparse[flat] = spike * rng.choice([-1.0, 1.0], size=n_spikes)
    sparse = sparse.reshape(height, width)
    return low + sparse, low, sparse


def two_subspace_matrix(
    bands=20, per_class=30, rank=2, spike_frac=0.05, spike=0.5, seed=0
):
    """Columns drawn from two orthogonal rank-`rank` subspaces plus sparse
    spikes, all in one column block.  Returns (X, classes) with classes in
    {1, 2} per column."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((bands, 2 * rank)))
    cols = []
    classes = []
    for k in range(2):
        basis = q[:, k * rank : (k + 1) * rank]
        coeff = rng.uniform(0.5, 1.5, size=(rank, per_class)) * rng.choice(
            [-1.0, 1.0], size=(rank, per_class)
        )
        cols.append(basis @ coeff)
        classes.extend([k + 1] * per_class)
    x = np.concatenate(cols, axis=1)
    n_spikes = int(round(spike_frac * x.size))
    flat = rng.choice(x.size, size=n_spikes, replace=False)
    x.ravel()[flat] += spike * rng.choice([-1.0, 1.0], size=n_spikes)
    return x, np.array(classes)


def two_class_cube(height=12, width=12, bands=6, spike_frac=0.05, spike=0.5, seed=0, classes=2):
    """Cube of `classes` vertical stripes of near-equal width, each from its
    own rank-2 spectral subspace, plus sparse spikes; the default is a left
    and a right half.  Returns (cube, labels).

    Each class subspace is spanned by a bright positive base spectrum and a
    small orthogonal variation direction, mimicking reflectance data; the
    positive, nearly flat spectra keep the per-block low-rank component
    worth retaining at moderate sparsity weights.  The first two bases are a
    falling and a rising ramp, the others humps and waves around 0.7.

    Raises ValueError unless bands >= 2 (a rank-2 subspace) and
    1 <= classes <= width (every stripe at least one column wide)."""
    if bands < 2:
        raise ValueError(f"bands must be at least 2, got {bands}")
    if not 1 <= classes <= width:
        raise ValueError(f"classes must be between 1 and the width {width}, got {classes}")
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, bands)
    ramps = [np.linspace(1.0, 0.4, bands), np.linspace(0.4, 1.0, bands)]
    ramps += [0.7 + 0.3 * np.sin(np.pi * (k - 1) * t) for k in range(2, classes)]
    n = height * width
    bounds = np.arange(1, classes) * width // classes  # first column of stripes 1, 2, ...
    stripe = np.searchsorted(bounds, np.arange(n) % width, side="right")
    x = np.empty((bands, n))
    for k in range(classes):
        base = ramps[k]
        q, _ = np.linalg.qr(
            np.column_stack([base, rng.standard_normal(bands)])
        )
        u0 = q[:, 0] * np.sign(q[0, 0] * base[0])  # keep the base direction positive
        u1 = q[:, 1]
        idx = np.flatnonzero(stripe == k)
        scale = np.linalg.norm(base)
        a = scale * rng.uniform(0.9, 1.1, size=idx.size)
        b = rng.uniform(-0.2, 0.2, size=idx.size)
        x[:, idx] = np.outer(u0, a) + np.outer(u1, b)
    n_spikes = int(round(spike_frac * x.size))
    flat = rng.choice(x.size, size=n_spikes, replace=False)
    x.ravel()[flat] += spike * rng.choice([-1.0, 1.0], size=n_spikes)
    labels = (stripe + 1).reshape(height, width)
    return HsiCube(height, width, x), LabelField(labels)

"""The per-pixel passes that run on the chunk pool give their serial
expressions' bits, whatever the worker count, chunk width and band height."""

import math
from unittest import mock

import numpy as np
import pytest

from spdlrr import HsiCube, LabelField, linalg, normalize, project_base_image, refine, segment
from spdlrr import io as spio
from spdlrr import superpixel

H, W, BANDS = 30, 40, 5


@pytest.fixture(params=[1, 2, 3], ids=lambda n: f"workers={n}")
def pool(request):
    """The worker count, with chunks of 97 pixels (13 chunks on a 30x40
    image, the last one 36 wide) and bands of 7 rows (5 bands, the last 2
    high)."""
    with mock.patch.object(linalg, "_WORKERS", request.param), mock.patch.object(
        linalg, "_COLUMN_CHUNK", 97
    ), mock.patch.object(superpixel, "_BAND_ROWS", 7):
        yield request.param


def scene(seed=0):
    """A 30x40 cube whose pixels follow a smooth two-band pattern plus noise."""
    rng = np.random.default_rng(seed)
    rr, cc = np.meshgrid(np.linspace(0, 1, H), np.linspace(0, 1, W), indexing="ij")
    pattern = np.stack([np.sin(3 * rr + 2 * cc), rr * cc]).reshape(2, -1)
    x = rng.standard_normal((BANDS, 2)) @ pattern + 0.05 * rng.standard_normal((BANDS, H * W))
    return HsiCube(H, W, 3.0 + x)


def serial_base_image(cube):
    """project_base_image as one expression per step."""
    x = cube.x
    centered = x - x.mean(axis=1, keepdims=True)
    u = np.linalg.eigh((centered @ centered.T) / x.shape[1])[1][:, -1]
    if u[np.argmax(np.abs(u))] < 0:
        u = -u
    scores = u @ centered
    span = scores.max() - scores.min()
    return ((scores - scores.min()) / span).reshape(cube.height, cube.width)


def serial_kmeans_sweeps(values, mask, centers, step):
    """The k-means sweeps as one loop over the centers per sweep, over the
    whole image."""
    h, w = values.shape
    half = max(1, int(math.ceil(2.0 * step)))
    comp2 = (superpixel.COMPACTNESS / step) ** 2
    labels = np.full((h, w), -1, dtype=np.int64)
    rs, cs = np.nonzero(mask)
    for sweep in range(superpixel.KMEANS_SWEEPS):
        if sweep:
            flat = labels[mask]
            k = centers.shape[0]
            counts = np.bincount(flat, minlength=k).astype(np.float64)
            occupied = counts > 0
            centers = centers.copy()
            for i, weights in enumerate((values[mask], rs.astype(np.float64), cs.astype(np.float64))):
                sums = np.bincount(flat, weights=weights, minlength=k)
                centers[occupied, i] = sums[occupied] / counts[occupied]
        dist = np.full((h, w), np.inf)
        labels.fill(-1)
        for k in range(centers.shape[0]):
            vk, rk, ck = centers[k]
            r0, r1 = max(0, int(rk) - half), min(h, int(rk) + half + 1)
            c0, c1 = max(0, int(ck) - half), min(w, int(ck) + half + 1)
            rr = np.arange(r0, r1, dtype=np.float64)[:, None]
            cc = np.arange(c0, c1, dtype=np.float64)[None, :]
            d2 = (values[r0:r1, c0:c1] - vk) ** 2 + comp2 * ((rr - rk) ** 2 + (cc - ck) ** 2)
            better = mask[r0:r1, c0:c1] & (d2 < dist[r0:r1, c0:c1])
            dist[r0:r1, c0:c1][better] = d2[better]
            labels[r0:r1, c0:c1][better] = k
        superpixel._assign_orphan_windows(values, mask, labels, centers, comp2)
    return labels


def test_load_cube(pool, tmp_path):
    manifest = str(tmp_path / "cube.json")
    spio.write_cube(scene(), manifest)
    raw = np.fromfile(tmp_path / "cube.raw", dtype="<f4")
    got = spio.load_cube(manifest).x
    assert got.tobytes() == raw.reshape(BANDS, H * W).astype(np.float64).tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", [13 * 97 - 97, H * W - 1])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_all_finite_sees_the_last_chunk(pool, value, column, dtype):
    x = scene().x.astype(dtype)
    assert linalg.all_finite(x)
    x[-1, column] = value
    assert not linalg.all_finite(x)
    assert not linalg.all_finite(x.ravel())


def test_extremes(pool):
    x = scene().x
    assert linalg.extremes(x) == (x.min(), x.max())
    assert linalg.extremes(x.T) == (x.min(), x.max())


def test_normalize(pool):
    x = scene().x
    expected = (x - x.min()) / (x.max() - x.min())
    assert normalize(HsiCube(H, W, x)).x.tobytes() == expected.tobytes()


def test_project_base_image(pool):
    cube = normalize(scene())
    assert project_base_image(cube).tobytes() == serial_base_image(cube).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("levels", [None, 4], ids=["smooth", "4-levels"])
def test_segment_and_refine(pool, seed, levels):
    base = serial_base_image(normalize(scene(seed)))
    if levels:  # equal values make equal distances, which the lower center id wins
        base = np.round(base * levels) / levels
    preds = LabelField(np.random.default_rng(seed).integers(1, 4, size=(H, W)))
    with mock.patch.object(superpixel, "_kmeans_sweeps", serial_kmeans_sweeps):
        initial = segment(base, 12)
        refined = refine(initial, preds, 0.6, 9, base)
    assert refined.count > initial.count  # some superpixels were split
    got = segment(base, 12)
    np.testing.assert_array_equal(got.labels, initial.labels)
    np.testing.assert_array_equal(refine(got, preds, 0.6, 9, base).labels, refined.labels)

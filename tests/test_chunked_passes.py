"""The per-pixel passes that run on the chunk pool give their serial
expressions' bits, whatever the worker count, chunk width and band height."""

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from spdlrr import (
    DlrrParams,
    HsiCube,
    LabelField,
    linalg,
    normalize,
    project_base_image,
    refine,
    segment,
    solve,
    split,
    train_predict,
)
from spdlrr import io as spio
from spdlrr import superpixel
from spdlrr.classify import CLASSIFIERS

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
    """project_base_image as one expression per step, on the widened cube."""
    x = cube.x.astype(np.float64)
    centered = x - x.mean(axis=1, keepdims=True)
    u = np.linalg.eigh((centered @ centered.T) / x.shape[1])[1][:, -1]
    if u[np.argmax(np.abs(u))] < 0:
        u = -u
    scores = u @ centered
    span = scores.max() - scores.min()
    return ((scores - scores.min()) / span).reshape(cube.height, cube.width)


def chunked_base_image(cube, width):
    """project_base_image as a serial loop over width-pixel column chunks of
    the widened cube, adding the chunks' sums and covariances in order."""
    x = cube.x.astype(np.float64)
    chunks = [slice(start, start + width) for start in range(0, x.shape[1], width)]

    def in_order(parts):
        return sum(parts[1:], parts[0])

    def covariance(c):  # c @ c.T of one array: BLAS syrk, as centered @ centered.T
        return c @ c.T

    mean = in_order([x[:, s].sum(axis=1, keepdims=True) for s in chunks]) / x.shape[1]
    cov = in_order([covariance(x[:, s] - mean) for s in chunks]) / x.shape[1]
    u = np.linalg.eigh(cov)[1][:, -1]
    if u[np.argmax(np.abs(u))] < 0:
        u = -u
    scores = np.concatenate([u @ (x[:, s] - mean) for s in chunks])
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
    assert got.dtype == np.float32 and got.tobytes() == raw.tobytes()


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
    for dtype in (np.float64, np.float32):
        cube = HsiCube(H, W, normalize(scene()).x.astype(dtype))
        assert project_base_image(cube).tobytes() == chunked_base_image(cube, 97).tobytes()
        # 96 pixels: one chunk, where the chunked passes are the one-expression formula.
        one_chunk = HsiCube(8, 12, cube.x[:, : 8 * 12])
        assert project_base_image(one_chunk).tobytes() == serial_base_image(one_chunk).tobytes()


def test_project_base_image_makes_no_cube_sized_copy(pool):
    # 413 chunks of 8 bands: the full centered copy alone would be 1x.
    x = np.random.default_rng(0).standard_normal((8, 200 * 200))
    for dtype in (np.float64, np.float32):
        cube = HsiCube(200, 200, x.astype(dtype))
        tracemalloc.start()
        try:
            base = project_base_image(cube)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes
        assert base.tobytes() == chunked_base_image(cube, 97).tobytes()


def test_a_float32_chunk_wider_than_the_cast_buffer():
    # One 12,000-px chunk: numpy would sum a float32 row with dtype=float64
    # by 8,192-value buffers, not pairwise as the widened row.  Magnitudes
    # from 1e-5 to 1e5, so that the grouping of the sum shows in its bits.
    rng = np.random.default_rng(2)
    x = (rng.standard_normal((4, 12000)) * np.exp(rng.uniform(-12, 12, (4, 12000)))).astype(np.float32)
    cube = HsiCube(100, 120, x)
    assert project_base_image(cube).tobytes() == serial_base_image(cube).tobytes()


def test_base_image_with_two_blas_threads():
    """A fresh process, so that numpy loads with 2 BLAS threads (this suite
    pins 1): the chunk threads then call a multi-threaded BLAS at the same
    time.  Three full-size chunks of Pavia's 103 bands, so the pool runs."""
    script = textwrap.dedent(
        """
        from unittest import mock
        import numpy as np
        from spdlrr import HsiCube, linalg, project_base_image
        n = 3 * linalg._COLUMN_CHUNK - 700
        cube = HsiCube(1, n, np.random.default_rng(5).standard_normal((103, n), dtype=np.float32))
        outputs = set()
        for workers in (1, 2, 3):
            with mock.patch.object(linalg, "_WORKERS", workers):
                outputs.add(project_base_image(cube).tobytes())
        print(len(outputs))
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(linalg.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "2"
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1"


@st.composite
def float32_cubes(draw):
    h, w, bands = draw(st.integers(1, 4)), draw(st.integers(2, 5)), draw(st.integers(1, 6))
    x = draw(hnp.arrays(np.float32, (bands, h * w), elements=st.floats(-10, 10, width=32)))
    assume(x.min() < x.max())
    return HsiCube(h, w, x)


@given(float32_cubes())
# A -0.0 entry: numpy's float32 min returned -0.0 where the float64 min of
# the widened cube returned 0.0, and the zeros' signs differed.
@example(HsiCube(1, 3, np.array([[0, -0.0, 1], [1, 1, 1], [1, 1, 1]], dtype=np.float32)))
@settings(max_examples=60, deadline=None)
def test_a_float32_cube_gives_the_bytes_of_its_float64_widening(cube):
    assert cube.x.dtype == np.float32
    wide = HsiCube(cube.height, cube.width, cube.x.astype(np.float64))
    for f in (lambda c: normalize(c).x, project_base_image):
        assert f(cube).tobytes() == f(wide).tobytes()
    n = cube.x.shape[1]
    labels = LabelField((1 + np.arange(n) % 2).reshape(cube.height, cube.width))
    tsplit = split(labels, 0.5, 0)
    for kind in CLASSIFIERS:
        got, expected = (train_predict(c.x, tsplit, labels, kind, k=1).labels for c in (cube, wide))
        assert got.tobytes() == expected.tobytes()
    blocks = (np.arange(n) * 2 // n).reshape(cube.height, cube.width)
    got, expected = (solve(c.x, blocks, DlrrParams(lam=0.3, max_iter=20)) for c in (cube, wide))
    assert [a.tobytes() for a in got[:2]] == [a.tobytes() for a in expected[:2]]
    assert got[2:] == expected[2:]


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

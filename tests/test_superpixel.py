import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from spdlrr import (
    DegenerateInput,
    HsiCube,
    LabelField,
    NonFiniteData,
    project_base_image,
    refine,
    segment,
)
from spdlrr import superpixel
from spdlrr.superpixel import SuperpixelPartition, first_appearance_ids

from conftest import id_arrays

FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


def quadrant_partition(size=12):
    half = size // 2
    labels = (np.arange(size)[:, None] >= half) * 2 + (np.arange(size)[None, :] >= half)
    return SuperpixelPartition(labels.astype(int))


def smooth_image(seed, h, w):
    rng = np.random.default_rng(seed)
    rr = np.linspace(0, 1, h)[:, None]
    cc = np.linspace(0, 1, w)[None, :]
    img = rng.uniform() * rr + rng.uniform() * cc + 0.3 * rng.uniform(size=(h, w))
    lo, hi = img.min(), img.max()
    return (img - lo) / (hi - lo) if hi > lo else np.full((h, w), 0.5)


def assert_partition_invariants(part, parent_labels=None):
    """Coverage, contiguous non-empty ids, and 4-connectivity (within the
    parent's pixel set when parent_labels is given)."""
    part.validate()
    labels = part.labels
    assert labels.min() >= 0 and labels.max() < part.count
    sizes = np.bincount(labels.ravel(), minlength=part.count)
    assert (sizes > 0).all()
    for sid in range(part.count):
        member = labels == sid
        _, n_parts = ndimage.label(member, structure=FOUR)
        assert n_parts == 1, f"superpixel {sid} has {n_parts} components"
        if parent_labels is not None:
            assert len(np.unique(parent_labels[member])) == 1


class TestValidate:
    def test_valid_partition_passes(self):
        quadrant_partition().validate()

    @pytest.mark.parametrize(
        "edit, count, message",
        [
            ("negative", 4, "out of range"),
            ("empty", 5, "contiguous and non-empty"),
            ("disconnected", 4, "superpixel 0 is not 4-connected"),
        ],
    )
    def test_each_fault_has_its_own_message(self, edit, count, message):
        labels = quadrant_partition().labels.copy()
        if edit == "negative":
            labels[0, 0] = -1
        elif edit == "empty":
            labels[labels == 3] = 4  # id 3 has no pixels
        elif edit == "disconnected":
            labels[11, 11] = 0  # a lone pixel of 0 inside quadrant 3
        assert labels.max() + 1 == count  # the count the ids claim
        if edit == "disconnected":
            part = SuperpixelPartition(labels)
            with pytest.raises(ValueError, match=message):
                part.validate()
        else:
            # Bad ids fail where the partition is built.
            with pytest.raises(ValueError, match=message):
                SuperpixelPartition(labels)

    @given(
        hnp.arrays(
            np.int64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
            elements=st.integers(-1, 4),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_constructor_rejects_iff_an_id_is_negative_or_unused(self, labels):
        if labels.size == 0:
            with pytest.raises(ValueError, match=r"^superpixel ids must be a 2-d raster of integers"):
                SuperpixelPartition(labels)
        elif labels.min() < 0:
            with pytest.raises(ValueError, match=r"^superpixel ids must be non-negative and below 2\*\*63: out of range$"):
                SuperpixelPartition(labels)
        elif len(np.unique(labels)) <= labels.max():
            with pytest.raises(ValueError, match="^superpixel ids must be contiguous and non-empty$"):
                SuperpixelPartition(labels)
        else:
            part = SuperpixelPartition(labels)
            assert part.count == len(np.unique(labels))
            np.testing.assert_array_equal(part.labels, labels)

    @pytest.mark.parametrize(
        "raster",
        [
            pytest.param(np.zeros(5, int), id="1-D"),
            pytest.param(np.zeros((2, 2, 2), int), id="3-D"),
            pytest.param(0, id="0-d"),
            pytest.param([[0.5, 1.7]], id="float"),
            pytest.param(np.array([[True, False]]), id="bool"),
        ],
    )
    def test_rejects_a_raster_that_is_not_2d_integers(self, raster):
        a = np.asarray(raster)
        message = f"^superpixel ids must be a 2-d raster of integers, not {a.dtype} {re.escape(str(a.shape))}$"
        with pytest.raises(ValueError, match=message):
            SuperpixelPartition(raster)

    @given(id_arrays())
    @settings(max_examples=300, deadline=None)
    def test_constructor_rejects_iff_not_a_2d_integer_raster_or_an_id_rule_breaks(self, a):
        if a.ndim != 2 or a.size == 0 or a.dtype.kind not in "iu":
            message = f"^superpixel ids must be a 2-d raster of integers, not {a.dtype} {re.escape(str(a.shape))}$"
        elif a.min() < 0:
            message = r"^superpixel ids must be non-negative and below 2\*\*63: out of range$"
        elif len(np.unique(a)) <= a.max():
            message = "^superpixel ids must be contiguous and non-empty$"
        else:
            np.testing.assert_array_equal(SuperpixelPartition(a).labels, a)
            return
        with pytest.raises(ValueError, match=message):
            SuperpixelPartition(a)

    def test_names_a_disconnected_id_that_the_pass_rejoins(self):
        # 0's lone pixel at the top right rejoins 0 through 1's stray pixel,
        # which the pass merges into 0 first: only a pixel of 1 moves.
        labels = np.array([[0, 0, 0, 1, 0], [0, 0, 0, 2, 2], [1, 1, 1, 2, 2]])
        moved = superpixel._enforce_connectivity(labels) != labels
        assert labels[moved].tolist() == [1]
        with pytest.raises(ValueError, match="superpixel 0 is not 4-connected"):
            SuperpixelPartition(labels).validate()

    @given(
        hnp.arrays(
            np.int64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
            elements=st.integers(0, 4),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_valid_iff_the_pass_moves_nothing_and_names_the_lowest_id(self, grid):
        labels = first_appearance_ids(grid)[0]
        disconnected = [
            s
            for s in range(labels.max() + 1)
            if ndimage.label(labels == s, structure=FOUR)[1] > 1
        ]
        unchanged = np.array_equal(superpixel._enforce_connectivity(labels), labels)
        assert unchanged == (not disconnected)
        part = SuperpixelPartition(labels)
        if disconnected:
            with pytest.raises(ValueError, match=f"^superpixel {disconnected[0]} is not 4-connected$"):
                part.validate()
        else:
            part.validate()


class TestProjectBaseImage:
    def test_constant_cube_maps_to_half(self):
        cube = HsiCube(3, 4, np.full((2, 12), 7.0))
        np.testing.assert_allclose(project_base_image(cube), 0.5)

    def test_identical_bands_reduce_to_rescaled_band(self):
        rng = np.random.default_rng(0)
        band = rng.uniform(size=12)
        cube = HsiCube(3, 4, np.tile(band, (5, 1)))
        expected = ((band - band.min()) / (band.max() - band.min())).reshape(3, 4)
        np.testing.assert_allclose(project_base_image(cube), expected, atol=1e-12)

    def test_matches_power_iteration_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(4, 64))
        cube = HsiCube(8, 8, x)
        centered = x - x.mean(axis=1, keepdims=True)
        cov = centered @ centered.T / 64
        v = np.ones(4)
        for _ in range(500):
            v = cov @ v
            v /= np.linalg.norm(v)
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        scores = v @ centered
        expected = ((scores - scores.min()) / (scores.max() - scores.min())).reshape(8, 8)
        np.testing.assert_allclose(project_base_image(cube), expected, atol=1e-8)

    def test_range_is_unit_interval(self):
        rng = np.random.default_rng(2)
        cube = HsiCube(5, 6, rng.uniform(size=(3, 30)))
        img = project_base_image(cube)
        assert img.min() == 0.0 and img.max() == 1.0


class TestSegment:
    def test_constant_image_gives_grid_quadrants(self):
        part = segment(np.full((10, 10), 0.5), 4, seed=0)
        expected = (np.arange(10)[:, None] >= 5) * 2 + (np.arange(10)[None, :] >= 5)
        assert part.count == 4
        np.testing.assert_array_equal(part.labels, expected)

    def test_one_superpixel_per_pixel(self):
        part = segment(np.full((6, 5), 0.2), 30, seed=0)
        assert part.count == 30
        np.testing.assert_array_equal(part.labels, np.arange(30).reshape(6, 5))

    def test_two_tone_halves(self):
        img = np.zeros((10, 10))
        img[:, 5:] = 1.0
        part = segment(img, 2, seed=0)
        expected = np.tile((np.arange(10) >= 5).astype(int), (10, 1))
        assert part.count == 2
        np.testing.assert_array_equal(part.labels, expected)

    def test_deterministic(self):
        img = smooth_image(3, 14, 17)
        a = segment(img, 6, seed=1)
        b = segment(img, 6, seed=1)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_rejects_bad_targets(self):
        img = np.full((4, 4), 0.5)
        with pytest.raises(DegenerateInput):
            segment(img, 0)
        with pytest.raises(DegenerateInput):
            segment(img, 17)

    def test_rejects_bad_base_images(self):
        with pytest.raises(ValueError, match=r"^base image must be a non-empty 2-d matrix, not shape \(4,\)$"):
            segment(np.zeros(4), 2)
        for value in (np.nan, np.inf):
            with pytest.raises(NonFiniteData, match="^base image must be finite$"):
                segment(np.full((4, 4), value), 2)

    @given(
        st.integers(0, 1000),
        st.integers(5, 16),
        st.integers(5, 16),
        st.integers(1, 12),
    )
    @settings(max_examples=30, deadline=None)
    def test_partition_invariants_and_count_bounds(self, seed, h, w, target):
        part = segment(smooth_image(seed, h, w), target, seed=0)
        assert_partition_invariants(part)
        assert target / 2 <= part.count <= 2 * target


class TestRefine:
    def test_clean_predictions_leave_partition_unchanged(self):
        part = quadrant_partition()
        preds = LabelField((part.labels % 2 + 1).astype(int))
        base = np.full((12, 12), 0.5)
        out = refine(part, preds, 0.7, 2, base)
        assert out.count == part.count
        np.testing.assert_array_equal(out.labels, part.labels)

    def test_half_and_half_superpixel_splits_in_two(self):
        part = quadrant_partition()
        preds = np.ones((12, 12), int)
        preds[:6, 3:6] = 2  # top-left quadrant is half class 1, half class 2
        base = np.full((12, 12), 0.5)
        out = refine(part, LabelField(preds), 0.7, 2, base)
        assert out.count == 5
        kids = np.unique(out.labels[part.labels == 0])
        assert kids.size == 2
        for sid in range(1, 4):
            assert np.unique(out.labels[part.labels == sid]).size == 1
        assert_partition_invariants(out, parent_labels=part.labels)

    def test_tiny_delta_never_splits(self):
        part = quadrant_partition()
        rng = np.random.default_rng(0)
        preds = LabelField(rng.integers(1, 4, size=(12, 12)))
        out = refine(part, preds, 1e-9, 3, np.full((12, 12), 0.5))
        assert out.count == part.count

    def test_zero_delta_rejected(self):
        part = quadrant_partition()
        preds = LabelField(np.ones((12, 12), int))
        with pytest.raises(DegenerateInput):
            refine(part, preds, 0.0, 2, np.full((12, 12), 0.5))

    def test_requires_full_prediction_coverage(self):
        part = quadrant_partition()
        preds = np.ones((12, 12), int)
        preds[0, 0] = 0
        with pytest.raises(DegenerateInput):
            refine(part, LabelField(preds), 0.7, 2, np.full((12, 12), 0.5))

    @pytest.mark.parametrize(
        "preds_shape, base, error, message",
        [
            (
                (12, 11),
                np.full((12, 12), 0.5),
                ValueError,
                r"^shapes differ: partition \(12, 12\), predictions \(12, 11\), base \(12, 12\)$",
            ),
            (
                (12, 12),
                np.full((3, 3), 0.5),
                ValueError,
                r"^shapes differ: partition \(12, 12\), predictions \(12, 12\), base \(3, 3\)$",
            ),
            ((12, 12), np.full(144, 0.5), ValueError, r"^base image must be a non-empty 2-d matrix, not shape \(144,\)$"),
            ((12, 12), np.full((12, 12), np.nan), NonFiniteData, "^base image must be finite$"),
        ],
    )
    def test_rejects_bad_predictions_and_base_images(self, preds_shape, base, error, message):
        preds = LabelField(np.arange(np.prod(preds_shape)).reshape(preds_shape) % 2 + 1)
        with pytest.raises(error, match=message):
            refine(quadrant_partition(), preds, 0.9, 2, base)

    def test_empty_superpixel_id_rejected(self):
        # refine needs no check of its own: such a partition cannot be built.
        labels = quadrant_partition().labels
        with pytest.raises(ValueError, match="superpixel ids must be contiguous and non-empty"):
            SuperpixelPartition(np.where(labels == 3, 4, labels))  # id 3 has no pixels

    def test_small_noisy_superpixel_becomes_singletons(self):
        labels = np.zeros((2, 3), int)
        labels[:, 1] = 1
        labels[:, 2] = 2
        part = SuperpixelPartition(labels)
        preds = np.ones((2, 3), int)
        preds[0, 0] = 2  # superpixel 0 (two pixels) splits half and half
        out = refine(part, LabelField(preds), 0.7, 4, np.full((2, 3), 0.5))
        kids = np.unique(out.labels[labels == 0])
        assert kids.size == 2  # fewer pixels than m_split: singletons

    @given(st.integers(0, 500), st.floats(0.3, 1.0), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_never_merges_and_keeps_invariants(self, seed, delta, m_split):
        rng = np.random.default_rng(seed)
        img = smooth_image(seed, 12, 13)
        part = segment(img, 6, seed=0)
        preds = LabelField(rng.integers(1, 4, size=(12, 13)))
        out = refine(part, preds, delta, m_split, img)
        assert out.count >= part.count
        assert_partition_invariants(out, parent_labels=part.labels)

    def test_idempotent_on_kept_superpixels(self):
        rng = np.random.default_rng(9)
        img = smooth_image(10, 12, 12)
        part = segment(img, 5, seed=0)
        preds = LabelField(rng.integers(1, 3, size=(12, 12)))
        once = refine(part, preds, 0.6, 2, img)
        # Superpixels that were kept (not split) keep their exact pixel sets.
        kept = [
            sid
            for sid in range(part.count)
            if np.unique(once.labels[part.labels == sid]).size == 1
        ]
        for sid in kept:
            member = part.labels == sid
            hist = np.bincount(preds.labels[member], minlength=3)[1:]
            assert hist.max() / hist.sum() >= 0.6


def reference_first_appearance(values, keep_zero):
    """Plain-loop reference: consecutive ids by first appearance in scan
    order, 0 kept as 0 under keep_zero."""
    flat = np.asarray(values).ravel()
    out = np.empty(flat.size, dtype=np.int64)
    mapping = {}
    offset = 1 if keep_zero else 0
    for i, v in enumerate(flat):
        v = int(v)
        if keep_zero and v == 0:
            out[i] = 0
            continue
        if v not in mapping:
            mapping[v] = len(mapping) + offset
        out[i] = mapping[v]
    return out.reshape(np.shape(values)), mapping


class TestFirstAppearanceIds:
    @given(
        hnp.arrays(
            np.int64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
            elements=st.integers(-2, 6),
        ),
        st.integers(0, 2**16),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_loop(self, grid, mask_seed, keep_zero):
        mask = np.random.default_rng(mask_seed).random(grid.shape) < 0.6
        for values in (grid, grid[mask]):
            ids, mapping = first_appearance_ids(values, keep_zero=keep_zero)
            want_ids, want_mapping = reference_first_appearance(values, keep_zero)
            assert ids.dtype == np.int64 and ids.shape == values.shape
            np.testing.assert_array_equal(ids, want_ids)
            assert list(mapping.items()) == list(want_mapping.items())

    @pytest.mark.parametrize("keep_zero", [False, True])
    def test_empty_input(self, keep_zero):
        ids, mapping = first_appearance_ids(np.zeros((0, 3), dtype=np.int64), keep_zero)
        assert ids.shape == (0, 3) and mapping == {}


def reference_enforce_connectivity(labels, mask):
    """Whole-image form of the connectivity pass: one full-image label per
    id and one full-image nonzero per stray fragment."""
    out = labels.copy()
    orphans = []
    for sid in np.unique(labels[mask]):
        comp, n_comp = ndimage.label(labels == sid, structure=FOUR)
        if n_comp <= 1:
            continue
        main = int(np.argmax(np.bincount(comp.ravel())[1:])) + 1
        for part in range(1, n_comp + 1):
            if part != main:
                pix = np.nonzero(comp == part)
                orphans.append(pix)
                out[pix] = -1
    if not orphans:
        return out
    h, w = labels.shape
    orphans.sort(key=lambda pix: int(pix[0][0] * w + pix[1][0]))
    counts = {int(s): int(c) for s, c in zip(*np.unique(out[out >= 0], return_counts=True))}
    next_label = max(counts) + 1 if counts else 0
    pending = orphans
    while pending:
        deferred = []
        progressed = False
        for pix in pending:
            neigh = set()
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                nr = pix[0] + dr
                nc = pix[1] + dc
                ok = (nr >= 0) & (nr < h) & (nc >= 0) & (nc < w)
                vals = out[nr[ok], nc[ok]]
                neigh.update(int(v) for v in vals[mask[nr[ok], nc[ok]] & (vals >= 0)])
            if not neigh:
                deferred.append(pix)
                continue
            target = max(neigh, key=lambda s: (counts[s], -s))
            out[pix] = target
            counts[target] += len(pix[0])
            progressed = True
        if deferred and not progressed:
            pix = deferred.pop(0)
            out[pix] = next_label
            counts[next_label] = len(pix[0])
            next_label += 1
        pending = deferred
    return out


def reference_refine(partition, predictions, delta, m_split, base):
    """refine with a full-image mask per superpixel and the whole-image
    connectivity pass."""
    preds = predictions.labels
    h, w = partition.labels.shape
    n_classes = int(preds.max())
    out = np.full((h, w), -1, dtype=np.int64)
    next_id = 0
    for sid in range(partition.count):
        member = partition.labels == sid
        hist = np.bincount(preds[member], minlength=n_classes + 1)[1:]
        if hist.max() / hist.sum() >= delta:
            out[member] = next_id
            next_id += 1
            continue
        rs, cs = np.nonzero(member)
        if rs.size < m_split:
            out[rs, cs] = next_id + np.arange(rs.size)
            next_id += rs.size
            continue
        r0, r1, c0, c1 = superpixel._enclosing_square(rs, cs, h, w)
        window = np.s_[r0 : r1 + 1, c0 : c1 + 1]
        with mock.patch.object(
            superpixel,
            "_enforce_connectivity",
            lambda labels: reference_enforce_connectivity(labels, labels >= 0),
        ):
            sub_labels = superpixel._slic(base[window], member[window], m_split)
        inside = member[window]
        out[window][inside] = sub_labels[inside] + next_id
        next_id += len(np.unique(sub_labels[inside]))
    return SuperpixelPartition(out)


def kmeans_labels(img, mask, target):
    """The k-means assignment that _slic hands to the connectivity pass."""
    h, w = img.shape
    rows, cols = superpixel._grid_shape(h, w, target)
    centers = superpixel._init_centers(img, rows, cols)
    step = np.sqrt(h * w / centers.shape[0])
    labels = superpixel._kmeans_sweeps(img, mask, centers, step)
    labels[mask] = first_appearance_ids(labels[mask])[0]
    return labels


def fragment_count(labels, mask):
    return sum(
        ndimage.label(labels == sid, structure=FOUR)[1] - 1 for sid in np.unique(labels[mask])
    )


class TestBoundingBoxEquivalence:
    """The bounding-box forms of the connectivity pass and of refine give the
    whole-image forms' output exactly."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("partial", [False, True])
    def test_connectivity_matches_whole_image_form(self, seed, partial):
        img = smooth_image(seed, 90, 110)
        mask = np.ones(img.shape, dtype=bool)
        if partial:
            # Irregular mask with holes and detached islands, as a noisy
            # superpixel leaves inside its enclosing square.
            rng = np.random.default_rng(seed)
            mask = ndimage.gaussian_filter(rng.standard_normal(img.shape), 4) > -0.02
        labels = kmeans_labels(img, mask, 40)
        assert fragment_count(labels, mask) >= 200
        got = superpixel._enforce_connectivity(labels)
        np.testing.assert_array_equal(got, reference_enforce_connectivity(labels, mask))

    @pytest.mark.parametrize("seed", [3, 4])
    def test_refine_matches_whole_image_form(self, seed):
        img = smooth_image(seed, 60, 70)
        part = segment(img, 12, seed=0)
        rng = np.random.default_rng(seed)
        preds = LabelField(rng.integers(1, 4, size=img.shape))
        preds.labels[:, :30] = 1  # a mix of kept and split superpixels
        got = refine(part, preds, 0.5, 6, img)
        want = reference_refine(part, preds, 0.5, 6, img)
        assert part.count < want.count
        assert got.count == want.count
        np.testing.assert_array_equal(got.labels, want.labels)


class TestOrphanWindows:
    """Masked pixels outside every center's search window take the
    globally nearest center."""

    def test_sweeps_label_every_masked_pixel(self):
        # All centers bunched in one corner: with step 1 their windows
        # reach only the first few rows and columns of the 40x40 image.
        img = smooth_image(4, 40, 40)
        mask = np.ones((40, 40), dtype=bool)
        mask[10:30, 5:8] = False
        rr, cc = np.meshgrid([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], indexing="ij")
        centers = np.stack([img[0, 0] + 0.1 * rr.ravel(), rr.ravel(), cc.ravel()], axis=1)
        labels = superpixel._kmeans_sweeps(img, mask, centers, 1.0)
        assert (labels[mask] >= 0).all()
        assert (labels[~mask] == -1).all()

    def test_helper_takes_the_argmin_of_the_distance(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(size=(15, 20))
        mask = rng.uniform(size=(15, 20)) < 0.8
        labels = np.where(mask, rng.integers(0, 5, size=(15, 20)), -1)
        labels[mask & (rng.uniform(size=(15, 20)) < 0.4)] = -1
        before = labels.copy()
        centers = np.column_stack(
            [rng.uniform(size=5), rng.uniform(0, 15, size=5), rng.uniform(0, 20, size=5)]
        )
        comp2 = 0.3
        superpixel._assign_orphan_windows(values, mask, labels, centers, comp2)
        missing = mask & (before < 0)
        assert missing.any()
        for r, c in zip(*np.nonzero(missing)):
            d2 = [
                (values[r, c] - v) ** 2 + comp2 * ((r - cr) ** 2 + (c - cc) ** 2)
                for v, cr, cc in centers
            ]
            assert labels[r, c] == int(np.argmin(d2))
        np.testing.assert_array_equal(labels[~missing], before[~missing])

import os
import re
import subprocess
import sys
import textwrap
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from spdlrr import (
    DegenerateInput,
    LabelField,
    NonFiniteData,
    TrainSplit,
    evaluate,
    metrics_from_confusion,
    split,
    train_predict,
)
from spdlrr import classify, linalg


def blob_instance(seed=5, h=6, w=10, sigma=0.1):
    rng = np.random.default_rng(seed)
    centers = np.array([[0, 0, 0, 0], [10, 10, 10, 10], [0, 10, 0, 10]], float)
    labels = rng.integers(1, 4, size=(h, w))
    feats = centers[labels.ravel() - 1].T + sigma * rng.standard_normal((4, h * w))
    return feats, LabelField(labels)


class TestLabelField:
    @pytest.mark.parametrize(
        "raster, message",
        [
            (np.ones((2, 2, 2), int), "labels must be a 2-d raster"),
            (np.array([[1, -1]]), "labels must be non-negative"),
            ([[1.7, 2.2]], r"^labels must be a 2-d raster of integers, not float64 \(1, 2\)$"),
            (np.array([[True, False]]), r"^labels must be a 2-d raster of integers, not bool \(1, 2\)$"),
            (np.ones(4, int), r"^labels must be a 2-d raster of integers, not int64 \(4,\)$"),
            (1, r"^labels must be a 2-d raster of integers, not int64 \(\)$"),
        ],
    )
    def test_rejects_bad_rasters(self, raster, message):
        with pytest.raises(ValueError, match=message):
            LabelField(raster)


class TestSplit:
    def test_paper_style_counts(self):
        labels = np.zeros((1, 66), int)
        labels[0, :20] = 1
        labels[0, 20:] = 2
        s = split(LabelField(labels), 0.05, seed=1)
        per_class = [
            int((s.train_mask & (labels == c)).sum()) for c in (1, 2)
        ]
        assert per_class == [1, 3]  # 20 px -> 1 train/19 test, 46 px -> 3/43
        assert int((s.test_mask & (labels == 1)).sum()) == 19
        assert int((s.test_mask & (labels == 2)).sum()) == 43

    def test_floor_of_one_training_pixel(self):
        labels = np.zeros((1, 40), int)
        labels[0, :19] = 1
        labels[0, 19:] = 2
        s = split(LabelField(labels), 0.01, seed=0)
        assert int((s.train_mask & (labels == 1)).sum()) == 1

    def test_masks_disjoint_and_cover_labeled(self):
        _, field = blob_instance()
        s = split(field, 0.2, seed=3)
        assert not (s.train_mask & s.test_mask).any()
        labeled = field.labels > 0
        np.testing.assert_array_equal(s.train_mask | s.test_mask, labeled)

    def test_deterministic(self):
        _, field = blob_instance()
        a = split(field, 0.3, seed=11)
        b = split(field, 0.3, seed=11)
        np.testing.assert_array_equal(a.train_mask, b.train_mask)

    def test_empty_class_rejected(self):
        labels = np.ones((2, 2), int)
        labels[0, 0] = 3  # class 2 never appears
        with pytest.raises(DegenerateInput):
            split(LabelField(labels), 0.5, seed=0)

    def test_percent_bounds(self):
        _, field = blob_instance()
        for bad in (0.0, 1.0):
            with pytest.raises(DegenerateInput):
                split(field, bad, seed=0)


class TestTrainPredict:
    def test_nearest_centroid_simple(self):
        labels = np.array([[1, 1, 2, 2]])
        feats = np.array([[0.0, 0.0, 10.0, 10.0], [0.0, 0.0, 10.0, 10.0]])
        field = LabelField(labels)
        s = split(field, 0.6, seed=0)
        query = feats.copy()
        query[:, 0] = [1.0, 1.0]
        pred = train_predict(query, s, field, "nearest-centroid")
        assert pred.labels[0, 0] == 1

    def test_knn_tie_takes_smaller_class(self):
        # All four labeled pixels are trained (percent 0.9 with two pixels
        # per class keeps both); the unlabeled query sits equidistant, so
        # the k=4 vote ties 2 vs 2 and class 1 must win.
        labels = np.array([[2, 2, 1, 1, 0]])
        feats = np.array([[0.0, 0.0, 10.0, 10.0, 5.0]])
        field = LabelField(labels)
        s = split(field, 0.9, seed=0)
        assert int(s.train_mask.sum()) == 4
        pred = train_predict(feats, s, field, "knn", k=4)
        assert pred.labels[0, 4] == 1

    @pytest.mark.parametrize("k", [0, -3])
    def test_knn_rejects_k_below_one(self, k):
        feats, field = blob_instance()
        s = split(field, 0.3, seed=2)
        with pytest.raises(DegenerateInput):
            train_predict(feats, s, field, "knn", k=k)

    def test_separable_blobs_score_perfectly(self):
        feats, field = blob_instance()
        s = split(field, 0.3, seed=2)
        for kind in ("nearest-centroid", "knn"):
            pred = train_predict(feats, s, field, kind)
            report = evaluate(pred, field, s.test_mask)
            assert report.oa == 1.0

    def test_predictions_cover_unlabeled_pixels(self):
        feats, field = blob_instance()
        labels = field.labels.copy()
        labels[0, :3] = 0
        field = LabelField(labels)
        s = split(field, 0.3, seed=2)
        pred = train_predict(feats, s, field, "nearest-centroid")
        assert (pred.labels >= 1).all()

    def test_unknown_kind_rejected(self):
        feats, field = blob_instance()
        s = split(field, 0.3, seed=2)
        # A classifier is a CLASSIFIERS name; a callable is not one.
        for kind in ("svm", lambda tx, ty, ax: np.full(ax.shape[0], 2)):
            with pytest.raises(ValueError, match="unknown classifier kind"):
                train_predict(feats, s, field, kind)

    def test_empty_training_mask_rejected(self):
        feats, field = blob_instance()
        none = np.zeros(field.shape, bool)
        with pytest.raises(DegenerateInput, match="empty training mask"):
            train_predict(feats, TrainSplit(none, field.labels > 0, 0, 0.3), field)

    def test_class_without_training_pixels_rejected(self):
        feats, field = blob_instance()
        only_class_1 = field.labels == 1
        with pytest.raises(DegenerateInput, match="class 2 has no training pixels"):
            train_predict(feats, TrainSplit(only_class_1, ~only_class_1, 0, 0.3), field)

    @pytest.mark.parametrize("side", [2, 5])
    def test_masks_not_of_the_label_rasters_shape_rejected(self, side):
        # 2x2 masks would train on the wrong pixels, 5x5 ones index past them.
        rng = np.random.default_rng(0)
        field = LabelField(np.repeat([[1, 2]], 8, axis=0).reshape(4, 4))
        mask = np.ones((side, side), bool)
        with pytest.raises(ValueError, match=rf"^shapes differ: train_mask \({side}, {side}\), labels \(4, 4\)$"):
            train_predict(rng.standard_normal((3, 16)), TrainSplit(mask, mask, 0, 0.5), field)

    @pytest.mark.parametrize(
        "train, test, message",
        [
            (np.full((4, 4), 0.5), np.ones((4, 4), bool), "train mask must be a 2-d boolean raster, not float64 (4, 4)"),
            (np.ones((4, 4), bool), np.ones((4, 5), bool),
             "test mask must be a 2-d boolean raster of shape (4, 4), not bool (4, 5)"),
            (np.ones(16, bool), np.ones(16, bool), "train mask must be a 2-d boolean raster, not bool (16,)"),
            (np.ones((4, 4), int), np.ones((4, 4), int), "train mask must be a 2-d boolean raster, not int64 (4, 4)"),
        ],
    )
    def test_masks_not_two_boolean_rasters_of_one_shape_rejected(self, train, test, message):
        # A 0.5 train mask would train on those pixels.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainSplit(train, test, 0, 0.5)

    def test_overlapping_masks_accepted(self):
        # Training and scoring on every labeled pixel is a valid split.
        feats, field = blob_instance()
        labeled = field.labels > 0
        pred = train_predict(feats, TrainSplit(labeled, labeled, 0, 1.0), field)
        assert evaluate(pred, field, labeled).oa == 1.0

    @pytest.mark.parametrize("columns", [100, 200])
    def test_feature_columns_not_one_per_pixel_rejected(self, columns):
        _, field = blob_instance(h=12, w=12)
        s = split(field, 0.3, seed=2)
        with pytest.raises(ValueError, match=f"^features have {columns} columns, the label raster 144 pixels$"):
            train_predict(np.ones((4, columns)), s, field)

    @pytest.mark.parametrize("kind", ["nearest-centroid", "knn"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, kind, value):
        # Unchecked, all-NaN features predict a LabelField and an inf entry only warns.
        feats, field = blob_instance()
        s = split(field, 0.3, seed=2)
        one_entry = feats.copy()
        one_entry[1, 7] = value
        for bad in (np.full_like(feats, value), one_entry):
            with pytest.raises(NonFiniteData, match="^features must be finite$"):
                train_predict(bad, s, field, kind)

    @given(st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_centroid_rule_shift_invariant(self, seed):
        feats, field = blob_instance(seed=seed)
        s = split(field, 0.3, seed=1)
        shift = np.random.default_rng(seed).uniform(-5, 5, size=(feats.shape[0], 1))
        a = train_predict(feats, s, field, "nearest-centroid")
        b = train_predict(feats + shift, s, field, "nearest-centroid")
        np.testing.assert_array_equal(a.labels, b.labels)


def reference_knn(train_x, train_y, all_x, k):
    """Full stable-argsort kNN vote: equidistant neighbours go by training
    index, a vote tie goes to the smallest class id."""
    k = min(k, train_x.shape[0])
    d2 = np.sum(all_x**2, axis=1)[:, None] - 2.0 * all_x @ train_x.T + np.sum(train_x**2, axis=1)
    nn = np.argsort(d2, axis=1, kind="stable")[:, :k]
    votes = np.zeros((all_x.shape[0], int(train_y.max()) + 1), dtype=np.int64)
    np.add.at(votes, (np.arange(all_x.shape[0])[:, None], train_y[nn]), 1)
    return np.argmax(votes[:, 1:], axis=1) + 1


class TestKnnSelection:
    @given(
        st.data(),
        st.integers(1, 12),
        st.integers(1, 30),
        st.integers(1, 3),
        st.integers(1, 7),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_full_stable_sort(self, data, n_train, n_all, bands, chunk):
        # Small integer features make equal distances, and so ties at the
        # k-th neighbour, frequent; the arithmetic is exact.
        ints = st.integers(0, 3)
        train_x = data.draw(hnp.arrays(np.float64, (n_train, bands), elements=ints))
        all_x = data.draw(hnp.arrays(np.float64, (n_all, bands), elements=ints))
        train_y = data.draw(hnp.arrays(np.int64, n_train, elements=st.integers(1, 4)))
        k = data.draw(st.integers(1, n_train + 3))
        with mock.patch.object(classify, "_PREDICT_CHUNK", chunk):
            got = classify._predict(classify._knn(train_x, train_y, k), all_x)
        np.testing.assert_array_equal(got, reference_knn(train_x, train_y, all_x, k))


class TestSquaredDistances:
    @given(
        st.integers(0, 10_000),
        st.integers(1, 40),
        st.integers(1, 20),
        st.integers(1, 9),
        st.booleans(),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_equal_to_the_plain_expression(self, seed, n_rows, n_ref, bands, pixel_view, log_scale):
        rng = np.random.default_rng(seed)
        features = 10.0**log_scale * rng.standard_normal((bands, n_rows + 3))
        # train_predict hands the classifiers rows of the transposed
        # bands x pixels matrix, sliced into chunks.
        all_x = features.T if pixel_view else np.ascontiguousarray(features.T)
        rows = all_x[1 : 1 + n_rows]
        ref = all_x[rng.integers(0, n_rows + 3, n_ref)] + rng.standard_normal((n_ref, bands))
        expected = np.sum(rows**2, axis=1)[:, None] - 2.0 * rows @ ref.T + np.sum(ref**2, axis=1)
        assert np.array_equal(classify._sq_distances(rows, ref), expected)


def serial_nearest_centroid(train_x, train_y, all_x):
    """The nearest-centroid rule as one loop over _PREDICT_CHUNK-row chunks
    on the calling thread."""
    classes = np.unique(train_y)
    centroids = np.stack([train_x[train_y == c].mean(axis=0) for c in classes])
    pred = np.empty(all_x.shape[0], dtype=np.int64)
    for start in range(0, all_x.shape[0], classify._PREDICT_CHUNK):
        rows = all_x[start : start + classify._PREDICT_CHUNK]
        d2 = classify._sq_distances(rows, centroids)
        pred[start : start + rows.shape[0]] = classes[np.argmin(d2, axis=1)]
    return pred


class TestWorkerCount:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @given(
        st.data(),
        st.integers(1, 12),
        st.integers(1, 30),
        st.integers(1, 3),
        st.integers(1, 7),
    )
    @settings(max_examples=100, deadline=None)
    def test_predictions_equal_the_serial_reference(self, workers, data, n_train, n_all, bands, chunk):
        # Chunks of 1..7 rows over 1..30 rows leave a short last chunk in
        # most cases and fewer chunks than workers in some; small integer
        # features make ties at the k-th neighbour frequent.
        ints = st.integers(0, 3)
        train_x = data.draw(hnp.arrays(np.float64, (n_train, bands), elements=ints))
        all_x = data.draw(hnp.arrays(np.float64, (n_all, bands), elements=ints))
        train_y = data.draw(hnp.arrays(np.int64, n_train, elements=st.integers(1, 4)))
        k = data.draw(st.integers(1, n_train + 3))
        with mock.patch.object(classify, "_PREDICT_CHUNK", chunk), mock.patch.object(
            linalg, "_WORKERS", workers
        ):
            knn = classify._predict(classify._knn(train_x, train_y, k), all_x)
            centroid = classify._predict(classify._nearest_centroid(train_x, train_y, k), all_x)
            expected = serial_nearest_centroid(train_x, train_y, all_x)
        np.testing.assert_array_equal(knn, reference_knn(train_x, train_y, all_x, k))
        np.testing.assert_array_equal(centroid, expected)

    def test_outputs_equal_with_two_blas_threads(self):
        """A fresh process, so that numpy loads with 2 BLAS threads (this
        suite pins 1): the chunk threads then call a multi-threaded BLAS at
        the same time.  Three full-size chunks, so the pool runs."""
        script = textwrap.dedent(
            """
            from unittest import mock
            import numpy as np
            from spdlrr import classify, linalg
            rng = np.random.default_rng(5)
            all_x = rng.standard_normal((103, 3 * classify._PREDICT_CHUNK - 700)).T
            train_x = all_x[rng.choice(all_x.shape[0], 212, replace=False)]
            train_y = rng.integers(1, 10, 212)
            d2 = np.empty((all_x.shape[0], 212))
            def chunk(s):
                d2[s] = classify._sq_distances(all_x[s], train_x)
            outputs = set()
            for workers in (1, 2, 3):
                with mock.patch.object(linalg, "_WORKERS", workers):
                    linalg._each_chunk(all_x.shape[0], classify._PREDICT_CHUNK, chunk)
                    knn = classify._predict(classify._knn(train_x, train_y, 5), all_x)
                    centroid = classify._predict(classify._nearest_centroid(train_x, train_y, 5), all_x)
                outputs.add(d2.tobytes() + knn.tobytes() + centroid.tobytes())
            print(len(outputs))
            """
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(classify.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "2"
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "1"

    @pytest.mark.parametrize("kind", ["nearest-centroid", "knn"])
    def test_a_failing_chunk_is_reported(self, kind):
        feats, field = blob_instance(h=6, w=10)
        s = split(field, 0.3, seed=2)
        caller = threading.get_ident()
        sq_distances = classify._sq_distances

        def failing(rows, ref):
            if threading.get_ident() != caller:
                raise MemoryError("chunk on the pool thread")
            return sq_distances(rows, ref)

        with mock.patch.object(classify, "_PREDICT_CHUNK", 16), mock.patch.object(
            linalg, "_WORKERS", 2
        ), mock.patch.object(classify, "_sq_distances", failing):
            threads = threading.active_count()
            with pytest.raises(MemoryError, match="pool thread"):
                train_predict(feats, s, field, kind)  # 60 pixels: 4 chunks
            assert threading.active_count() == threads


class TestEvaluate:
    def test_perfect_agreement(self):
        _, field = blob_instance()
        mask = field.labels > 0
        report = evaluate(field, field, mask)
        assert report.oa == report.aa == report.kappa == 1.0

    def test_hand_computed_confusion(self):
        report = metrics_from_confusion([[40, 10], [20, 30]])
        assert report.oa == pytest.approx(0.70, abs=1e-12)
        assert report.aa == pytest.approx(0.70, abs=1e-12)
        assert report.kappa == pytest.approx(0.40, abs=1e-12)

    def test_hand_case_through_label_fields(self):
        truth = np.concatenate([np.ones(50, int), np.full(50, 2)]).reshape(4, 25)
        pred = np.concatenate(
            [np.ones(40, int), np.full(10, 2), np.ones(20, int), np.full(30, 2)]
        ).reshape(4, 25)
        report = evaluate(
            LabelField(pred), LabelField(truth), np.ones((4, 25), bool)
        )
        np.testing.assert_array_equal(report.confusion, [[40, 10], [20, 30]])
        assert report.kappa == pytest.approx(0.40, abs=1e-12)

    def test_random_predictions_have_near_zero_kappa(self):
        rng = np.random.default_rng(12)
        truth = LabelField(np.repeat([1, 2], 5000).reshape(100, 100))
        pred = LabelField(rng.integers(1, 3, size=(100, 100)))
        report = evaluate(pred, truth, np.ones((100, 100), bool))
        assert abs(report.kappa) <= 0.1

    def test_class_permutation_invariance(self):
        rng = np.random.default_rng(4)
        truth = rng.integers(1, 4, size=(8, 8))
        pred = rng.integers(1, 4, size=(8, 8))
        mask = np.ones((8, 8), bool)
        base = evaluate(LabelField(pred), LabelField(truth), mask)
        perm = np.array([0, 3, 1, 2])  # class c -> perm[c]
        permuted = evaluate(
            LabelField(perm[pred]), LabelField(perm[truth]), mask
        )
        assert base.oa == pytest.approx(permuted.oa)
        assert base.aa == pytest.approx(permuted.aa)
        assert base.kappa == pytest.approx(permuted.kappa)

    @given(st.integers(0, 500))
    @settings(max_examples=50)
    def test_kappa_formula_identity(self, seed):
        rng = np.random.default_rng(seed)
        confusion = rng.integers(0, 30, size=(3, 3))
        if confusion.sum() == 0:
            confusion[0, 0] = 1
        report = metrics_from_confusion(confusion)
        total = confusion.sum()
        p_e = float(confusion.sum(1) @ confusion.sum(0)) / total**2
        if p_e < 1.0:
            expected = (report.oa - p_e) / (1.0 - p_e)
            assert report.kappa == pytest.approx(expected, abs=1e-12)
            if report.oa >= p_e:
                assert report.kappa <= report.oa + 1e-12

    def test_empty_mask_rejected(self):
        _, field = blob_instance()
        with pytest.raises(DegenerateInput):
            evaluate(field, field, np.zeros(field.shape, bool))

    def test_shapes_that_differ_rejected(self):
        _, truth = blob_instance(h=12, w=12)
        pred = LabelField(np.ones((3, 3), int))
        with pytest.raises(ValueError, match=r"^shapes differ: predictions \(3, 3\), truth \(12, 12\), mask \(3, 3\)$"):
            evaluate(pred, truth, np.ones((3, 3), bool))
        with pytest.raises(ValueError, match=r"mask \(12, 11\)$"):
            evaluate(truth, truth, np.ones((12, 11), bool))

    def test_mask_over_an_unlabeled_pixel_rejected(self):
        truth = LabelField(np.array([[1, 2, 0]]))
        pred = LabelField(np.array([[1, 2, 1]]))
        with pytest.raises(DegenerateInput, match="evaluation mask includes unlabeled pixels"):
            evaluate(pred, truth, np.ones((1, 3), bool))

    def test_unlabeled_prediction_on_the_mask_rejected(self):
        truth = LabelField(np.array([[1, 2, 2]]))
        pred = LabelField(np.array([[1, 0, 2]]))
        with pytest.raises(DegenerateInput, match="predictions must be classes >= 1 on the mask"):
            evaluate(pred, truth, np.ones((1, 3), bool))

    @pytest.mark.parametrize("mask", [np.full((6, 10), 0.5), np.full((6, 10), 2)], ids=["float", "int"])
    def test_mask_not_boolean_rejected(self, mask):
        # bool(0.5) and bool(2) are True: cast to bool, either mask would score every pixel.
        _, field = blob_instance()
        with pytest.raises(ValueError, match=rf"^mask must be a 2-d boolean raster, not {mask.dtype} \(6, 10\)$"):
            evaluate(field, field, mask)

    @pytest.mark.parametrize(
        "confusion, error, message",
        [
            ([[3, -1], [0, 2]], ValueError, "square matrix of non-negative counts"),  # else OA 1.25
            ([[3, np.nan], [0, 2]], NonFiniteData, "finite"),  # else OA NaN
            ([[3, np.inf], [0, 2]], NonFiniteData, "finite"),
            ([3, 1], ValueError, "non-empty 2-d matrix"),  # else numpy's AxisError
            ([[3, 1, 0], [0, 2, 0]], ValueError, "square matrix of non-negative counts"),  # else a matmul error
            (np.zeros((0, 0)), ValueError, "non-empty 2-d matrix"),
        ],
    )
    def test_not_a_confusion_matrix_rejected(self, confusion, error, message):
        with pytest.raises(error, match=f"^confusion must be .*{message}"):
            metrics_from_confusion(confusion)

    def test_all_zero_confusion_rejected(self):
        with pytest.raises(DegenerateInput, match="empty confusion matrix"):
            metrics_from_confusion(np.zeros((2, 2)))

    def test_chance_agreement_one_is_kappa_one(self):
        # One class, all agreed: p_e = 1, and (oa - p_e) / (1 - p_e) is 0 / 0.
        report = metrics_from_confusion([[5]])
        assert (report.oa, report.aa, report.kappa) == (1.0, 1.0, 1.0)

    def test_json_payload_shape(self):
        report = metrics_from_confusion([[40, 10], [20, 30]])
        payload = report.to_json_dict()
        assert set(payload) == {"oa", "aa", "kappa", "per_class", "confusion"}
        assert payload["confusion"] == [[40, 10], [20, 30]]
        assert len(payload["per_class"]) == 2

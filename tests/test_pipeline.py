import hashlib

import numpy as np
import pytest

from spdlrr import (
    DegenerateInput,
    DlrrParams,
    HsiCube,
    PipelineConfig,
    normalize,
    run,
)
from spdlrr import pipeline as pipeline_mod
from spdlrr.synthetic import two_class_cube

from conftest import pipeline_config


class TestNormalize:
    def test_spanning_unit_interval_unchanged(self):
        cube = HsiCube(2, 2, np.array([[0.0, 0.25, 0.75, 1.0]]))
        out = normalize(cube)
        np.testing.assert_allclose(out.x, cube.x)

    def test_affine_rescale(self):
        cube = HsiCube(1, 3, np.array([[100.0, 200.0, 300.0]]))
        out = normalize(cube)
        np.testing.assert_allclose(out.x, [[0.0, 0.5, 1.0]])

    def test_constant_rejected(self):
        with pytest.raises(DegenerateInput):
            normalize(HsiCube(1, 2, np.full((3, 2), 4.0)))


class TestTwoClassCube:
    @pytest.mark.parametrize("width", [12, 13, 48])
    def test_two_classes_are_the_left_and_right_halves(self, width):
        _, labels = two_class_cube(height=3, width=width, seed=0)
        assert (labels.labels == np.where(np.arange(width) >= width // 2, 2, 1)).all()

    def test_classes_are_vertical_stripes_with_their_own_spectra(self):
        cube, labels = two_class_cube(height=4, width=48, bands=32, seed=0, classes=5)
        assert (labels.labels == labels.labels[0]).all()
        assert np.bincount(labels.labels[0]).tolist() == [0, 9, 10, 9, 10, 10]
        flat = labels.labels.ravel()
        means = np.array([cube.x[:, flat == c].mean(axis=1) for c in range(1, 6)])
        gaps = np.linalg.norm(means[:, None] - means[None], axis=2)
        assert gaps[~np.eye(5, dtype=bool)].min() > 0.5


class TestConfig:
    @pytest.mark.parametrize("k", [0, -3])
    def test_knn_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="knn_k"):
            PipelineConfig(knn_k=k)

    @pytest.mark.parametrize("count", [0, -2])
    def test_superpixel_count_below_one_rejected(self, count):
        with pytest.raises(ValueError, match="initial_superpixels"):
            PipelineConfig(initial_superpixels=count)

    @pytest.mark.parametrize("percent", [0.0, 1.0, -0.1, 1.5])
    def test_split_fraction_outside_open_unit_interval_rejected(self, percent):
        with pytest.raises(ValueError, match="split_percent"):
            PipelineConfig(split_percent=percent)

    def test_unknown_classifier_rejected(self):
        with pytest.raises(ValueError, match="unknown classifier kind 'foo'"):
            PipelineConfig(classifier="foo")
        with pytest.raises(ValueError, match="unknown classifier kind"):
            PipelineConfig(classifier=lambda tx, ty, ax: ty[:1].repeat(len(ax)))

    @pytest.mark.parametrize("kind", ["nearest-centroid", "knn"])
    def test_builtin_classifier_accepted(self, kind):
        assert PipelineConfig(classifier=kind).classifier is kind


class TestRun:
    @pytest.mark.parametrize("shape", [(12, 13), (13, 12), (16, 9), (10, 10)], ids="{0[0]}x{0[1]}".format)
    def test_label_raster_of_another_shape_fails_before_any_work(self, monkeypatch, shape):
        cube, _ = two_class_cube(seed=0)
        _, labels = two_class_cube(height=shape[0], width=shape[1], seed=0)

        def no_work(*args):
            raise AssertionError("normalized the cube")

        monkeypatch.setattr(pipeline_mod, "normalize", no_work)
        with pytest.raises(ValueError, match="label raster is %dx%d, cube is 12x12" % shape):
            run(cube, labels, pipeline_config(1.0))

    def test_degenerate_singleton_superpixels_smoke(self):
        cube, labels = two_class_cube(height=6, width=6, seed=1)
        config = PipelineConfig(
            t_max=1,
            initial_superpixels=36,  # every superpixel is one pixel
            delta=0.7,
            m_split=2,
            dlrr=DlrrParams(lam=1e3, beta=0.0, max_iter=200),
            split_percent=0.10,
            seed=0,
        )
        result = run(cube, labels, config)
        assert result.l_final.shape == cube.x.shape
        assert result.e_final.shape == cube.x.shape
        assert len(result.traces) == 1
        assert result.partitions[0].count == 36
        assert (result.final_predictions.labels >= 1).all()

    def test_accuracy_on_separable_cube(self, pipeline_results):
        metrics = pipeline_results[1.0].metrics
        assert metrics.oa >= 0.95
        assert metrics.kappa >= 0.90

    def test_beta_ablation_ordering(self, pipeline_results):
        assert pipeline_results[1.0].metrics.oa >= pipeline_results[0.0].metrics.oa

    def test_exactly_t_max_rounds(self, pipeline_results):
        result = pipeline_results[1.0]
        assert len(result.traces) == 3
        assert len(result.partitions) == 3
        assert len(result.converged) == 3

    def test_restoration_plus_variations_reproduce_normalized_cube(
        self, pipeline_results
    ):
        cube = normalize(pipeline_results["cube"])
        result = pipeline_results[1.0]
        assert result.converged[-1]
        gap = np.max(np.abs(cube.x - result.l_final - result.e_final))
        assert gap <= 1e-6

    def test_solver_always_sees_original_cube(self, monkeypatch):
        cube, labels = two_class_cube(seed=0)
        seen = []
        real_solve = pipeline_mod.solve

        def recording_solve(x, partition, params, **kwargs):
            seen.append(hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest())
            return real_solve(x, partition, params, **kwargs)

        monkeypatch.setattr(pipeline_mod, "solve", recording_solve)
        run(cube, labels, pipeline_config(1.0))
        expected = hashlib.sha256(
            np.ascontiguousarray(normalize(cube).x).tobytes()
        ).hexdigest()
        assert len(seen) == 3
        assert all(digest == expected for digest in seen)

    def test_refine_never_reduces_partition_count(self, monkeypatch):
        cube, labels = two_class_cube(seed=0)
        counts = []
        real_refine = pipeline_mod.refine

        def recording_refine(partition, predictions, delta, m_split, base, seed=0):
            out = real_refine(partition, predictions, delta, m_split, base, seed)
            counts.append((partition.count, out.count))
            return out

        monkeypatch.setattr(pipeline_mod, "refine", recording_refine)
        run(cube, labels, pipeline_config(1.0))
        assert counts and all(after >= before for before, after in counts)

    def test_bitwise_deterministic(self):
        cube, labels = two_class_cube(seed=0)
        config = pipeline_config(1.0)
        a = run(cube, labels, config)
        b = run(cube, labels, config)
        np.testing.assert_array_equal(a.l_final, b.l_final)
        np.testing.assert_array_equal(a.e_final, b.e_final)
        np.testing.assert_array_equal(
            a.final_predictions.labels, b.final_predictions.labels
        )
        assert a.metrics.oa == b.metrics.oa
        assert a.metrics.kappa == b.metrics.kappa
        for pa, pb in zip(a.partitions, b.partitions):
            np.testing.assert_array_equal(pa.labels, pb.labels)
        for ta, tb in zip(a.traces, b.traces):
            assert ta.objective == tb.objective
            assert ta.r1 == tb.r1

import hashlib
import os
import runpy
import sys
import warnings

import numpy as np
import pytest

from spdlrr import (
    DegenerateInput,
    DlrrParams,
    HsiCube,
    LabelField,
    PipelineConfig,
    SuperpixelPartition,
    normalize,
    refine,
    run,
    run_round,
    segment,
    split,
    train_predict,
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

    def test_range_beyond_float64_rejected(self):
        # Every entry is finite; only hi - lo overflows.
        cube = HsiCube(1, 2, np.array([[-1e308, 1e308]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInput, match=r"range from -1e\+308 to 1e\+308 overflows"):
                normalize(cube)


class TestHsiCube:
    @pytest.mark.parametrize(
        "height, width, x, message",
        [
            (0, 2, np.ones((3, 0)), "cube dimensions must be positive"),
            (2, 2, np.ones((3, 5)), r"pixel matrix of shape \(3, 5\) does not match 2x2 image"),
            (12.0, 12, np.ones((3, 144)), "cube dimensions must be positive integers, not 12.0x12"),
            (2, 1.5, np.ones((3, 3)), "cube dimensions must be positive integers, not 2x1.5"),
            (True, 4, np.ones((3, 4)), "cube dimensions must be positive integers, not Truex4"),
            (2, np.True_, np.ones((3, 2)), "cube dimensions must be positive integers, not 2xTrue"),
            (2, 2, np.zeros((0, 4)), r"pixel matrix must be a non-empty 2-d matrix, not shape \(0, 4\)"),
        ],
    )
    def test_rejects_bad_shapes(self, height, width, x, message):
        with pytest.raises(ValueError, match=message):
            HsiCube(height, width, x)

    def test_numpy_integer_dimensions_pass(self):
        cube = HsiCube(np.int64(2), np.uint8(3), np.ones((1, 6)))
        assert (cube.height, cube.width) == (2, 3)


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

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"bands": 0}, "bands"),
            ({"bands": 1}, "bands"),
            ({"classes": 0}, "classes"),
            ({"classes": -1}, "classes"),
            ({"classes": 13}, "classes"),  # class 1 would get no column
        ],
    )
    def test_sizes_out_of_range_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            two_class_cube(height=3, width=12, seed=0, **kwargs)

    @pytest.mark.parametrize("classes", [1, 12])
    def test_class_count_edges(self, classes):
        cube, labels = two_class_cube(height=3, width=12, bands=2, seed=0, classes=classes)
        assert np.isfinite(cube.x).all() and np.abs(cube.x).max() < 10.0
        assert (labels.labels == np.arange(12) * classes // 12 + 1).all()

    def test_demo_script_rejects_a_bad_size_and_writes_nothing(self, tmp_path, monkeypatch):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        script = os.path.join(root, "scripts", "make_demo_data.py")
        out = tmp_path / "demo"
        monkeypatch.setattr(sys, "argv", [script, str(out), "--classes", "0"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(script, run_name="__main__")
        assert exc.value.code != 0 and not out.exists()


class TestConfig:
    @pytest.mark.parametrize("k", [0, -3])
    def test_knn_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="knn_k"):
            PipelineConfig(knn_k=k)

    @pytest.mark.parametrize("count", [0, -2])
    def test_superpixel_count_below_one_rejected(self, count):
        with pytest.raises(ValueError, match=f"^superpixels must be at least 1, not {count}$"):
            PipelineConfig(initial_superpixels=count)

    @pytest.mark.parametrize("percent", [0.0, 1.0, -0.1, 1.5])
    def test_split_fraction_outside_open_unit_interval_rejected(self, percent):
        with pytest.raises(ValueError, match=f"^percent must lie strictly between 0 and 1, not {percent}$"):
            PipelineConfig(split_percent=percent)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"t_max": 0}, "t_max must be at least 1, not 0"),
            ({"delta": 1.5}, "delta must lie in (0, 1], not 1.5"),
            ({"m_split": 0}, "m_split must be at least 1, not 0"),
            ({"seed": -1}, "seed must be non-negative, not -1"),
            ({"t_max": 2.5}, "t_max must be an integer, not 2.5"),
            ({"initial_superpixels": 2.5}, "superpixels must be an integer, not 2.5"),
            ({"m_split": 3.0}, "m_split must be an integer, not 3.0"),
            ({"knn_k": 2.5}, "knn_k must be an integer, not 2.5"),
            ({"seed": 1.5}, "seed must be an integer, not 1.5"),
            ({"t_max": np.nan}, "t_max must be an integer, not nan"),
            # A bool is no number, though Python counts it as an integer.
            ({"seed": True}, "seed must be an integer, not True"),
            ({"knn_k": True}, "knn_k must be an integer, not True"),
            ({"t_max": True}, "t_max must be an integer, not True"),
            ({"delta": True}, "delta must be a number, not True"),
            ({"max_iter": True}, "max_iter must be an integer, not True"),
            ({"lam": True}, "lambda must be a number, not True"),
            ({"beta": np.True_}, "beta must be a number, not True"),
            ({"rho": np.True_}, "rho must be a number, not True"),
            ({"mu0": True}, "mu0 must be a number, not True"),
        ],
    )
    def test_each_rule_names_its_config_key(self, kwargs, message):
        # Solver options go to DlrrParams, the rest to PipelineConfig.
        cls = DlrrParams if kwargs.keys() <= vars(DlrrParams()).keys() else PipelineConfig
        with pytest.raises(DegenerateInput) as exc:
            cls(**kwargs)
        assert str(exc.value) == message

    def test_public_functions_raise_the_configs_message(self):
        labels = LabelField(np.array([[1, 1, 2, 2]]))
        partition = SuperpixelPartition(np.zeros((1, 4), int))
        calls = [
            (lambda: segment(np.zeros((2, 2)), 0), {"initial_superpixels": 0}),
            (lambda: refine(partition, labels, 0.0, 1, np.zeros((1, 4))), {"delta": 0.0}),
            (lambda: refine(partition, labels, 0.5, 0, np.zeros((1, 4))), {"m_split": 0}),
            (lambda: split(labels, 1.5, 0), {"split_percent": 1.5}),
            (lambda: split(labels, 0.5, -1), {"seed": -1}),
            (lambda: split(labels, 0.5, 1.5), {"seed": 1.5}),
            (lambda: train_predict(np.eye(4), split(labels, 0.5, 0), labels, "knn", k=0), {"knn_k": 0}),
            (lambda: segment(np.zeros((2, 2)), 2.5), {"initial_superpixels": 2.5}),
            (lambda: refine(partition, labels, 0.5, 1.5, np.zeros((1, 4))), {"m_split": 1.5}),
            (lambda: train_predict(np.eye(4), split(labels, 0.5, 0), labels, "knn", k=2.5), {"knn_k": 2.5}),
        ]
        for call, kwargs in calls:
            with pytest.raises(DegenerateInput) as from_config:
                PipelineConfig(**kwargs)
            with pytest.raises(DegenerateInput) as from_call:
                call()
            assert str(from_call.value) == str(from_config.value)

    def test_numpy_integers_pass(self):
        config = PipelineConfig(
            t_max=np.int64(2), initial_superpixels=np.int32(8), m_split=np.uint8(2),
            knn_k=np.int16(3), seed=np.uint64(7), dlrr=DlrrParams(max_iter=np.int64(5)),
        )
        assert (config.t_max, config.seed, config.dlrr.max_iter) == (2, 7, 5)

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
        with pytest.raises(ValueError, match=r"^shapes differ: labels \(%d, %d\), cube \(12, 12\)$" % shape):
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
        assert len(result.rounds) == 1
        assert result.rounds[0].partition.count == 36
        assert (result.final_predictions.labels >= 1).all()

    def test_accuracy_on_separable_cube(self, pipeline_results):
        metrics = pipeline_results[1.0].metrics
        assert metrics.oa >= 0.95
        assert metrics.kappa >= 0.90

    def test_beta_ablation_ordering(self, pipeline_results):
        assert pipeline_results[1.0].metrics.oa >= pipeline_results[0.0].metrics.oa

    def test_exactly_t_max_rounds(self, pipeline_results):
        result = pipeline_results[1.0]
        assert len(result.rounds) == 3
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

    def test_refine_never_reduces_partition_count(self, pipeline_results):
        rounds = pipeline_results[1.0].rounds
        assert rounds and all(r.initial.count <= r.partition.count for r in rounds)

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
        for ra, rb in zip(a.rounds, b.rounds):
            np.testing.assert_array_equal(ra.partition.labels, rb.partition.labels)
            assert ra.trace.objective == rb.trace.objective
            assert ra.trace.r1 == rb.trace.r1


class TestRunRound:
    def test_rounds_by_hand_reproduce_run(self, pipeline_results):
        labels, config, result = pipeline_results["labels"], pipeline_config(1.0), pipeline_results[1.0]
        cube = normalize(pipeline_results["cube"])
        tsplit = split(labels, config.split_percent, config.seed)
        working = cube
        for expected in result.rounds:
            record, restored, variations = run_round(cube, working, labels, tsplit, config)
            working = HsiCube(cube.height, cube.width, restored)
            for name in ("initial", "guidance", "partition"):
                np.testing.assert_array_equal(getattr(record, name).labels, getattr(expected, name).labels)
            assert (record.trace, record.converged) == (expected.trace, expected.converged)
        assert len(result.rounds) == config.t_max
        np.testing.assert_array_equal(restored, result.l_final)
        np.testing.assert_array_equal(variations, result.e_final)

    def test_first_guidance_is_the_raw_pixel_baseline(self, pipeline_results):
        labels, config = pipeline_results["labels"], pipeline_config(1.0)
        tsplit = split(labels, config.split_percent, config.seed)
        raw = train_predict(normalize(pipeline_results["cube"]).x, tsplit, labels, config.classifier)
        np.testing.assert_array_equal(pipeline_results[1.0].rounds[0].guidance.labels, raw.labels)

    def test_every_partition_is_valid(self, pipeline_results):
        for record in pipeline_results[1.0].rounds:
            record.partition.validate()

    def test_no_round_holds_a_cube_sized_array(self, pipeline_results):
        # The largest array a round keeps is one value per pixel.
        cube = pipeline_results["cube"]
        for record in pipeline_results[1.0].rounds:
            for value in vars(record).values():
                for a in vars(value).values() if hasattr(value, "__dict__") else ():
                    assert not isinstance(a, np.ndarray) or a.size == cube.height * cube.width

import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spdlrr
from spdlrr import DlrrParams, PipelineConfig, cli, solver
from spdlrr import io as spio
from spdlrr.cli import cli_main
from spdlrr.synthetic import rpca_instance, two_class_cube

from conftest import CUBE_LAM, RPCA_LAM


@pytest.fixture()
def demo_dir(tmp_path):
    cube, labels = two_class_cube(seed=0)
    spio.write_cube(cube, str(tmp_path / "cube.json"))
    spio.write_raster(labels.labels, str(tmp_path / "truth.txt"))
    return tmp_path


def classify_args(demo_dir, out_name, extra=()):
    return [
        "classify",
        "--cube",
        str(demo_dir / "cube.json"),
        "--labels",
        str(demo_dir / "truth.txt"),
        "--out-dir",
        str(demo_dir / out_name),
        "--seed",
        "7",
        "--lambda",
        str(CUBE_LAM),
        "--superpixels",
        "4",
        "--delta",
        "0.7",
        "--m-split",
        "2",
        "--percent",
        "0.10",
        *extra,
    ]


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert cli_main([]) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli_main(["classify", "--bogus"]) == 1

    def test_missing_required_flag(self, demo_dir, capsys):
        rc = cli_main(
            ["decompose", "--partition", "p.txt", "--out-dir", str(demo_dir / "o")]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "cube" in captured.err

    def test_classify_needs_explicit_seed(self, demo_dir, capsys):
        args = classify_args(demo_dir, "out")
        args.remove("--seed")
        args.remove("7")
        assert cli_main(args) == 1

    def test_classify_without_a_seed_in_flags_or_config(self, demo_dir, capsys):
        cfg = demo_dir / "run.cfg"
        cfg.write_text("delta = 0.8\n")
        args = classify_args(demo_dir, "out", extra=["--config", str(cfg)])
        args.remove("--seed")
        args.remove("7")
        assert cli_main(args) == 1
        assert "missing required option --seed" in capsys.readouterr().err
        assert not (demo_dir / "out").exists()

    def test_segment_has_no_seed_flag(self, demo_dir, capsys):
        argv = ["segment", "--cube", str(demo_dir / "cube.json"), "--out", str(demo_dir / "p.txt")]
        assert cli_main([*argv, "--seed", "1"]) == 1
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert cli_main(argv) == 0

    def test_format_error_is_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "cube.json"
        bad.write_text("{not json")
        rc = cli_main(
            ["segment", "--cube", str(bad), "--out", str(tmp_path / "p.txt")]
        )
        assert rc == 2

    def test_config_key_given_twice_is_exit_two(self, demo_dir, capsys):
        config = demo_dir / "run.cfg"
        config.write_text("superpixels = 4\nsuperpixels = 16\n")
        out = demo_dir / "p.txt"
        rc = cli_main(["segment", "--config", str(config), "--cube", str(demo_dir / "cube.json"),
                       "--out", str(out)])
        assert rc == 2
        assert "run.cfg:2: key 'superpixels' given twice" in capsys.readouterr().err
        assert not out.exists()

    def test_non_string_data_path_is_exit_two(self, demo_dir, capsys):
        manifest_path = demo_dir / "cube.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["data_path"] = 5
        manifest_path.write_text(json.dumps(manifest))
        out = demo_dir / "p.txt"
        rc = cli_main(["segment", "--cube", str(manifest_path), "--out", str(out)])
        assert rc == 2
        assert "data_path must be a string" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_is_exit_two(self, tmp_path, capsys):
        rc = cli_main(
            [
                "segment",
                "--cube",
                str(tmp_path / "nope.json"),
                "--out",
                str(tmp_path / "p.txt"),
            ]
        )
        assert rc == 2

    def test_config_with_a_directory_part_is_a_path(self, demo_dir, capsys):
        argv = ["segment", "--cube", str(demo_dir / "cube.json"), "--out", str(demo_dir / "p.txt")]
        missing = demo_dir / "nonexistent" / "indian_pines.cfg"
        assert cli_main([*argv, "--config", str(missing)]) == 2
        assert f"No such file or directory: '{missing}'" in capsys.readouterr().err
        assert not (demo_dir / "p.txt").exists()
        # A bare name still falls back to the shipped preset (64 superpixels).
        for name in ("indian_pines", "indian_pines.cfg"):
            assert cli_main([*argv, "--config", name]) == 0
            assert capsys.readouterr().out == "segment: 64 superpixels\n"

    def test_empty_config_name_is_a_missing_file(self, demo_dir, capsys):
        # The preset directory is no preset: the error names the value given.
        argv = ["segment", "--cube", str(demo_dir / "cube.json"), "--out", str(demo_dir / "p.txt")]
        assert cli_main([*argv, "--config", ""]) == 2
        err = capsys.readouterr().err
        assert "No such file or directory: ''" in err and "configs" not in err
        assert not (demo_dir / "p.txt").exists()

    def test_decompose_strict_writes_its_files_then_exits_three(self, demo_dir, capsys):
        part = str(demo_dir / "partition.txt")
        cube = str(demo_dir / "cube.json")
        assert cli_main(["segment", "--cube", cube, "--out", part, "--superpixels", "4"]) == 0
        out = demo_dir / "d"
        rc = cli_main(["decompose", "--cube", cube, "--partition", part, "--out-dir", str(out),
                       "--lambda", "0.1667", "--max-iter", "2", "--strict"])
        assert rc == 3
        assert "solver did not converge (--strict)" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["E.json", "E.raw", "L.json", "L.raw", "trace.csv"]

    def test_decompose_partition_of_another_shape_is_exit_two(self, demo_dir, capsys):
        part = demo_dir / "part.txt"
        spio.write_raster(np.ones((12, 13), int), str(part))
        before = sorted(os.listdir(demo_dir))
        rc = cli_main(["decompose", "--cube", str(demo_dir / "cube.json"), "--partition", str(part),
                       "--out-dir", str(demo_dir / "d")])
        assert rc == 2
        assert (f"error: shapes differ: {part} (12, 13), {demo_dir / 'cube.json'} (12, 12)"
                in capsys.readouterr().err)
        assert sorted(os.listdir(demo_dir)) == before

    def test_metrics_rasters_of_different_shapes_are_exit_two(self, demo_dir, capsys):
        pred = demo_dir / "pred.txt"
        spio.write_raster(np.ones((12, 13), int), str(pred))
        truth = demo_dir / "truth.txt"
        assert cli_main(["metrics", str(pred), str(truth), "--out", str(demo_dir / "m.json")]) == 2
        assert f"error: shapes differ: {pred} (12, 13), {truth} (12, 12)" in capsys.readouterr().err
        assert not (demo_dir / "m.json").exists()

    def test_metrics_unlabeled_prediction_on_a_scored_pixel_is_exit_two(self, demo_dir, capsys):
        truth = demo_dir / "truth.txt"
        pred_grid = spio.load_raster(str(truth))
        scored = np.flatnonzero(pred_grid.ravel() > 0)[0]
        pred_grid.ravel()[scored] = 0
        pred = demo_dir / "pred.txt"
        spio.write_raster(pred_grid, str(pred))
        assert cli_main(["metrics", str(pred), str(truth), "--out", str(demo_dir / "m.json")]) == 2
        assert f"error: {pred}: predictions are unlabeled on scored pixels" in capsys.readouterr().err
        assert not (demo_dir / "m.json").exists()

    def test_strict_flags_nonconvergence(self, demo_dir, capsys):
        rc = cli_main(
            classify_args(demo_dir, "strict", extra=["--strict", "--max-iter", "2"])
        )
        assert rc == 3

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_knn_k_below_one_is_exit_two(self, demo_dir, capsys, k):
        rc = cli_main(classify_args(demo_dir, "out", extra=["--classifier", "knn", f"--knn-k={k}"]))
        assert rc == 2
        assert "knn_k" in capsys.readouterr().err

    def test_unknown_classifier_is_exit_two_before_the_run(self, demo_dir, capsys, monkeypatch):
        segments = []
        real_segment = spdlrr.pipeline.segment
        monkeypatch.setattr(spdlrr.pipeline, "segment", lambda *a: segments.append(a) or real_segment(*a))
        before = sorted(os.listdir(demo_dir))
        rc = cli_main(classify_args(demo_dir, "out", extra=["--classifier", "foo"]))
        assert rc == 2
        assert "unknown classifier kind 'foo'" in capsys.readouterr().err
        assert segments == [] and sorted(os.listdir(demo_dir)) == before

    def test_split_with_no_test_pixel_is_exit_two_before_the_run(self, demo_dir, capsys, monkeypatch):
        # One labeled pixel per class: split trains on every one of them.
        spio.write_raster(np.arange(1, 145).reshape(12, 12), str(demo_dir / "truth.txt"))
        segments = []
        monkeypatch.setattr(spdlrr.pipeline, "segment", lambda *a: segments.append(a))
        rc = cli_main(classify_args(demo_dir, "out"))
        assert rc == 2
        assert "leaves no test pixel: every labeled pixel is a training pixel" in capsys.readouterr().err
        assert segments == [] and not (demo_dir / "out").exists()

    MU0_RULE = "need 0 < mu0 < mu_max, with lambda / mu0, beta / mu0 and 1 / (2 mu0) finite"

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("classify", ["--superpixels", "0"], "superpixels must be at least 1, not 0"),
            ("classify", ["--percent", "1.5"], "percent must lie strictly between 0 and 1, not 1.5"),
            ("segment", ["--superpixels", "0"], "superpixels must be at least 1, not 0"),
            ("classify", ["--seed", "-1"], "seed must be non-negative, not -1"),
            ("classify", ["--mu0", "1e-320"], MU0_RULE),
            ("classify", ["--beta", "1e308"], MU0_RULE),
            ("classify", ["--delta", "0"], "delta must lie in (0, 1], not 0.0"),
            ("classify", ["--m-split", "0"], "m_split must be at least 1, not 0"),
            ("classify", ["--t-max", "0"], "t_max must be at least 1, not 0"),
        ],
        ids=["classify-superpixels", "classify-percent", "segment-superpixels", "classify-seed",
             "classify-mu0", "classify-beta", "classify-delta", "classify-m-split", "classify-t-max"],
    )
    def test_bad_count_or_fraction_is_exit_two_before_the_run(
        self, demo_dir, capsys, monkeypatch, command, flags, message
    ):
        calls = []
        for module, name in [(spio, "load_cube"), *((m, n) for m in (spdlrr.pipeline, cli)
                                                    for n in ("project_base_image", "segment"))]:
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real: calls.append(a) or real(*a))
        if command == "classify":
            argv = classify_args(demo_dir, "out", extra=flags)
        else:
            argv = ["segment", "--cube", str(demo_dir / "cube.json"), "--out", str(demo_dir / "p.txt")]
            argv += flags
        before = sorted(os.listdir(demo_dir))
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == [] and sorted(os.listdir(demo_dir)) == before

    def test_too_many_classes_fail_before_the_run(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        spio.write_cube(spdlrr.HsiCube(16, 32, rng.random((4, 512))), str(tmp_path / "cube.json"))
        labels = (np.arange(512) // 2 + 1).reshape(16, 32)  # 256 two-pixel classes
        spio.write_raster(labels, str(tmp_path / "truth.txt"))
        out = tmp_path / "out"
        rc = cli_main(
            [
                "classify",
                "--cube",
                str(tmp_path / "cube.json"),
                "--labels",
                str(tmp_path / "truth.txt"),
                "--out-dir",
                str(out),
                "--seed",
                "7",
            ]
        )
        assert rc == 2
        assert "256 classes do not fit 255 distinct gray levels" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_diverged_solve_is_exit_two(self, demo_dir, capsys, monkeypatch, value):
        real_update_E = solver.update_E

        def corrupted(state, x, lam):
            real_update_E(state, x, lam)
            state.E[0, 0] = value

        monkeypatch.setattr(solver, "update_E", corrupted)
        spio.write_raster(np.zeros((12, 12), int), str(demo_dir / "part.txt"))
        out = demo_dir / "out"
        rc = cli_main(
            ["decompose", "--cube", str(demo_dir / "cube.json"), "--partition",
             str(demo_dir / "part.txt"), "--out-dir", str(out)]
        )
        assert rc == 2
        assert "iteration 1: residuals" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("shape", [(12, 13), (13, 12), (16, 9), (10, 10)], ids="{0[0]}x{0[1]}".format)
    def test_label_raster_of_another_shape_is_exit_two(self, demo_dir, capsys, shape):
        _, labels = two_class_cube(height=shape[0], width=shape[1], seed=0)
        spio.write_raster(labels.labels, str(demo_dir / "truth.txt"))
        out = demo_dir / "out"
        assert cli_main(classify_args(demo_dir, "out")) == 2
        assert "error: shapes differ: labels (%d, %d), cube (12, 12)" % shape in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["classify", "decompose", "segment"])
    def test_out_of_memory_is_exit_two(self, demo_dir, capsys, monkeypatch, command):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 9.9 GiB")

        monkeypatch.setattr(spio, "load_cube", no_memory)
        spio.write_raster(np.zeros((12, 12), int), str(demo_dir / "part.txt"))
        before = sorted(os.listdir(demo_dir))
        argv = {
            "classify": classify_args(demo_dir, "out"),
            "decompose": ["decompose", "--cube", str(demo_dir / "cube.json"), "--partition",
                          str(demo_dir / "part.txt"), "--out-dir", str(demo_dir / "out")],
            "segment": ["segment", "--cube", str(demo_dir / "cube.json"), "--out", str(demo_dir / "out")],
        }[command]
        assert cli_main(argv) == 2
        assert "error: out of memory: Unable to allocate 9.9 GiB" in capsys.readouterr().err
        assert sorted(os.listdir(demo_dir)) == before

    @pytest.mark.parametrize("flag", ["--rho", "--eps", "--lambda", "--beta"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_solver_flag_is_exit_two(self, demo_dir, capsys, monkeypatch, flag, value):
        def no_work(*args):
            raise AssertionError("loaded a file")

        monkeypatch.setattr(spio, "load_cube", no_work)
        out = demo_dir / "out"
        rc = cli_main(classify_args(demo_dir, "out", extra=[flag, value]))
        assert rc == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0


# Values at the edges of each option type (Claessen & Hughes, QuickCheck).
EDGE_VALUES = {
    float: [0.0, 1.0, -1.0, 5e-324, 1e308, math.inf, -math.inf, math.nan],
    int: [-1, 0, 1, 2],
}
EDGE_OPTIONS = [(key, v) for key, t in spio.CONFIG_KEYS.items() if t in EDGE_VALUES for v in EDGE_VALUES[t]]


class TestOptionEdges:
    """Each numeric option at its type's edges, one at a time, on top of a
    short classify run on the demo scene: cli_main returns a documented
    exit code and raises nothing, a failed run writes nothing, and an exit
    2 names the option."""

    runs = itertools.count()

    @pytest.fixture(scope="class")
    def scene(self, tmp_path_factory):
        cube, labels = two_class_cube(seed=0)
        work = tmp_path_factory.mktemp("edges")
        spio.write_cube(cube, str(work / "cube.json"))
        spio.write_raster(labels.labels, str(work / "truth.txt"))
        return work

    # Hypothesis stops once it has drawn every case, after about 1 s.
    @settings(max_examples=4 * len(EDGE_OPTIONS), deadline=2000)
    @given(option=st.sampled_from(EDGE_OPTIONS))
    def test_exit_code_is_documented_and_a_failed_run_writes_nothing(self, scene, option):
        key, value = option
        out_name = f"out-{next(self.runs)}"
        base = ["--t-max", "1", "--max-iter", "5"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(classify_args(scene, out_name, extra=[*base, f"--{key.replace('_', '-')}={value!r}"]))
        assert rc in (0, 1, 2, 3, 4)
        if rc in (1, 2):
            out = scene / out_name
            assert not out.exists() or not any(out.iterdir())
        if rc == 2:  # the message names the option at fault
            assert err.getvalue().startswith("error: ") and key in err.getvalue()


class TestSegmentCommand:
    def test_raster_is_loadable(self, demo_dir, capsys):
        out = demo_dir / "part.txt"
        rc = cli_main(
            [
                "segment",
                "--cube",
                str(demo_dir / "cube.json"),
                "--out",
                str(out),
                "--superpixels",
                "4",
            ]
        )
        assert rc == 0
        part = spio.load_partition(str(out))
        assert part.count == 4
        assert part.labels.shape == (12, 12)


class TestDecomposeCommand:
    def test_recovers_planted_low_rank(self, tmp_path, capsys):
        x, l0, e0 = rpca_instance(seed=0)
        from spdlrr import HsiCube

        # One 10x20 image whose 100 "bands" hold the synthetic matrix.
        cube = HsiCube(10, 20, x)
        spio.write_cube(cube, str(tmp_path / "cube.json"))
        spio.write_raster(np.zeros((10, 20), int), str(tmp_path / "part.txt"))
        rc = cli_main(
            [
                "decompose",
                "--cube",
                str(tmp_path / "cube.json"),
                "--partition",
                str(tmp_path / "part.txt"),
                "--out-dir",
                str(tmp_path / "out"),
                "--lambda",
                repr(RPCA_LAM),
                "--beta",
                "0",
                "--max-iter",
                "300",
            ]
        )
        assert rc == 0
        restored = spio.load_cube(str(tmp_path / "out" / "L.json"))
        rel = np.linalg.norm(restored.x - l0) / np.linalg.norm(l0)
        assert rel <= 1e-3
        trace_lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        assert trace_lines[0] == "iter,r1,r2,objective,mu"
        assert len(trace_lines) > 10


class TestClassifyCommand:
    def test_outputs_and_metrics(self, demo_dir, capsys):
        rc = cli_main(classify_args(demo_dir, "out"))
        assert rc == 0
        out = demo_dir / "out"
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"oa", "aa", "kappa", "per_class", "confusion"}
        assert metrics["oa"] >= 0.95
        for name in ("predictions.txt", "map.pgm", "map.pgm.palette.txt"):
            assert (out / name).exists()
        assert (out / "trace_1.csv").exists() and (out / "trace_3.csv").exists()
        # Predictions carry the source label ids and score cleanly.
        rc = cli_main(
            [
                "metrics",
                str(out / "predictions.txt"),
                str(demo_dir / "truth.txt"),
                "--out",
                str(demo_dir / "scored.json"),
            ]
        )
        assert rc == 0
        scored = json.loads((demo_dir / "scored.json").read_text())
        assert scored["oa"] >= 0.95

    def test_byte_identical_reruns(self, demo_dir, capsys):
        assert cli_main(classify_args(demo_dir, "a")) == 0
        assert cli_main(classify_args(demo_dir, "b")) == 0
        for name in (
            "predictions.txt",
            "map.pgm",
            "map.pgm.palette.txt",
            "metrics.json",
            "trace_1.csv",
            "trace_2.csv",
            "trace_3.csv",
        ):
            a = (demo_dir / "a" / name).read_bytes()
            b = (demo_dir / "b" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_outputs_independent_of_blas_threads(self, demo_dir):
        """Each run is a fresh process, so the thread count is read when
        numpy loads."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(spdlrr.__file__)))
        outputs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = threads
            argv = classify_args(demo_dir, f"threads_{threads}")
            done = subprocess.run(
                [sys.executable, "-m", "spdlrr.cli", *argv],
                env=env,
                capture_output=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            out = demo_dir / f"threads_{threads}"
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            outputs[threads] = (done.stdout, files)
        assert len(outputs["1"][1]) == 7
        assert outputs["1"] == outputs["2"]

    def test_config_seed_equals_flag_seed(self, demo_dir, capsys):
        cfg = demo_dir / "run.cfg"
        cfg.write_text("seed = 7\n")
        assert cli_main(classify_args(demo_dir, "flag")) == 0
        args = classify_args(demo_dir, "config", extra=["--config", str(cfg)])
        args.remove("--seed")
        args.remove("7")
        assert cli_main(args) == 0
        files = sorted(p.name for p in (demo_dir / "flag").iterdir())
        assert files == sorted(p.name for p in (demo_dir / "config").iterdir())
        for name in files:
            assert (demo_dir / "flag" / name).read_bytes() == (demo_dir / "config" / name).read_bytes()

    def test_predictions_carry_the_original_class_ids(self, demo_dir, capsys):
        truth = spio.load_raster(str(demo_dir / "truth.txt"))
        original = np.array([0, 9, 4])  # dense ids 1 and 2 in order of first appearance
        assert truth.ravel()[truth.ravel() > 0][0] == 1
        spio.write_raster(original[truth], str(demo_dir / "truth.txt"))
        assert cli_main(classify_args(demo_dir, "renamed")) == 0
        spio.write_raster(truth, str(demo_dir / "truth.txt"))
        assert cli_main(classify_args(demo_dir, "dense")) == 0
        dense = spio.load_raster(str(demo_dir / "dense" / "predictions.txt"))
        renamed = spio.load_raster(str(demo_dir / "renamed" / "predictions.txt"))
        np.testing.assert_array_equal(renamed, original[dense])
        for name in ("map.pgm", "metrics.json"):
            assert (demo_dir / "renamed" / name).read_bytes() == (demo_dir / "dense" / name).read_bytes()

    def test_config_file_supplies_defaults_and_flags_override(self, demo_dir, capsys):
        cfg = demo_dir / "run.cfg"
        cfg.write_text(
            "\n".join(
                [
                    f"cube = {demo_dir / 'cube.json'}",
                    f"labels = {demo_dir / 'truth.txt'}",
                    f"out_dir = {demo_dir / 'cfg_out'}",
                    f"lambda = {CUBE_LAM}",
                    "superpixels = 4",
                    "delta = 0.7",
                    "m_split = 2",
                    "percent = 0.10",
                ]
            )
            + "\n"
        )
        rc = cli_main(
            ["classify", "--config", str(cfg), "--seed", "7", "--t-max", "1"]
        )
        assert rc == 0
        out = demo_dir / "cfg_out"
        assert (out / "trace_1.csv").exists()
        assert not (out / "trace_2.csv").exists()  # --t-max flag overrode default


class TestLambdaFloorWarning:
    """A block of L that is exactly zero prints one stderr line; under
    --strict, a classify run whose L is zero in every block exits 4 (README,
    Limits)."""

    WARNING = "warning: L is zero in {} of {} blocks ({} of pixels): blocks under the lambda floor"

    def preset_args(self, demo_dir, *extra):
        return ["classify", "--config", "indian_pines", "--cube", str(demo_dir / "cube.json"),
                "--labels", str(demo_dir / "truth.txt"), "--out-dir", str(demo_dir / "out"),
                "--seed", "7", *extra]

    def decompose(self, demo_dir, partition, *extra):
        spio.write_raster(partition, str(demo_dir / "part.txt"))
        return cli_main(["decompose", "--cube", str(demo_dir / "cube.json"), "--partition",
                         str(demo_dir / "part.txt"), "--out-dir", str(demo_dir / "d"), *extra])

    @pytest.mark.parametrize("strict", [False, True])
    def test_preset_on_the_demo_scene(self, demo_dir, capsys, strict):
        rc = cli_main(self.preset_args(demo_dir, *(["--strict"] if strict else [])))
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith(self.WARNING.format(66, 66, "100.0%"))
        if strict:
            assert (rc, lines[1:]) == (4, ["L is zero in every block (--strict)"])
        else:
            assert (rc, lines[1:]) == (0, [])
        # The files are written before the exit code is chosen.
        assert (demo_dir / "out" / "metrics.json").exists()

    def test_golden_flags_print_nothing(self, demo_dir, capsys):
        assert cli_main(classify_args(demo_dir, "out", extra=["--strict"])) == 0
        assert capsys.readouterr().err == ""
        assert cli_main(["segment", "--cube", str(demo_dir / "cube.json"), "--out",
                         str(demo_dir / "p4.txt"), "--superpixels", "4"]) == 0
        partition = spio.load_partition(str(demo_dir / "p4.txt")).labels
        assert self.decompose(demo_dir, partition, "--lambda", str(CUBE_LAM), "--strict") == 0
        assert capsys.readouterr().err == ""

    def test_decompose_counts_blocks_and_pixels(self, demo_dir, capsys):
        partition = np.ones((12, 12), int)
        partition[0, 0] = 0  # one pixel, far under the floor of 6 px at lambda = 1/6
        assert self.decompose(demo_dir, partition, "--lambda", str(CUBE_LAM), "--strict") == 0
        err = capsys.readouterr().err
        assert err.startswith(self.WARNING.format(1, 2, "0.7%")) and err.count("\n") == 1

    def test_decompose_all_zero_warns_but_succeeds_under_strict(self, demo_dir, capsys):
        # 144 px against a floor of 1/(0.01**2 * 6) = 1667 px at the default
        # lambda: X = E is the model's solution there, and decompose wrote it.
        assert self.decompose(demo_dir, np.zeros((12, 12), int), "--strict") == 0
        err = capsys.readouterr().err
        assert err.startswith(self.WARNING.format(1, 1, "100.0%")) and err.count("\n") == 1

    @pytest.mark.parametrize(
        "extra, stop",
        [
            (["--max-iter", "1"], "did not converge after 1"),
            (["--eps", "1e308"], "converged after 1"),
            (["--eps", "1e-320", "--max-iter", "3"], "did not converge after 3"),
        ],
    )
    def test_zero_blocks_over_the_floor_name_the_solve(self, demo_dir, capsys, extra, stop):
        # The golden flags' 4 blocks of about 36 px clear the floor of 6 px:
        # the early stop, not lambda, leaves L zero.
        assert cli_main(classify_args(demo_dir, "out", extra=extra)) == 0
        assert capsys.readouterr().err == (
            "warning: L is zero in 4 of 4 blocks (100.0% of pixels): "
            f"4 of them not under the lambda floor; the solve {stop} iterations\n"
        )

    def test_only_blocks_over_the_floor_count_against_the_solve(self, demo_dir, capsys):
        partition = np.ones((12, 12), int)
        partition[0, 0] = 0  # 1 px under the floor of 6 px, 143 px over it
        assert self.decompose(demo_dir, partition, "--lambda", str(CUBE_LAM), "--max-iter", "1") == 0
        assert capsys.readouterr().err == (
            "warning: L is zero in 2 of 2 blocks (100.0% of pixels): "
            "1 of them not under the lambda floor; the solve did not converge after 1 iterations\n"
        )


class TestMetricsCommand:
    def test_scores_original_ids_consistently(self, tmp_path, capsys):
        truth = np.array([[0, 2, 2], [5, 5, 2]])
        pred = np.array([[2, 2, 5], [5, 5, 2]])
        spio.write_raster(truth, str(tmp_path / "t.txt"))
        spio.write_raster(pred, str(tmp_path / "p.txt"))
        rc = cli_main(["metrics", str(tmp_path / "p.txt"), str(tmp_path / "t.txt")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        # 5 labeled pixels, 4 correct; the unlabeled corner is ignored.
        assert payload["oa"] == pytest.approx(0.8)
        assert payload["confusion"] == [[2, 1], [0, 2]]

    def test_class_order_follows_truth(self, tmp_path, capsys):
        # The predictions meet id 2 first; the truth meets 5 first and wins.
        spio.write_raster(np.array([[5, 5, 2]]), str(tmp_path / "t.txt"))
        spio.write_raster(np.array([[2, 5, 2]]), str(tmp_path / "p.txt"))
        rc = cli_main(["metrics", str(tmp_path / "p.txt"), str(tmp_path / "t.txt")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["per_class"] == [0.5, 1.0]
        assert payload["confusion"] == [[1, 1], [0, 1]]

    def test_shape_mismatch_rejected(self, tmp_path, capsys):
        spio.write_raster(np.ones((2, 2), int), str(tmp_path / "t.txt"))
        spio.write_raster(np.ones((2, 3), int), str(tmp_path / "p.txt"))
        rc = cli_main(["metrics", str(tmp_path / "p.txt"), str(tmp_path / "t.txt")])
        assert rc == 2


class _Captured(Exception):
    pass


def _other_value(f):
    """A valid value of the config field f other than its default."""
    if f.type is str:
        return {"classifier": "knn"}[f.name]
    return f.default + 1 if f.type is int else f.default * 1.5


SCALAR_FIELDS = [
    pytest.param(cls, key, f, id=key)
    for cls in (PipelineConfig, DlrrParams)
    for key, f in spio.config_fields(cls).items()
]


class TestDefaults:
    """The dataclasses are the only source of defaults: the CLI passes on
    only what a flag or the config file supplies."""

    @pytest.fixture()
    def calls(self, monkeypatch, demo_dir):
        calls = {}

        def capture(name):
            def fake(*args):
                calls[name] = args
                raise _Captured()

            return fake

        monkeypatch.setattr(cli, "run", capture("run"))
        monkeypatch.setattr(cli, "solve", capture("solve"))
        monkeypatch.setattr(cli, "segment", capture("segment"))
        spio.write_raster(np.zeros((12, 12), int), str(demo_dir / "part.txt"))
        return calls

    def classify(self, demo_dir, *extra):
        argv = ["classify", "--cube", str(demo_dir / "cube.json"), "--labels"]
        argv += [str(demo_dir / "truth.txt"), "--out-dir", str(demo_dir / "o"), *extra]
        with pytest.raises(_Captured):
            cli_main(argv)

    def test_no_flags_no_config(self, demo_dir, calls):
        self.classify(demo_dir, "--seed", "7")
        assert calls["run"][2] == PipelineConfig(seed=7)
        with pytest.raises(_Captured):
            cli_main(
                ["decompose", "--cube", str(demo_dir / "cube.json"), "--partition"]
                + [str(demo_dir / "part.txt"), "--out-dir", str(demo_dir / "d")]
            )
        assert calls["solve"][2] == DlrrParams()
        with pytest.raises(_Captured):
            cli_main(["segment", "--cube", str(demo_dir / "cube.json"), "--out", "s.txt"])
        assert calls["segment"][1:] == (PipelineConfig().initial_superpixels,)

    def test_flag_beats_config_beats_default(self, demo_dir, calls):
        cfg = demo_dir / "run.cfg"
        cfg.write_text("lambda = 0.2\ndelta = 0.8\n")
        self.classify(demo_dir, "--seed", "7", "--config", str(cfg))
        config = calls["run"][2]
        assert (config.dlrr.lam, config.delta) == (0.2, 0.8)
        assert config == PipelineConfig(delta=0.8, dlrr=DlrrParams(lam=0.2), seed=7)
        self.classify(
            demo_dir, "--seed", "7", "--config", str(cfg), "--lambda", "0.3", "--delta", "0.9"
        )
        config = calls["run"][2]
        assert (config.dlrr.lam, config.delta) == (0.3, 0.9)

    def test_seed_flag_beats_config_seed(self, demo_dir, calls):
        cfg = demo_dir / "run.cfg"
        cfg.write_text("seed = 3\n")
        self.classify(demo_dir, "--config", str(cfg), "--seed", "7")
        assert calls["run"][2] == PipelineConfig(seed=7)

    @pytest.mark.parametrize("source", ["config", "flag"])
    @pytest.mark.parametrize("cls, key, f", SCALAR_FIELDS)
    def test_every_scalar_field_is_an_option(self, demo_dir, calls, cls, key, f, source):
        value = _other_value(f)
        if source == "config":
            (demo_dir / "run.cfg").write_text(f"{key} = {value}\n")
            option = ["--config", str(demo_dir / "run.cfg")]
        else:
            option = ["--" + key.replace("_", "-"), str(value)]
        self.classify(demo_dir, *(["--seed", "7"] if key != "seed" else []), *option)
        if cls is DlrrParams:
            expected = PipelineConfig(seed=7, dlrr=DlrrParams(**{f.name: value}))
            with pytest.raises(_Captured):
                cli_main(
                    ["decompose", "--cube", str(demo_dir / "cube.json"), "--partition"]
                    + [str(demo_dir / "part.txt"), "--out-dir", str(demo_dir / "d"), *option]
                )
            assert calls["solve"][2] == expected.dlrr
        else:
            expected = dataclasses.replace(PipelineConfig(seed=7), **{f.name: value})
        assert calls["run"][2] == expected

import json
import os
import subprocess
import sys

import numpy as np
import pytest

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

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("classify", ["--superpixels", "0"], "initial_superpixels"),
            ("classify", ["--percent", "1.5"], "split_percent"),
            ("segment", ["--superpixels", "0"], "initial_superpixels"),
        ],
        ids=["classify-superpixels", "classify-percent", "segment-superpixels"],
    )
    def test_bad_count_or_fraction_is_exit_two_before_the_run(
        self, demo_dir, capsys, monkeypatch, command, flags, message
    ):
        calls = []
        for module in (spdlrr.pipeline, cli):
            for name in ("project_base_image", "segment"):
                real = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *a, real=real: calls.append(a) or real(*a))
        if command == "classify":
            argv = classify_args(demo_dir, "out", extra=flags)
        else:
            argv = ["segment", "--cube", str(demo_dir / "cube.json"), "--out", str(demo_dir / "p.txt")]
            argv += flags
        before = sorted(os.listdir(demo_dir))
        assert cli_main(argv) == 2
        assert message in capsys.readouterr().err
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
            E = real_update_E(state, x, lam)
            E[0, 0] = value
            return E

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
        defaults = PipelineConfig()
        assert calls["segment"][1:] == (defaults.initial_superpixels, defaults.seed)

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

"""The benchmark's workloads.

Each workload writes a planted scene from the seed to files during set-up,
runs one timed execution through the package's public entry points, and
checks the outputs afterwards against the planted oracle.  Functions are
looked up as module attributes at call time, so a traced run sees every
call.
"""

import contextlib
import csv
import io as _stdio
import os

import numpy as np

from spdlrr import classify, cli, cube, pipeline, superpixel
from spdlrr import io as spio
from spdlrr.classify import LabelField
from spdlrr.cube import HsiCube
from spdlrr.pipeline import PipelineConfig
from spdlrr.solver import DlrrParams

from scenes import SceneSpec, make_scene

EPS = 1e-6  # the solver's default residual tolerance


def _rel_err(estimate, clean):
    return float(np.linalg.norm(estimate - clean) / np.linalg.norm(clean))


def _scores(report):
    return {"oa": report.oa, "aa": report.aa, "kappa": report.kappa}


class Workload:
    """One workload at one seed.  `write_inputs` draws the scene and writes
    the input files and the oracle; `load` reads what the timed section
    takes from memory; `execute` is the timed section; `check` scores its
    outputs and lists every failed output check."""

    name = ""
    root_span = ""
    floors = {}
    ceilings = {}

    def __init__(self, seed, workdir, small=False):
        self.seed = seed
        self.workdir = workdir
        self.small = small

    def path(self, name):
        return os.path.join(self.workdir, name)

    def write_inputs(self):
        raise NotImplementedError

    def load(self):
        pass

    def execute(self):
        raise NotImplementedError

    def check(self, outputs):
        raise NotImplementedError

    def accuracy_problems(self, scores):
        """Scores outside the floors and ceilings set from the seed commit;
        the small scenes, made for the tests, have none."""
        if self.small:
            return []
        problems = [f"{k} {scores[k]:.4f} below floor {v}" for k, v in self.floors.items() if not scores[k] >= v]
        problems += [f"{k} {scores[k]:.4f} above ceiling {v}" for k, v in self.ceilings.items() if not scores[k] <= v]
        return problems


class IpPipeline(Workload):
    """Library run() with the indian_pines preset on a reduced extent."""

    name = "ip-pipeline"
    root_span = "pipeline.run"
    floors = {"oa": 0.7, "aa": 0.7, "kappa": 0.65}
    ceilings = {"rel_err": 0.35}

    def spec(self):
        if self.small:
            return SceneSpec(6, 6, 200, 3, min_class_pixels=6, noise=0.06, library=1)
        # Indian Pines is a patchwork of rectangular crop fields.
        sizes = (2, 4, 5, 9)
        return SceneSpec(
            20, 20, 200, 16, noise=0.06, smoothness=3.0, library=1, field_rows=sizes, field_cols=sizes
        )

    def write_inputs(self):
        scene = make_scene(self.spec(), self.seed)
        np.save(self.path("x.npy"), scene.x)
        np.save(self.path("labels.npy"), scene.labels)
        # The pipeline restores the min-max normalized cube; map the oracle
        # the same way.
        lo, hi = scene.x.min(), scene.x.max()
        np.save(self.path("clean.npy"), (scene.clean - lo) / (hi - lo))

    def load(self):
        spec = self.spec()
        self.cube = HsiCube(spec.height, spec.width, np.load(self.path("x.npy")))
        self.labels = LabelField(np.load(self.path("labels.npy")))
        # indian_pines preset; 100 to 300 pixels per initial superpixel.
        self.config = PipelineConfig(
            t_max=3,
            initial_superpixels=max(1, round(spec.height * spec.width / 130)),
            delta=0.7,
            m_split=5,
            dlrr=DlrrParams(lam=0.05, beta=1.0),
            classifier="nearest-centroid",
            split_percent=0.05,
            seed=self.seed,
        )

    def execute(self):
        return pipeline.run(self.cube, self.labels, self.config)

    def check(self, result):
        scores = _scores(result.metrics)
        scores["rel_err"] = _rel_err(result.l_final, np.load(self.path("clean.npy")))
        problems = self.accuracy_problems(scores)
        if not all(result.converged):
            problems.append(f"rounds converged: {result.converged}")
        if not (np.isfinite(result.l_final).all() and np.isfinite(result.e_final).all()):
            problems.append("L or E not finite")
        x = self.cube.x
        x = (x - x.min()) / (x.max() - x.min())
        gap = float(np.max(np.abs(x - result.l_final - result.e_final)))
        if not gap <= EPS:
            problems.append(f"max|X - L - E| = {gap:.3g} > {EPS}")
        return scores, problems


class PaviaDecompose(Workload):
    """In-process `spdlrr decompose --strict` with the pavia_university
    preset over a few wide blocks."""

    name = "pavia-decompose"
    root_span = "cli.cli_main"
    floors = {"oa": 0.6, "aa": 0.6, "kappa": 0.5}
    ceilings = {"rel_err": 0.45}
    blocks = 3

    def spec(self):
        if self.small:
            return SceneSpec(8, 12, 103, 3, min_class_pixels=8, library=2)
        return SceneSpec(36, 36, 103, 9, cells_per_class=1.5, min_class_pixels=40, library=2)

    def write_inputs(self):
        spec = self.spec()
        scene = make_scene(spec, self.seed)
        np.save(self.path("clean.npy"), scene.clean)
        np.save(self.path("labels.npy"), scene.labels)
        spio.write_cube(HsiCube(spec.height, spec.width, scene.x), self.path("cube.json"))
        # Vertical stripes, one block each.
        cols = np.arange(spec.width) * self.blocks // spec.width
        spio.write_raster(np.broadcast_to(cols, (spec.height, spec.width)), self.path("partition.txt"))

    def load(self):
        self.out_dir = self.path("out")
        self.argv = [
            "decompose",
            "--config",
            "pavia_university",
            "--cube",
            self.path("cube.json"),
            "--partition",
            self.path("partition.txt"),
            "--out-dir",
            self.out_dir,
            "--strict",
        ]

    def execute(self):
        # The CLI's status line is not part of the benchmark's output.
        with contextlib.redirect_stdout(_stdio.StringIO()):
            return cli.cli_main(self.argv)

    def check(self, code):
        if code != 0:
            return {}, [f"exit code {code} under --strict"]
        problems = []
        clean = np.load(self.path("clean.npy"))
        labels = LabelField(np.load(self.path("labels.npy")))
        with open(os.path.join(self.out_dir, "trace.csv"), newline="") as fh:
            last = list(csv.DictReader(fh))[-1]
        if not (float(last["r1"]) <= EPS and float(last["r2"]) <= EPS):
            problems.append(f"last trace row r1={last['r1']} r2={last['r2']}")
        parts = {}
        for part in ("L", "E"):
            x = spio.load_cube(os.path.join(self.out_dir, f"{part}.json")).x
            if x.shape != clean.shape:
                problems.append(f"{part} has shape {x.shape}, expected {clean.shape}")
            parts[part] = x
        # How well the low-rank part separates the classes: nearest centroid
        # trained and scored on every labeled pixel, so no split adds noise.
        labeled = labels.labels > 0
        everything = classify.TrainSplit(labeled, labeled, self.seed, 1.0)
        preds = classify.train_predict(parts["L"], everything, labels, "nearest-centroid")
        scores = _scores(classify.evaluate(preds, labels, labeled))
        scores["rel_err"] = _rel_err(parts["L"], clean)
        return scores, problems + self.accuracy_problems(scores)


class PaviaSegmentClassify(Workload):
    """Load, segment, classify and refine at full Pavia University extent,
    without the solver."""

    name = "pavia-segment-classify"
    root_span = "bench.segment_classify"
    floors = {"oa": 0.85, "aa": 0.8, "kappa": 0.83, "centroid_oa": 0.85}
    ceilings = {"rel_err": 0.25}

    def spec(self):
        common = dict(
            noise=0.03,
            spike_frac=0.002,
            town_area=0.3,
            town_sites=0.85,
            library=2,
        )
        if self.small:
            return SceneSpec(40, 30, 103, 3, cells_per_class=4, labeled_frac=0.5, min_class_pixels=40, **common)
        return SceneSpec(
            610, 340, 103, 9, cells_per_class=100, labeled_frac=0.2, min_class_pixels=200, **common
        )

    def write_inputs(self):
        spec = self.spec()
        scene = make_scene(spec, self.seed)
        lo, hi = scene.x.min(), scene.x.max()
        np.save(self.path("clean.npy"), (scene.clean - lo) / (hi - lo))
        spio.write_cube(HsiCube(spec.height, spec.width, scene.x), self.path("cube.json"))
        spio.write_raster(scene.labels, self.path("labels.txt"))

    def execute(self):
        hsi = spio.load_cube(self.path("cube.json"))
        labels, mapping = spio.load_labels(self.path("labels.txt"))
        hsi = cube.normalize(hsi)
        base = superpixel.project_base_image(hsi)
        initial = superpixel.segment(base, 4 if self.small else 50, self.seed)
        tsplit = classify.split(labels, 0.005, self.seed)
        centroid = classify.train_predict(hsi.x, tsplit, labels, "nearest-centroid")
        knn = classify.train_predict(hsi.x, tsplit, labels, "knn", k=5)
        guided = knn.labels.copy()
        guided[tsplit.train_mask] = labels.labels[tsplit.train_mask]
        refined = superpixel.refine(initial, LabelField(guided), 0.2, 3, base, self.seed)
        report_centroid = classify.evaluate(centroid, labels, tsplit.test_mask)
        report = classify.evaluate(knn, labels, tsplit.test_mask)
        back = np.zeros(labels.n_classes + 1, dtype=np.int64)
        for orig, dense in mapping.items():
            back[dense] = orig
        predicted = back[knn.labels]
        spio.write_raster(predicted, self.path("predictions.txt"))
        spio.render_map(knn, self.path("map.pgm"), n_classes=labels.n_classes, class_ids=back.tolist())
        return {
            "x": hsi.x,
            "initial": initial,
            "refined": refined,
            "predicted": predicted,
            "report": report,
            "report_centroid": report_centroid,
        }

    def check(self, out):
        problems = []
        for key in ("initial", "refined"):
            try:
                out[key].validate()
            except ValueError as exc:
                problems.append(f"{key} partition: {exc}")
        if not np.array_equal(spio.load_raster(self.path("predictions.txt")), out["predicted"]):
            problems.append("predictions raster does not read back")
        # Restoration by superpixel means: how well the refined partition
        # follows the planted fields.
        flat = out["refined"].labels.ravel()
        counts = np.bincount(flat)
        means = np.stack([np.bincount(flat, weights=band) for band in out["x"]]) / counts
        scores = _scores(out["report"])
        scores["rel_err"] = _rel_err(means[:, flat], np.load(self.path("clean.npy")))
        scores["centroid_oa"] = out["report_centroid"].oa
        return scores, problems + self.accuracy_problems(scores)


WORKLOADS = {w.name: w for w in (IpPipeline, PaviaDecompose, PaviaSegmentClassify)}

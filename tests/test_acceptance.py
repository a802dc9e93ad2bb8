"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured numbers (run with -s or check captured
output)."""

import json

import numpy as np
import pytest

from spdlrr import (
    DlrrParams,
    LabelField,
    HsiCube,
    metrics_from_confusion,
    nuclear_norm,
    refine,
    segment,
    solve,
)
from spdlrr import io as spio
from spdlrr.cli import cli_main
from spdlrr.superpixel import SuperpixelPartition

from test_solver import reference_blocks, reference_three_term_ialm, steps
from test_superpixel import assert_partition_invariants


def _line(criterion, passed, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


def objective_span(trace, last=5):
    tail = np.array(trace.objective[-last:])
    return float((tail.max() - tail.min()) / max(1.0, abs(tail[-1])))


def test_criterion_1_rpca_reduction(rpca_result):
    rel = np.linalg.norm(rpca_result["L"] - rpca_result["l0"]) / np.linalg.norm(
        rpca_result["l0"]
    )
    iters = rpca_result["trace"].iterations
    elapsed = rpca_result["elapsed"]
    converged = rpca_result["converged"]
    ok = rel <= 1e-3 and converged and iters <= 300 and elapsed <= 5.0
    _line(1, ok, f"rel_err={rel:.2e} iters={iters} time={elapsed:.2f}s")
    assert rel <= 1e-3
    assert converged and iters <= 300
    assert elapsed <= 5.0


def test_criterion_2_cross_oracle_block_equivalence(four_block_instance):
    x, labels, lam = four_block_instance
    n_iter = 30
    params = DlrrParams(lam=lam, beta=0.0, max_iter=n_iter, eps=1e-30)
    recorded = [(st.L.copy(), st.E.copy()) for st, _ in steps(x, labels, params)]
    assert len(recorded) == n_iter
    worst = 0.0
    for k, cols in enumerate(reference_blocks(labels)):
        reference = reference_three_term_ialm(
            x[:, cols], lam, params.mu0, params.rho, params.mu_max, n_iter
        )
        for it in range(n_iter):
            worst = max(
                worst,
                float(np.max(np.abs(recorded[it][0][:, cols] - reference[it][0]))),
                float(np.max(np.abs(recorded[it][1][:, cols] - reference[it][1]))),
            )
    ok = worst <= 1e-10
    _line(2, ok, f"worst per-iterate gap={worst:.2e} over {n_iter} iterations x 4 blocks")
    assert worst <= 1e-10


def test_criterion_3_convergence_behavior(
    rpca_result, subspace_results, pipeline_results, four_block_instance
):
    traces = {"rpca": rpca_result["trace"]}
    for beta in (0.0, 1.0):
        traces[f"two-subspace beta={beta}"] = subspace_results[beta][2]
        assert subspace_results[beta][3]
    x, labels, lam = four_block_instance
    _, _, tr, conv = solve(x, labels, DlrrParams(lam=lam, beta=0.0, max_iter=300))
    assert conv
    traces["four-block"] = tr
    for t, tr_p in enumerate(pipeline_results[1.0].traces, 1):
        traces[f"pipeline round {t}"] = tr_p
    details = []
    ok = True
    for name, trace in traces.items():
        span = objective_span(trace)
        good = (
            trace.iterations <= 300
            and trace.r1[-1] <= 1e-6
            and trace.r2[-1] <= 1e-6
            and span < 1e-6
        )
        ok = ok and good
        details.append(f"{name}: iters={trace.iterations} span={span:.1e}")
        assert trace.iterations <= 300, name
        assert trace.r1[-1] <= 1e-6 and trace.r2[-1] <= 1e-6, name
        assert span < 1e-6, f"{name}: objective span {span:.2e}"
    _line(3, ok, "; ".join(details))


def test_criterion_4_discriminability_ablation(subspace_results, pipeline_results):
    nuc0 = nuclear_norm(subspace_results[0.0][0])
    nuc1 = nuclear_norm(subspace_results[1.0][0])
    oa0 = pipeline_results[0.0].metrics.oa
    oa1 = pipeline_results[1.0].metrics.oa
    ok = nuc1 > nuc0 and oa1 >= oa0
    _line(4, ok, f"nuclear {nuc1:.3f} > {nuc0:.3f}; OA {oa1:.4f} >= {oa0:.4f}")
    assert nuc1 > nuc0
    assert oa1 >= oa0


def test_criterion_5_pipeline_end_to_end(pipeline_results):
    metrics = pipeline_results[1.0].metrics
    elapsed = pipeline_results["elapsed_1.0"]
    ok = metrics.oa >= 0.95 and metrics.kappa >= 0.90 and elapsed <= 30.0
    _line(5, ok, f"OA={metrics.oa:.4f} kappa={metrics.kappa:.4f} time={elapsed:.1f}s")
    assert metrics.oa >= 0.95
    assert metrics.kappa >= 0.90
    assert elapsed <= 30.0


def test_criterion_6_superpixel_refinement_properties():
    # Partition invariants on a structured segmentation.
    rng = np.random.default_rng(0)
    img = np.clip(
        np.linspace(0, 1, 12)[:, None] * np.ones((1, 12))
        + 0.2 * rng.uniform(size=(12, 12)),
        0,
        1,
    )
    part = segment(img, 5, seed=0)
    assert_partition_invariants(part)
    # refine never merges and the constructed half/half superpixel splits
    # into exactly two parts at delta=0.7, m_split=2.
    quad = (np.arange(12)[:, None] >= 6) * 2 + (np.arange(12)[None, :] >= 6)
    parent = SuperpixelPartition(quad.astype(int))
    preds = np.ones((12, 12), int)
    preds[:6, 3:6] = 2
    refined = refine(parent, LabelField(preds), 0.7, 2, np.full((12, 12), 0.5))
    assert_partition_invariants(refined, parent_labels=parent.labels)
    split_children = np.unique(refined.labels[parent.labels == 0])
    others_intact = all(
        np.unique(refined.labels[parent.labels == sid]).size == 1
        for sid in range(1, 4)
    )
    ok = split_children.size == 2 and others_intact and refined.count == 5
    _line(6, ok, f"children={split_children.size} total={refined.count}")
    assert split_children.size == 2
    assert others_intact


def test_criterion_7_metric_oracles():
    report = metrics_from_confusion([[40, 10], [20, 30]])
    ok = (
        abs(report.oa - 0.70) <= 1e-12
        and abs(report.aa - 0.70) <= 1e-12
        and abs(report.kappa - 0.40) <= 1e-12
    )
    _line(7, ok, f"OA={report.oa} AA={report.aa} kappa={report.kappa}")
    assert report.oa == pytest.approx(0.70, abs=1e-12)
    assert report.aa == pytest.approx(0.70, abs=1e-12)
    assert report.kappa == pytest.approx(0.40, abs=1e-12)


def test_criterion_8_preset_runs_on_documented_formats(tmp_path):
    # The shipped presets target public benchmark scenes that are not
    # bundled; the preset must still drive a full run on data supplied in
    # the documented cube/label formats and emit metrics.  The accuracy on
    # this synthetic stand-in is informational, not gated.
    rng = np.random.default_rng(42)
    h = w = 20
    bands = 8
    quadrant = (np.arange(h)[:, None] >= h // 2) * 2 + (np.arange(w)[None, :] >= w // 2)
    bases = [np.linspace(1.0, 0.3, bands) * (1 + 0.3 * k) for k in range(4)]
    x = np.empty((bands, h * w))
    flat_q = quadrant.ravel()
    for k in range(4):
        idx = np.flatnonzero(flat_q == k)
        x[:, idx] = np.outer(bases[k], rng.uniform(0.8, 1.2, idx.size))
    labels = quadrant + 1
    labels[0, :3] = 0  # a few unlabeled pixels
    spio.write_cube(HsiCube(h, w, x), str(tmp_path / "cube.json"))
    spio.write_raster(labels, str(tmp_path / "truth.txt"))
    rc = cli_main(
        [
            "classify",
            "--config",
            "indian_pines",
            "--cube",
            str(tmp_path / "cube.json"),
            "--labels",
            str(tmp_path / "truth.txt"),
            "--out-dir",
            str(tmp_path / "out"),
            "--seed",
            "7",
        ]
    )
    metrics_path = tmp_path / "out" / "metrics.json"
    ok = rc == 0 and metrics_path.exists()
    detail = f"exit={rc}"
    if metrics_path.exists():
        payload = json.loads(metrics_path.read_text())
        detail += f" OA={payload['oa']:.4f} (informational)"
        assert set(payload) >= {"oa", "aa", "kappa"}
    _line(8, ok, detail)
    assert rc == 0
    assert metrics_path.exists()

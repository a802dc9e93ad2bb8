"""Tests of the benchmark itself, on its small scenes:

    python -m pytest bench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import spdlrr  # noqa: E402
import tracing  # noqa: E402
from run import prepare, run_rep  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]
EXACT = (
    "solver.iterations",
    "linalg.svd_calls",
    "solver.peak_alloc_x",
    *(k for k in tracing.LAYER_UNITS if k.startswith("superpixel.count_")),
)


def run_bench(workload, trace, root=ROOT):
    done = subprocess.run(
        [
            sys.executable,
            os.path.join(root, "bench", "run.py"),
            *("--workload", workload, "--seed", "3", "--seconds", "0.5"),
            *("--trace", str(trace), "--small"),
        ],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=root,
    )
    return done


def result_of(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_workloads_match_the_benchmark_file():
    assert sorted(NAMES) == sorted(WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.LAYER_UNITS)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_small_mode_emits_every_metric(workload, trace):
    result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])


@pytest.mark.parametrize("workload", NAMES)
def test_exact_counts_repeat_between_traced_runs(workload):
    first, second = (result_of(run_bench(workload, 1))["metrics"] for _ in range(2))
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}


def test_traced_run_restores_every_wrapper(tmp_path):
    pairs, _ = tracing._targets()
    before = [(module, attr, getattr(module, attr)) for module, attr in pairs]
    workload = WORKLOADS["ip-pipeline"](1, str(tmp_path), small=True)
    prepare(workload)
    tracer = tracing.Tracer()
    rep = run_rep(workload, tracer.run(workload.root_span))
    assert not rep.problems
    assert tracing.layer_metrics(tracer)["solver.iterations"] > 0
    assert spdlrr.solver.svt is spdlrr.linalg.svt
    assert all(getattr(module, attr) is fn for module, attr, fn in before)


def test_removed_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(spdlrr.linalg, "singular_values")
    _, absent = tracing._targets()
    assert absent == ["spdlrr.linalg.singular_values"]
    assert set(tracing.layer_metrics(tracing.Tracer())) | {"trace.overhead_s"} == set(tracing.LAYER_UNITS)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = run_bench(NAMES[0], 0, root=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""

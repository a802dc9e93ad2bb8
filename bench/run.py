#!/usr/bin/env python3
"""Benchmark of the spdlrr pipeline on planted, paper-shaped scenes.

    python3 bench/run.py --workload ip-pipeline --seed 1 --seconds 30 --trace 0

Builds the workload's scene from the seed, sets up several times (the
median is setup_s), then repeats the timed execution while the next one
still fits in --seconds and checks every output.  With --trace 0 it reports
the end-to-end metrics; with --trace 1 it runs untraced and then traced for
half the time each and reports the per-layer metrics.  The last line of
standard output is one JSON object; the lines before it are a readable
summary and the environment record.  Run from anywhere: the package is
imported from the src/ directory next to this one.
"""

import os

# One BLAS thread, pinned before numpy loads; the environment record repeats it.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUPS = 5  # set-ups per run; setup_s is their median

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Output quality, printed with the end-to-end metrics and held to floors by
# the workloads' checks.  It varies more from seed to seed than a bound could
# allow, so the JSON result leaves it out.
SCORE_UNITS = {"oa": "ratio", "aa": "ratio", "kappa": "ratio", "rel_err": "ratio"}


def environment():
    import numpy
    import scipy

    def blas(module):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{deps.get('name')} {deps.get('version')}"
        except (KeyError, TypeError, ValueError):
            return "unknown"

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        commit = done.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


def in_child(fn, *args):
    """fn(*args) in a forked process; returns its result or raises
    RuntimeError with the child's traceback.  What the child allocates does
    not count towards this process's peak RSS."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            try:
                payload = (True, fn(*args))
            except BaseException:
                payload = (False, traceback.format_exc())
            with os.fdopen(write, "wb") as fh:
                pickle.dump(payload, fh)
        finally:
            os._exit(0)
    os.close(write)
    try:
        with os.fdopen(read, "rb") as fh:
            ok, value = pickle.load(fh)
    finally:
        os.waitpid(pid, 0)
    if not ok:
        raise RuntimeError(value)
    return value


@dataclasses.dataclass
class Rep:
    """One timed execution: its wall time (None if it raised), scores,
    failed checks, and its cost with the checks."""

    wall: float
    scores: dict
    problems: list
    cost: float


def run_rep(workload, around):
    """One timed execution inside the context manager `around`, checked in
    a child process after its timer stops."""
    t0 = time.perf_counter()
    wall = None
    try:
        with around:
            outputs = workload.execute()
        wall = time.perf_counter() - t0
        scores, problems = in_child(workload.check, outputs)
    except Exception:  # a failed operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        scores, problems = {}, [traceback.format_exc(limit=1).strip().splitlines()[-1]]
    return Rep(wall, scores, problems, time.perf_counter() - t0)


def repeat(workload, budget, traced=False):
    """Run reps while the next one, as long as the last, ends within budget;
    with `traced`, each under a new Tracer."""
    reps, tracers = [], []
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer() if traced else None
        reps.append(run_rep(workload, tracer.run(workload.root_span) if traced else contextlib.nullcontext()))
        tracers.append(tracer)
        if time.perf_counter() - start + reps[-1].cost > budget:
            return reps, tracers


def prepare(workload):
    """Write the workload's inputs in a child process, so that the scene
    and its oracle never count towards this process's peak RSS, which is
    left to the timed executions; then load what they take from memory."""
    in_child(workload.write_inputs)
    workload.load()


def setup(cls, seed, small, workdir):
    """Set up SETUPS times from scratch (scene, files and a warm-up run of
    the small instance); returns the last workload and the median time."""
    times = []
    for _ in range(SETUPS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(os.path.join(workdir, "warm"))
        t0 = time.perf_counter()
        # A fixed seed, so that the warm-up's cost does not vary with --seed.
        warm = cls(0, os.path.join(workdir, "warm"), small=True)
        prepare(warm)
        warm.execute()
        workload = cls(seed, workdir, small=small)
        prepare(workload)
        times.append(time.perf_counter() - t0)
    return workload, statistics.median(times)


def layer_values(plain, traced, tracers, peaks):
    """Per-layer metrics: medians over the traced executions that passed
    their checks, the solve memory peaks of the extra execution, and the
    tracing overhead against the untraced ones."""
    layers = [tracing.layer_metrics(t, peaks) for t, r in zip(tracers, traced) if not r.problems]
    values = {k: statistics.median(m[k] for m in layers) for k in layers[0]} if layers else {}
    plain_ok = [r.wall for r in plain if not r.problems]
    traced_ok = [r.wall for r in traced if not r.problems]
    if plain_ok and traced_ok:
        values["trace.overhead_s"] = statistics.median(traced_ok) - statistics.median(plain_ok)
    return {k: values.get(k, 0.0) for k in tracing.LAYER_UNITS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny scenes, for the tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "spdlrr", "__init__.py")):
        print(f"error: no spdlrr package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import spdlrr
    from workloads import WORKLOADS

    if os.path.dirname(os.path.abspath(spdlrr.__file__)) != os.path.join(SRC, "spdlrr"):
        print(f"error: spdlrr imported from {spdlrr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    env = environment()
    workdir = os.path.join(WORK, f"{cls.name}-{os.getpid()}")
    try:
        workload, setup_s = setup(cls, args.seed, args.small, workdir)
        if args.trace:
            half = args.seconds / 2.0
            plain, _ = repeat(workload, half)
            traced, tracers = repeat(workload, half, traced=True)
            reps = plain + traced
            # One more execution measures the solver's memory peak.
            peaks = []
            if tracing.layer_metrics(tracers[-1])["solver.iterations"]:
                reps.append(run_rep(workload, tracing.solve_memory(peaks)))
        else:
            reps, _ = repeat(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok = [r for r in reps if not r.problems]
    if not ok:
        for r in reps:
            print(f"failed: {r.problems}", file=sys.stderr)
        print("error: every execution failed", file=sys.stderr)
        return 1
    if args.trace:
        units = tracing.LAYER_UNITS
        values = layer_values(plain, traced, tracers, peaks)
        os.makedirs(WORK, exist_ok=True)
        tracing.write_spans(tracers[-1], os.path.join(WORK, f"spans-{cls.name}.csv"))
    else:
        units = END_TO_END_UNITS
        values = {
            "wall_s": statistics.median(r.wall for r in ok),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        scores = {key: statistics.median(r.scores[key] for r in ok) for key in SCORE_UNITS}

    failed = len(reps) - len(ok)
    print(f"workload {cls.name} seed {args.seed}: {len(reps)} executions, {failed} failed")
    print(f"  {'fail_frac':<34} {failed / len(reps):.4g} ratio")
    for key, unit in units.items():
        print(f"  {key:<34} {values[key]:.6g} {unit}")
    if not args.trace:
        for key, unit in SCORE_UNITS.items():
            print(f"  {key:<34} {scores[key]:.6g} {unit}")
    for r in reps:
        for problem in r.problems:
            print(f"  failed check: {problem}")
    if args.trace:
        print(f"  absent: {', '.join(tracers[-1].absent) or 'none'}")
    print("env " + json.dumps(env))
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the synthetic experiments end to end and print the headline numbers:

1. Robust low-rank recovery on the fixed 100x200 rank-5 + 5% spikes matrix.
2. The discriminability ablation (beta = 1 vs beta = 0) on the two-subspace
   matrix and on the full two-class-cube pipeline.  Each pipeline line
   gives round 1's guidance OA (the classifier on the raw pixels) next to
   the final OA.

BLAS is pinned to one thread: the solves are small, and extra BLAS threads
only contend with other work on the machine.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import time

import numpy as np

from spdlrr import DlrrParams, PipelineConfig, evaluate, nuclear_norm, run, solve, split
from spdlrr.synthetic import rpca_instance, two_class_cube, two_subspace_matrix


def rpca_demo(seed):
    x, l0, _ = rpca_instance(seed=seed)
    params = DlrrParams(lam=float(1 / np.sqrt(200)), beta=0.0, max_iter=300)
    t0 = time.perf_counter()
    restored, _, trace, converged = solve(x, np.zeros(200, dtype=int), params)
    dt = time.perf_counter() - t0
    rel = np.linalg.norm(restored - l0) / np.linalg.norm(l0)
    print(
        f"recovery: rel_err={rel:.2e} converged={converged} "
        f"iters={trace.iterations} time={dt:.2f}s"
    )


def ablation_demo(seed):
    x, _ = two_subspace_matrix(seed=seed)
    one_block = np.zeros(x.shape[1], dtype=int)
    nucs = {}
    for beta in (0.0, 1.0):
        params = DlrrParams(lam=float(1 / np.sqrt(60)), beta=beta, max_iter=300)
        restored, _, _, _ = solve(x, one_block, params)
        nucs[beta] = nuclear_norm(restored)
    print(
        f"two-subspace matrix: nuclear(L) {nucs[1.0]:.3f} at beta=1 "
        f"vs {nucs[0.0]:.3f} at beta=0"
    )

    cube, labels = two_class_cube(seed=seed)
    for beta in (0.0, 1.0):
        config = PipelineConfig(
            t_max=3,
            initial_superpixels=4,
            delta=0.7,
            m_split=2,
            dlrr=DlrrParams(lam=1 / 6, beta=beta, max_iter=300),
            split_percent=0.10,
            seed=7,
        )
        result = run(cube, labels, config)
        test_mask = split(labels, config.split_percent, config.seed).test_mask
        raw = evaluate(result.rounds[0].guidance, labels, test_mask)
        m = result.metrics
        print(
            f"pipeline beta={beta}: raw OA={raw.oa:.4f} OA={m.oa:.4f} AA={m.aa:.4f} "
            f"kappa={m.kappa:.4f} converged={all(result.converged)}"
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rpca_demo(args.seed)
    ablation_demo(args.seed)


if __name__ == "__main__":
    main()

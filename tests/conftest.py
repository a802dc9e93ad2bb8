import os

# Pin BLAS to one thread before numpy loads: the acceptance runtime budgets
# are single-threaded and results must not depend on the host's core count.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spdlrr import DlrrParams, PipelineConfig, run, solve
from spdlrr.synthetic import rpca_instance, two_class_cube, two_subspace_matrix

RPCA_LAM = float(1.0 / np.sqrt(200.0))
SUBSPACE_LAM = float(1.0 / np.sqrt(60.0))
CUBE_LAM = 1.0 / 6.0


def single_block(n):
    """Block ids putting all n columns in block 0."""
    return np.zeros(n, dtype=np.int64)


# Elements of each candidate id dtype: negative ids, whole and fractional
# floats, and bools are all in reach.
_ID_ELEMENTS = {
    np.int64: st.integers(-1, 4),
    np.uint8: st.integers(0, 4),
    np.float64: st.sampled_from([0.0, 1.0, 2.0, 0.5, 1.7]),
    np.bool_: st.booleans(),
}


@st.composite
def id_arrays(draw):
    """Small 0-d to 3-d arrays of int64, uint8, float64 or bool ids."""
    dtype = draw(st.sampled_from(list(_ID_ELEMENTS)))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    return draw(hnp.arrays(dtype, shape, elements=_ID_ELEMENTS[dtype]))


@pytest.fixture(scope="session")
def rpca_result():
    """The fixed 100x200 rank-5 + 5% spikes instance, solved as one block
    with beta = 0."""
    x, l0, e0 = rpca_instance(seed=0)
    params = DlrrParams(lam=RPCA_LAM, beta=0.0, max_iter=300)
    t0 = time.perf_counter()
    restored, variations, trace, converged = solve(x, single_block(200), params)
    elapsed = time.perf_counter() - t0
    return {
        "x": x,
        "l0": l0,
        "e0": e0,
        "L": restored,
        "E": variations,
        "trace": trace,
        "converged": converged,
        "elapsed": elapsed,
        "params": params,
    }


@pytest.fixture(scope="session")
def subspace_results():
    """The fixed two-subspace-in-one-block instance solved at beta 0 and 1."""
    x, classes = two_subspace_matrix(seed=0)
    out = {"x": x, "classes": classes}
    for beta in (0.0, 1.0):
        params = DlrrParams(lam=SUBSPACE_LAM, beta=beta, max_iter=300)
        out[beta] = solve(x, single_block(x.shape[1]), params)
    return out


def pipeline_config(beta):
    return PipelineConfig(
        t_max=3,
        initial_superpixels=4,
        delta=0.7,
        m_split=2,
        dlrr=DlrrParams(lam=CUBE_LAM, beta=beta, max_iter=300),
        classifier="nearest-centroid",
        split_percent=0.10,
        seed=7,
    )


@pytest.fixture(scope="session")
def pipeline_results():
    """Full pipeline on the fixed two-class cube at beta 0 and 1."""
    cube, labels = two_class_cube(seed=0)
    out = {"cube": cube, "labels": labels}
    for beta in (0.0, 1.0):
        t0 = time.perf_counter()
        out[beta] = run(cube, labels, pipeline_config(beta))
        out[f"elapsed_{beta}"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def four_block_instance():
    """Fixed 20x40 instance split into four 10-column blocks, as block ids."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((20, 40))
    return x, np.repeat(np.arange(4), 10), 1.0 / np.sqrt(40.0)

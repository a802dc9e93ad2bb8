"""Augmented-Lagrangian solver for the discriminative block low-rank model.

The model decomposes a pixel matrix X into X = L + E where L is low-rank
within each column block (one block per superpixel) and E collects sparse
variations, while a negative global nuclear-norm term pushes the blocks'
subspaces apart:

    min  sum_i ||L_i||_*  +  lam ||E||_1  -  beta ||L||_*
    s.t. X = L + E

The global term is split off through an auxiliary variable J = L and
linearized at the previous iterate, so every subproblem has a closed form.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverDiverged, SvdFailure
from .linalg import max_norm, nuclear_norm, soft_threshold, subgradient_with_norm, svt_with_norm
from .linalg import nuclear_subgradient, svt  # noqa: F401  (bench/tracing.py wraps these names here)


@dataclass
class DlrrParams:
    """Solver weights and schedule.

    lam weighs the sparse-variation term, beta the global discriminability
    term (beta = 0 reduces to independent per-block robust PCA).  mu starts
    at mu0 and grows by rho each iteration up to mu_max; iteration stops when
    both residual max norms fall below eps.
    """

    lam: float = 0.01
    beta: float = 1.0
    mu0: float = 1e-4
    rho: float = 1.1
    mu_max: float = 1e12
    eps: float = 1e-6
    max_iter: int = 500

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.rho <= 1:
            raise ValueError("rho must exceed 1")
        if not 0 < self.mu0 < self.mu_max:
            raise ValueError("need 0 < mu0 < mu_max")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class BlockPartition:
    """Disjoint column-index blocks covering all columns of the pixel matrix."""

    block_columns: list
    n_cols: int

    def __post_init__(self):
        self.block_columns = [
            np.asarray(cols, dtype=np.intp) for cols in self.block_columns
        ]
        if not self.block_columns:
            raise ValueError("partition needs at least one block")
        if any(cols.size == 0 for cols in self.block_columns):
            raise ValueError("every block must be non-empty")
        merged = np.concatenate(self.block_columns)
        if not np.array_equal(np.sort(merged), np.arange(self.n_cols)):
            raise ValueError("blocks must disjointly cover all columns exactly once")

    @property
    def n_blocks(self):
        return len(self.block_columns)

    @classmethod
    def from_labels(cls, labels):
        """Group columns by their label value (labels must be 0..S-1)."""
        labels = np.asarray(labels).ravel()
        count = int(labels.max()) + 1
        blocks = [np.flatnonzero(labels == i) for i in range(count)]
        return cls(blocks, labels.size)


@dataclass
class SolverState:
    """All iterates of the solver, shaped like X, plus what the last
    factorizations gave about L and J.

    L_norm is (L, sum_i ||L_i||_*) as update_L_blocks left it; J_factor is
    (J, nuclear subgradient at J, ||J||_*).  Each holds the array it was
    computed from and is used only while that array is still state.L or
    state.J, so a caller that replaces either gets fresh factorizations (one
    that writes into them in place does not).
    """

    L: np.ndarray
    E: np.ndarray
    J: np.ndarray
    Y1: np.ndarray
    Y2: np.ndarray
    mu: float
    iteration: int = 0
    L_norm: tuple = None
    J_factor: tuple = None

    @classmethod
    def zeros(cls, shape, mu):
        z = lambda: np.zeros(shape, dtype=np.float64)
        return cls(L=z(), E=z(), J=z(), Y1=z(), Y2=z(), mu=mu)


@dataclass
class SolveTrace:
    """Per-iteration diagnostics: residual max norms, the augmented
    Lagrangian value, and the penalty weight in effect that iteration."""

    r1: list = field(default_factory=list)
    r2: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    mu: list = field(default_factory=list)

    @property
    def iterations(self):
        return len(self.r1)

    def append(self, r1, r2, objective, mu):
        self.r1.append(float(r1))
        self.r2.append(float(r2))
        self.objective.append(float(objective))
        self.mu.append(float(mu))


def block_target(state, x):
    """Target of the SVT step: W = ((X - E + Y1/mu) + (J + Y2/mu)) / 2."""
    mu = state.mu
    return 0.5 * ((x - state.E + state.Y1 / mu) + (state.J + state.Y2 / mu))


def update_L_blocks(state, x, partition):
    """Closed-form block update: each block's restored part is the singular
    value thresholding of its columns of W (block_target) at level 1/(2 mu).
    W is formed once and blocks touch disjoint columns, so update order is
    irrelevant.  The thresholded singular values give sum_i ||L_i||_*."""
    w = block_target(state, x)
    tau = 1.0 / (2.0 * state.mu)
    total = 0.0
    for k, cols in enumerate(partition.block_columns):
        try:
            block, norm = svt_with_norm(w[:, cols], tau)
        except SvdFailure as exc:
            raise SvdFailure(f"block {k}: {exc}") from exc
        state.L[:, cols] = block
        total += norm
    state.L_norm = (state.L, total)
    return state.L


def update_E(state, x, lam):
    """Elementwise shrink of D = X - L + Y1/mu at level lam/mu."""
    state.E = soft_threshold(x - state.L + state.Y1 / state.mu, lam / state.mu)
    return state.E


def factor_J(state):
    """(nuclear subgradient at state.J, ||state.J||_*), from one Gram or SVD
    factorization per J array (subgradient_with_norm): update_J factors the
    J it forms, and lagrangian_value and the next update_J read it."""
    if state.J_factor is None or state.J_factor[0] is not state.J:
        state.J_factor = (state.J, *subgradient_with_norm(state.J))
    return state.J_factor[1:]


def update_J(state, beta):
    """Linearized update of the auxiliary variable: the concave global term
    is replaced by its tangent at the previous iteration's J, giving
    J = (beta/mu) * subgradient(J_prev) - Y2/mu + L.  For beta > 0 the new
    J is factored here, once the old subgradient is freed."""
    if beta == 0.0:
        state.J = state.L - state.Y2 / state.mu
    else:
        state.J = (beta / state.mu) * factor_J(state)[0] - state.Y2 / state.mu + state.L
        state.J_factor = None  # frees the old subgradient before the new J is factored
        factor_J(state)
    return state.J


def update_multipliers(state, r1, r2, rho, mu_max):
    """Dual ascent on both constraints from their residuals r1 = X - L - E
    and r2 = J - L, in place, then grow the penalty weight."""
    state.Y1 += state.mu * r1
    state.Y2 += state.mu * r2
    state.mu = min(mu_max, rho * state.mu)


def lagrangian_value(state, r1, r2, partition, params):
    """Augmented Lagrangian of the split model at the current iterate,
    evaluated with the multipliers and penalty weight in effect and the
    constraint residuals r1 = X - L - E and r2 = J - L:
    model terms + <Y1, r1> + <Y2, r2> + (mu/2)(||r1||_F^2 + ||r2||_F^2).

    (The multiplier terms are written in inner-product form; completing the
    square instead would only add ||Y||_F^2 / (2 mu), a constant in the
    optimization variables that obscures convergence of the logged value.)

    The nuclear norms come from the L and J updates' factorizations (see
    SolverState), so they can differ from a fresh SVD in the last digits."""
    if state.L_norm is not None and state.L_norm[0] is state.L:
        val = state.L_norm[1]
    else:
        val = sum(nuclear_norm(state.L[:, cols]) for cols in partition.block_columns)
    val += params.lam * float(np.abs(state.E).sum())
    if params.beta != 0.0:
        val -= params.beta * factor_J(state)[1]
    val += float(np.sum(state.Y1 * r1)) + float(np.sum(state.Y2 * r2))
    val += 0.5 * state.mu * (float(np.sum(r1 * r1)) + float(np.sum(r2 * r2)))
    return float(val)


def solve(x, partition, params, callback=None):
    """Run the alternating closed-form updates from the all-zeros start.

    Per iteration: all block L_i updates, then E, then J, then the two
    constraint residuals X - L - E and J - L, formed once.  Their max norms
    are checked first (NaN or Inf raises SolverDiverged); then the objective
    and the multiplier step read the same arrays, and the max norms are the
    convergence test (both <= eps).  Returns (L, E, trace, converged); when
    max_iter is exhausted the last iterate is returned with converged=False.
    `callback(state)` fires after each iteration.  An iteration takes one SVD
    per block, plus one factorization of J (in update_J) when beta > 0; the
    objective reuses them.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    if partition.n_cols != x.shape[1]:
        raise ValueError("partition does not match the matrix's column count")

    state = SolverState.zeros(x.shape, mu=params.mu0)
    trace = SolveTrace()
    converged = False
    for it in range(params.max_iter):
        state.iteration = it + 1
        update_L_blocks(state, x, partition)
        update_E(state, x, params.lam)
        update_J(state, params.beta)
        r1 = x - state.L - state.E
        r2 = state.J - state.L
        n1, n2 = max_norm(r1), max_norm(r2)
        if not np.isfinite(n1 + n2):
            raise SolverDiverged(f"iteration {state.iteration}: residuals r1={n1}, r2={n2}")
        trace.append(n1, n2, lagrangian_value(state, r1, r2, partition, params), state.mu)
        update_multipliers(state, r1, r2, params.rho, params.mu_max)
        del r1, r2  # not held through the next iteration's updates
        if callback is not None:
            callback(state)
        if n1 <= params.eps and n2 <= params.eps:
            converged = True
            break
    return state.L, state.E, trace, converged

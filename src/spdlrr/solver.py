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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput, SolverDiverged, SvdFailure, check_options, finite_matrix
from .linalg import max_norm, nuclear_subgradient, soft_threshold, svt
from .linalg import nuclear_norm  # noqa: F401  (for bench/tracing.py)
from .superpixel import SuperpixelPartition


@dataclass
class DlrrParams:
    """Solver weights and schedule.

    lam weighs the sparse-variation term, beta the global discriminability
    term (beta = 0 reduces to independent per-block robust PCA).  mu starts
    at mu0 and grows by rho each iteration up to mu_max (which may be inf);
    iteration stops when both residual max norms fall below eps.  NaN and
    Inf are rejected everywhere else.
    """

    lam: float = 0.01
    beta: float = 1.0
    mu0: float = 1e-4
    rho: float = 1.1
    mu_max: float = 1e12
    eps: float = 1e-6
    max_iter: int = 500

    def __post_init__(self):
        check_options(**vars(self))
        # mu0 is the smallest mu, so it gives the largest lam / mu, beta / mu
        # and 1 / (2 mu) that the updates use.
        top = float(max(self.lam, self.beta, 0.5))
        if not (0 < self.mu0 < self.mu_max and math.isfinite(top / float(self.mu0))):
            raise DegenerateInput("need 0 < mu0 < mu_max, with lambda / mu0, beta / mu0 and 1 / (2 mu0) finite")


@dataclass
class SolverState:
    """All iterates of the solver, shaped like X, plus what the last
    factorizations gave about L and J.

    L_norm is sum_i ||L_i||_*, written by update_L_blocks.  J_sub, J_norm
    and J_gram are the nuclear subgradient at J, ||J||_* and whether J took
    the Gram path, written by update_J when beta > 0; they start at their
    values for J = 0 (J_sub as the scalar 0.0).  Nothing else writes them,
    so a caller that replaces L or J keeps the old values.
    """

    L: np.ndarray
    E: np.ndarray
    J: np.ndarray
    Y1: np.ndarray
    Y2: np.ndarray
    mu: float
    iteration: int = 0
    L_norm: float = 0.0
    J_sub: object = 0.0
    J_norm: float = 0.0
    J_gram: bool = False

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


def column_blocks(labels):
    """Each block's ascending column indices, in block id order, from block
    ids that make a one-row SuperpixelPartition when read in row-major order."""
    ids = SuperpixelPartition(np.reshape(labels, (1, -1))).labels[0]
    return np.split(np.argsort(ids, kind="stable"), np.cumsum(np.bincount(ids))[:-1])


def update_L_blocks(state, x, blocks):
    """Closed-form block update: each block's restored part is the singular
    value thresholding of its columns of W (block_target) at level 1/(2 mu);
    `blocks` lists each block's column indices (column_blocks).
    W is formed once and blocks touch disjoint columns, so update order is
    irrelevant.  The thresholded singular values sum to state.L_norm.

    A block with ||W_i||_F <= 1/(2 mu) is exactly zero without a
    factorization.  The others take the Gram SVT where they pass its gate,
    but only while J took the Gram path (state.J_gram): a J that is
    rank-deficient has singular values straddling the subgradient's rank
    cut, which turns rounding-level changes in L into O(1) ones, so until J
    is well conditioned the blocks keep the exact SVD."""
    w = block_target(state, x)
    tau = 1.0 / (2.0 * state.mu)
    total = 0.0
    for k, cols in enumerate(blocks):
        try:
            block, norm = svt(w[:, cols], tau, gram=state.J_gram)
        except SvdFailure as exc:
            raise SvdFailure(f"block {k}: {exc}") from exc
        state.L[:, cols] = block
        total += norm
    state.L_norm = total


def update_E(state, x, lam):
    """Elementwise shrink of D = X - L + Y1/mu at level lam/mu."""
    state.E = soft_threshold(x - state.L + state.Y1 / state.mu, lam / state.mu)


def update_J(state, beta):
    """Linearized update of the auxiliary variable: the concave global term
    is replaced by its tangent at the previous iteration's J, giving
    J = (beta/mu) * J_sub - Y2/mu + L.  For beta > 0 the new J is factored
    once (nuclear_subgradient) into J_sub, J_norm and J_gram."""
    state.J = (beta / state.mu) * state.J_sub - state.Y2 / state.mu + state.L
    if beta:
        state.J_sub = None  # frees the old subgradient before the new J is factored
        state.J_sub, state.J_norm, state.J_gram = nuclear_subgradient(state.J)


def update_multipliers(state, r1, r2, rho, mu_max):
    """Dual ascent on both constraints from their residuals r1 = X - L - E
    and r2 = J - L, in place, then grow the penalty weight."""
    state.Y1 += state.mu * r1
    state.Y2 += state.mu * r2
    state.mu = min(mu_max, rho * state.mu)


def lagrangian_value(state, r1, r2, params):
    """Augmented Lagrangian of the split model at the current iterate,
    evaluated with the multipliers and penalty weight in effect and the
    constraint residuals r1 = X - L - E and r2 = J - L:
    model terms + <Y1, r1> + <Y2, r2> + (mu/2)(||r1||_F^2 + ||r2||_F^2).

    (The multiplier terms are written in inner-product form; completing the
    square instead would only add ||Y||_F^2 / (2 mu), a constant in the
    optimization variables that obscures convergence of the logged value.)

    The nuclear norms are state.L_norm and state.J_norm, from the L and J
    updates' factorizations, so they can differ from a fresh SVD in the
    last digits."""
    val = state.L_norm + params.lam * float(np.abs(state.E).sum()) - params.beta * state.J_norm
    val += float(np.sum(state.Y1 * r1)) + float(np.sum(state.Y2 * r2))
    val += 0.5 * state.mu * (float(np.sum(r1 * r1)) + float(np.sum(r2 * r2)))
    return float(val)


def step(state, x, blocks, params):
    """One iteration in place on `state`, over `blocks` (column_blocks):
    all block L_i updates, then E, then J, then the two constraint
    residuals X - L - E and J - L, formed once.  Their max norms are checked
    first (NaN or Inf raises SolverDiverged); then the objective and the
    multiplier step read the same arrays.  Returns the trace row (r1 max
    norm, r2 max norm, objective, mu the iteration ran with).  An iteration
    takes at most one factorization per block (none for a block thresholded
    to zero; Gram or SVD, see update_L_blocks), plus at most one of J (in
    update_J) when beta > 0; the objective reuses them."""
    state.iteration += 1
    update_L_blocks(state, x, blocks)
    update_E(state, x, params.lam)
    update_J(state, params.beta)
    r1, r2 = x - state.L - state.E, state.J - state.L
    n1, n2 = max_norm(r1), max_norm(r2)
    if not np.isfinite(n1 + n2):
        raise SolverDiverged(f"iteration {state.iteration}: residuals r1={n1}, r2={n2}")
    row = (n1, n2, lagrangian_value(state, r1, r2, params), state.mu)
    update_multipliers(state, r1, r2, params.rho, params.mu_max)
    return row


def solve(x, labels, params):
    """Run step from SolverState.zeros until both residual max norms are
    <= eps or max_iter steps are done.  x must be a non-empty finite 2-D
    matrix, and `labels` hold one block id per column of x (see
    column_blocks), e.g. a superpixel raster; anything else raises
    ValueError.  Returns (L, E, trace, converged); when max_iter is
    exhausted the last iterate is returned with converged=False.
    """
    x = finite_matrix("x", np.asarray(x, dtype=np.float64))
    if np.size(labels) != x.shape[1]:
        raise ValueError(f"need one block id per column of x: {np.size(labels)} for {x.shape[1]}")
    blocks = column_blocks(labels)

    state = SolverState.zeros(x.shape, mu=params.mu0)
    trace = SolveTrace()
    for _ in range(params.max_iter):
        n1, n2, objective, mu = step(state, x, blocks, params)
        trace.append(n1, n2, objective, mu)
        if n1 <= params.eps and n2 <= params.eps:
            return state.L, state.E, trace, True
    return state.L, state.E, trace, False

import copy

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import spdlrr.linalg
import spdlrr.solver
from spdlrr import (
    DegenerateInput,
    DlrrParams,
    NonFiniteData,
    SolverDiverged,
    SolverState,
    SuperpixelPartition,
    SvdFailure,
    max_norm,
    nuclear_norm,
    nuclear_subgradient,
    soft_threshold,
    solve,
    svt,
)
from spdlrr.solver import (
    block_target,
    column_blocks,
    step,
    update_E,
    update_J,
    update_L_blocks,
    update_multipliers,
)
from spdlrr.synthetic import two_class_cube

from conftest import id_arrays, single_block


def reference_blocks(labels):
    """Each block's column indices, from block ids 0..S-1, by one mask per id."""
    labels = np.ravel(labels)
    return [np.flatnonzero(labels == i) for i in range(int(labels.max()) + 1)]


def reference_three_term_ialm(x, lam, mu0, rho, mu_max, n_iter):
    """Straight-line robust-PCA solver with the same auxiliary-variable
    splitting, written independently of the package internals."""
    L = np.zeros_like(x)
    E = np.zeros_like(x)
    J = np.zeros_like(x)
    Y1 = np.zeros_like(x)
    Y2 = np.zeros_like(x)
    mu = mu0
    iterates = []
    for _ in range(n_iter):
        w = 0.5 * ((x - E + Y1 / mu) + (J + Y2 / mu))
        u, s, vt = np.linalg.svd(w, full_matrices=False)
        s = np.maximum(s - 1.0 / (2.0 * mu), 0.0)
        L = (u * s) @ vt
        d = x - L + Y1 / mu
        E = np.sign(d) * np.maximum(np.abs(d) - lam / mu, 0.0)
        J = L - Y2 / mu
        Y1 = Y1 + mu * (x - L - E)
        Y2 = Y2 + mu * (J - L)
        mu = min(mu_max, rho * mu)
        iterates.append((L.copy(), E.copy()))
    return iterates


def reference_block_dlrr(x, labels, params, n_iter):
    """The block solver's iteration written out plainly: a per-block svt of
    the gathered target, by Gram where the last J took the Gram path, the
    subgradient of J recomputed inside the J update, and the objective from
    fresh nuclear norms."""
    L, E, J, Y1, Y2 = (np.zeros_like(x) for _ in range(5))
    mu = params.mu0
    objectives = []
    gram = False
    for _ in range(n_iter):
        for cols in reference_blocks(labels):
            w = 0.5 * ((x[:, cols] - E[:, cols] + Y1[:, cols] / mu) + (J[:, cols] + Y2[:, cols] / mu))
            L[:, cols] = svt(w, 1.0 / (2.0 * mu), gram=gram)[0]
        E = soft_threshold(x - L + Y1 / mu, params.lam / mu)
        J = (params.beta / mu) * nuclear_subgradient(J)[0] - Y2 / mu + L
        gram = nuclear_subgradient(J)[2]
        r1, r2 = x - L - E, J - L
        obj = sum(nuclear_norm(L[:, cols]) for cols in reference_blocks(labels))
        obj += params.lam * np.abs(E).sum() - params.beta * nuclear_norm(J)
        obj += np.sum(Y1 * r1) + np.sum(Y2 * r2) + 0.5 * mu * (np.sum(r1 * r1) + np.sum(r2 * r2))
        objectives.append(float(obj))
        Y1 = Y1 + mu * (x - L - E)
        Y2 = Y2 + mu * (J - L)
        mu = min(params.mu_max, params.rho * mu)
    return L, E, objectives


def reference_all_svd(x, labels, params, n_iter):
    """The block iteration with every factorization one thin SVD, from numpy
    alone: block SVTs at 1/(2 mu), and the J subgradient keeping singular
    values above 1e-10 sigma_max.  Returns the (L, E) iterates."""
    L, E, J, Y1, Y2 = (np.zeros_like(x) for _ in range(5))
    mu = params.mu0
    iterates = []
    for _ in range(n_iter):
        for cols in reference_blocks(labels):
            w = 0.5 * ((x[:, cols] - E[:, cols] + Y1[:, cols] / mu) + (J[:, cols] + Y2[:, cols] / mu))
            u, s, vt = np.linalg.svd(w, full_matrices=False)
            L[:, cols] = (u * np.maximum(s - 1.0 / (2.0 * mu), 0.0)) @ vt
        d = x - L + Y1 / mu
        E = np.sign(d) * np.maximum(np.abs(d) - params.lam / mu, 0.0)
        u, s, vt = np.linalg.svd(J, full_matrices=False)
        keep = s > 1e-10 * s[0]
        J = (params.beta / mu) * (u[:, keep] @ vt[keep, :]) - Y2 / mu + L
        Y1 = Y1 + mu * (x - L - E)
        Y2 = Y2 + mu * (J - L)
        mu = min(params.mu_max, params.rho * mu)
        iterates.append((L.copy(), E.copy()))
    return iterates


def steps(x, labels, params):
    """Yield the state after each of params.max_iter steps from solve's
    cold start, with the step's trace row."""
    blocks = column_blocks(labels)
    state = SolverState.zeros(x.shape, params.mu0)
    for _ in range(params.max_iter):
        yield state, step(state, x, blocks, params)


def steps_recording_gram(x, labels, params, monkeypatch):
    """The gram= flag of every block SVT and the (L, E) iterate, per step."""
    flags, per_iteration, iterates = [], [], []
    real = spdlrr.solver.svt

    def recorded(a, tau, gram=False):
        flags.append(gram)
        return real(a, tau, gram=gram)

    monkeypatch.setattr(spdlrr.solver, "svt", recorded)
    for state, _ in steps(x, labels, params):
        per_iteration.append(flags[:])
        flags.clear()
        iterates.append((state.L.copy(), state.E.copy()))
    return per_iteration, iterates


def counting_calls(monkeypatch, module, names):
    """Count the calls made to each named function of module, by name."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name))
    return calls


def fresh_state(shape, mu=1.0, seed=None):
    state = SolverState.zeros(shape, mu=mu)
    if seed is not None:
        rng = np.random.default_rng(seed)
        state.L = rng.standard_normal(shape)
        state.E = rng.standard_normal(shape)
        state.J = rng.standard_normal(shape)
        state.Y1 = rng.standard_normal(shape)
        state.Y2 = rng.standard_normal(shape)
        state.mu = float(rng.uniform(0.2, 5.0))
    return state


class TestParams:
    def test_defaults_from_schedule(self):
        p = DlrrParams(lam=0.1)
        assert (p.mu0, p.rho, p.mu_max, p.eps) == (1e-4, 1.1, 1e12, 1e-6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": 0.0},
            {"lam": 0.1, "beta": -1.0},
            {"lam": 0.1, "rho": 1.0},
            {"lam": 0.1, "mu0": 2e12},
            {"lam": 0.1, "eps": 0.0},
            {"lam": 0.1, "max_iter": 0},
            {"lam": 0.1, "max_iter": 2.5},
            {"lam": 0.1, "max_iter": 500.0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            DlrrParams(**kwargs)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["lam", "beta", "mu0", "rho", "eps"])
    def test_rejects_non_finite(self, name, value):
        # NaN passes every <= check: rho = nan jumped mu to mu_max, and
        # eps = nan never converged.
        with pytest.raises(ValueError, match=name):
            DlrrParams(**{"lam": 0.1, name: value})

    @pytest.mark.parametrize("kwargs", [{"mu0": 1e-320}, {"mu0": 5e-324}, {"beta": 1e308}, {"lam": 1e308}])
    def test_rejects_a_step_over_the_float_range(self, kwargs):
        # lam / mu0, beta / mu0 or 1 / (2 mu0) would be inf in the first
        # updates, and inf * 0 turns J to NaN.
        with pytest.raises(DegenerateInput, match=r"lambda / mu0, beta / mu0 and 1 / \(2 mu0\) finite"):
            DlrrParams(**kwargs)

    def test_mu_max_may_be_inf_but_not_nan(self):
        assert DlrrParams(mu_max=np.inf).mu_max == np.inf
        with pytest.raises(ValueError, match="mu_max"):
            DlrrParams(mu_max=np.nan)


@st.composite
def dense_ids(draw):
    """Block ids 0..S-1, every id used, as a 1-D array or a 2-D raster."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=12))
    dtype = draw(st.sampled_from([np.int64, np.int32, np.uint8]))
    raw = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 9)))
    return np.unique(raw, return_inverse=True)[1].reshape(shape).astype(dtype)


class TestColumnBlocks:
    def test_hand_case(self):
        assert [list(b) for b in column_blocks([1, 0, 1, 2])] == [[1], [0, 2], [3]]

    @given(dense_ids())
    @settings(max_examples=200, deadline=None)
    def test_equals_one_mask_per_id(self, labels):
        got = column_blocks(labels)
        want = reference_blocks(labels)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == np.intp and np.array_equal(g, w)

    def test_raster_is_read_row_major(self):
        raster = np.array([[0, 1, 1], [2, 0, 2]])
        assert [list(b) for b in column_blocks(raster)] == [[0, 4], [1, 2], [3, 5]]


class TestMalformedIds:
    @pytest.mark.parametrize(
        "labels, message",
        [
            pytest.param(np.zeros(12), "integers", id="float"),
            pytest.param(np.zeros(12, dtype=bool), "integers", id="bool"),
            pytest.param(np.r_[np.zeros(11, dtype=int), -1], r"^superpixel ids must be non-negative and below 2\*\*63: out of range$", id="negative"),
            pytest.param(np.r_[np.zeros(11, dtype=int), 12], "^superpixel ids must be contiguous and non-empty$", id="above-column-count"),
            pytest.param(np.repeat([0, 2], 6), "^superpixel ids must be contiguous and non-empty$", id="unused-id"),
            pytest.param(np.zeros(11, dtype=int), "one block id per column", id="too-few"),
            pytest.param(np.zeros(13, dtype=int), "one block id per column", id="too-many"),
            pytest.param(np.zeros((3, 3), dtype=int), "one block id per column", id="raster"),
        ],
    )
    def test_solve_rejects(self, labels, message):
        x = np.ones((4, 12))
        with pytest.raises(ValueError, match=message):
            solve(x, labels, DlrrParams(lam=0.1))

    @given(id_arrays())
    @settings(max_examples=200, deadline=None)
    def test_solve_raises_the_one_row_partitions_message(self, labels):
        assume(labels.size)
        x = np.ones((2, labels.size))
        params = DlrrParams(lam=0.1, max_iter=1)
        try:
            SuperpixelPartition(np.reshape(labels, (1, -1)))
        except ValueError as exc:
            with pytest.raises(ValueError) as from_solve:
                solve(x, labels, params)
            assert str(from_solve.value) == str(exc)
        else:
            solve(x, labels, params)

    def test_solve_rejects_non_finite_x_as_non_finite_data(self):
        x = np.ones((4, 12))
        x[2, 5] = np.inf
        with pytest.raises(NonFiniteData, match="^x must be finite$"):
            solve(x, np.zeros(12, dtype=int), DlrrParams(lam=0.1))

    @pytest.mark.parametrize(
        "shape",
        [pytest.param((12,), id="1-D"), pytest.param((4, 3, 4), id="3-D"), pytest.param((0, 4), id="0x4")],
    )
    def test_solve_rejects_x_that_is_not_a_non_empty_matrix(self, shape):
        with pytest.raises(ValueError, match="non-empty 2-d matrix"):
            solve(np.ones(shape), np.zeros(4, dtype=int), DlrrParams(lam=0.1))


class TestUpdateLBlocks:
    def test_w_is_half_x_from_zero_state(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 6))
        state = fresh_state(x.shape, mu=1.0)
        for cols in ([0, 2, 4], [1, 3, 5]):
            np.testing.assert_allclose(block_target(state, x)[:, cols], 0.5 * x[:, cols])

    def test_single_block_diagonal(self):
        x = np.diag([3.0, 1.0])
        state = fresh_state(x.shape, mu=1.0)
        update_L_blocks(state, x, [np.arange(2)])
        np.testing.assert_allclose(state.L, np.diag([1.0, 0.0]), atol=1e-12)

    def test_matches_straight_line_loop(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((5, 12))
        blocks = [np.array([0, 3, 7]), np.array([1, 2, 8, 9]), np.array([4, 5, 6, 10, 11])]
        state = fresh_state(x.shape, seed=42)
        expected = np.empty_like(x)
        for cols in blocks:
            w = 0.5 * (
                (x[:, cols] - state.E[:, cols] + state.Y1[:, cols] / state.mu)
                + (state.J[:, cols] + state.Y2[:, cols] / state.mu)
            )
            u, s, vt = np.linalg.svd(w, full_matrices=False)
            expected[:, cols] = (u * np.maximum(s - 1 / (2 * state.mu), 0)) @ vt
        update_L_blocks(state, x, blocks)
        np.testing.assert_allclose(state.L, expected, atol=1e-12)


    def test_gram_flag_follows_the_current_j(self, four_block_instance, monkeypatch):
        x, labels, _ = four_block_instance
        blocks = column_blocks(labels)
        state = fresh_state(x.shape, seed=4)
        flags = []
        real = spdlrr.solver.svt

        def recorded(a, tau, gram=False):
            flags.append(gram)
            return real(a, tau, gram=gram)

        monkeypatch.setattr(spdlrr.solver, "svt", recorded)
        update_L_blocks(state, x, blocks)  # J not factored yet
        update_J(state, 1.0)
        assert state.J_gram  # a random 20x40 J passes the Gram gate
        update_L_blocks(state, x, blocks)
        assert flags == [False] * 4 + [True] * 4


class TestUpdateE:
    def test_threshold_dominates(self):
        x = np.array([[0.5, -0.2], [0.1, 0.3]])
        state = fresh_state(x.shape, mu=1.0)
        update_E(state, x, lam=1.0)  # lam/mu = 1 >= max|X|
        np.testing.assert_allclose(state.E, np.zeros_like(x))

    def test_scalar_case(self):
        x = np.array([[1.2]])
        state = fresh_state(x.shape, mu=1.0)
        update_E(state, x, lam=0.5)
        assert state.E[0, 0] == pytest.approx(0.7)

    def test_matches_entrywise_loop(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((4, 5))
        state = fresh_state(x.shape, seed=5)
        lam = 0.3
        d = x - state.L + state.Y1 / state.mu
        expected = np.empty_like(d)
        for i in range(d.shape[0]):
            for j in range(d.shape[1]):
                v = d[i, j]
                t = lam / state.mu
                expected[i, j] = np.sign(v) * max(abs(v) - t, 0.0)
        update_E(state, x, lam)
        np.testing.assert_allclose(state.E, expected, atol=1e-15)


class TestUpdateJ:
    def test_beta_zero(self):
        state = fresh_state((3, 3), seed=1)
        expected = state.L - state.Y2 / state.mu
        update_J(state, beta=0.0)
        np.testing.assert_allclose(state.J, expected)

    def test_zero_previous_j(self):
        state = fresh_state((3, 3), seed=2)
        state.J = np.zeros((3, 3))
        expected = state.L - state.Y2 / state.mu
        update_J(state, beta=2.0)
        np.testing.assert_allclose(state.J, expected)

    def test_diagonal_previous_j(self):
        state = fresh_state((2, 2), mu=1.0)
        state.J = np.diag([2.0, 3.0])
        state.J_sub = nuclear_subgradient(state.J)[0]
        update_J(state, beta=1.0)
        np.testing.assert_allclose(state.J, np.eye(2), atol=1e-12)


class TestUpdateMultipliers:
    def test_zero_residuals_keep_multipliers(self):
        state = fresh_state((3, 4), seed=3)
        zero = np.zeros_like(state.L)
        y1, y2, mu_before = state.Y1.copy(), state.Y2.copy(), state.mu
        update_multipliers(state, zero, zero, rho=1.1, mu_max=1e12)
        np.testing.assert_array_equal(state.Y1, y1)
        np.testing.assert_array_equal(state.Y2, y2)
        assert state.mu == pytest.approx(1.1 * mu_before)

    def test_mu_cap(self):
        state = fresh_state((2, 2), mu=5.0)
        update_multipliers(state, np.zeros((2, 2)), np.zeros((2, 2)), rho=1.1, mu_max=5.0)
        assert state.mu == 5.0

    def test_matches_direct_formulas(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((3, 5))
        state = fresh_state(x.shape, seed=8)
        r1, r2 = x - state.L - state.E, state.J - state.L
        y1 = state.Y1 + state.mu * r1
        y2 = state.Y2 + state.mu * r2
        mu = min(1e12, 1.1 * state.mu)
        update_multipliers(state, r1, r2, rho=1.1, mu_max=1e12)
        np.testing.assert_array_equal(state.Y1, y1)
        np.testing.assert_array_equal(state.Y2, y2)
        assert state.mu == pytest.approx(mu)


class TestSolve:
    def test_stopping_rule_is_inclusive(self, four_block_instance):
        x, labels, lam = four_block_instance
        _, _, first, converged = solve(x, labels, DlrrParams(lam=lam, max_iter=1))
        assert not converged
        eps = max(first.r1[0], first.r2[0])
        _, _, trace, converged = solve(x, labels, DlrrParams(lam=lam, max_iter=5, eps=eps))
        assert converged and trace.iterations == 1

    def test_recorded_residuals_match_fresh_ones(self, four_block_instance):
        x, labels, lam = four_block_instance
        params = DlrrParams(lam=lam, max_iter=30, eps=1e-30)
        fresh = [(max_norm(x - s.L - s.E), max_norm(s.J - s.L)) for s, _ in steps(x, labels, params)]
        _, _, trace, _ = solve(x, labels, params)
        assert len(fresh) == trace.iterations == 30
        assert fresh == list(zip(trace.r1, trace.r2))

    def test_zero_matrix_converges_immediately(self):
        x = np.zeros((4, 6))
        L, E, trace, converged = solve(x, np.repeat([0, 1], 3), DlrrParams(lam=0.1))
        assert converged
        assert trace.iterations == 1
        np.testing.assert_allclose(L, 0)
        np.testing.assert_allclose(E, 0)

    def test_rpca_reduction_recovers_planted_low_rank(self, rpca_result):
        rel = np.linalg.norm(rpca_result["L"] - rpca_result["l0"]) / np.linalg.norm(
            rpca_result["l0"]
        )
        assert rpca_result["converged"]
        assert rel <= 1e-3

    def test_discriminability_term_raises_nuclear_norm(self, subspace_results):
        nuc0 = nuclear_norm(subspace_results[0.0][0])
        nuc1 = nuclear_norm(subspace_results[1.0][0])
        assert nuc1 > nuc0

    def test_converged_flag_matches_residuals(self, subspace_results):
        x = subspace_results["x"]
        for beta in (0.0, 1.0):
            L, E, trace, converged = subspace_results[beta]
            assert converged
            assert max_norm(x - L - E) <= 1e-6
            # J is not returned; the recorded residual covers the L = J gap.
            assert trace.r2[-1] <= 1e-6

    def test_block_order_is_irrelevant(self):
        # Renumbering the blocks changes the order they are updated in.
        rng = np.random.default_rng(23)
        x = rng.standard_normal((6, 12))
        labels = np.array([0, 1, 1, 2, 2, 0, 0, 2, 2, 1, 1, 2])
        params = DlrrParams(lam=0.2, beta=1.0, max_iter=40, eps=1e-12)
        out = []
        for ids in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
            L, E, trace, _ = solve(x, np.take(ids, labels), params)
            out.append((L, E))
        for L, E in out[1:]:
            np.testing.assert_array_equal(L, out[0][0])
            np.testing.assert_array_equal(E, out[0][1])

    def test_repeat_runs_are_bitwise_identical(self):
        rng = np.random.default_rng(29)
        x = rng.standard_normal((5, 9))
        labels = np.repeat([0, 1], [4, 5])
        params = DlrrParams(lam=0.2, beta=0.5, max_iter=30, eps=1e-12)
        first = solve(x, labels, params)
        second = solve(x, labels, params)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])
        assert first[2].objective == second[2].objective

    def test_matches_reference_on_single_block(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((20, 30))
        params = DlrrParams(lam=1 / np.sqrt(30), beta=0.0, max_iter=40, eps=1e-30)
        recorded = [(st.L.copy(), st.E.copy()) for st, _ in steps(x, single_block(30), params)]
        reference = reference_three_term_ialm(
            x, params.lam, params.mu0, params.rho, params.mu_max, 40
        )
        assert len(recorded) == 40
        for (l_got, e_got), (l_ref, e_ref) in zip(recorded, reference):
            assert np.max(np.abs(l_got - l_ref)) <= 1e-10
            assert np.max(np.abs(e_got - e_ref)) <= 1e-10

    def test_residual_not_worse_than_iteration_ten(self, rpca_result):
        trace = rpca_result["trace"]
        assert trace.r1[-1] <= trace.r1[9]

    def test_unconverged_reports_flag(self):
        rng = np.random.default_rng(37)
        x = rng.standard_normal((6, 8))
        labels = single_block(8)
        L, E, trace, converged = solve(x, labels, DlrrParams(lam=0.2, max_iter=3))
        assert not converged
        assert trace.iterations == 3
        assert np.isfinite(L).all() and np.isfinite(E).all()

    def test_bitwise_equal_to_plain_iteration(self, four_block_instance):
        x, labels, lam = four_block_instance
        # mu0 = 0.1 keeps L, E and the J subgradient nonzero from the start.
        params = DlrrParams(lam=lam, beta=1.0, mu0=0.1, max_iter=30, eps=1e-30)
        L, E, trace, _ = solve(x, labels, params)
        L_ref, E_ref, objectives = reference_block_dlrr(x, labels, params, 30)
        assert trace.iterations == 30
        assert L.any() and E.any()
        assert np.array_equal(L, L_ref) and np.array_equal(E, E_ref)
        for got, want in zip(trace.objective, objectives):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_within_1e_10_of_all_svd_iteration(self, four_block_instance, monkeypatch):
        # From the cold start: zero shortcuts first, then the Gram SVT once J
        # is well conditioned.
        x, labels, lam = four_block_instance
        n = 150
        params = DlrrParams(lam=lam, beta=1.0, max_iter=n, eps=1e-30)
        flags, iterates = steps_recording_gram(x, labels, params, monkeypatch)
        reference = reference_all_svd(x, labels, params, n)
        assert len(iterates) == n and sum(any(f) for f in flags) >= n // 3
        worst = max(
            max(np.max(np.abs(l_got - l_ref)), np.max(np.abs(e_got - e_ref)))
            for (l_got, e_got), (l_ref, e_ref) in zip(iterates, reference)
        )
        assert worst <= 1e-10

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize("mu0", [1e-4, 0.1])
    def test_gram_svt_only_after_j_took_the_gram_path(self, four_block_instance, monkeypatch, beta, mu0):
        # Never on a solve's first iteration (J = 0 has no Gram factor) and
        # never at beta = 0 (J is not factored), so criterion 2 stays exact.
        x, labels, lam = four_block_instance
        params = DlrrParams(lam=lam, beta=beta, mu0=mu0, max_iter=100, eps=1e-30)
        flags, _ = steps_recording_gram(x, labels, params, monkeypatch)
        assert len(flags) == 100 and all(len(f) == 4 for f in flags)
        assert not any(flags[0])
        if beta == 0.0:
            assert not any(any(f) for f in flags)
        else:
            assert any(any(f) for f in flags)

    def test_one_svd_per_block_and_j_per_iteration(self, four_block_instance, monkeypatch):
        x, labels, lam = four_block_instance
        calls = counting_calls(monkeypatch, spdlrr.linalg, ("thin_svd", "singular_values"))
        params = DlrrParams(lam=lam, beta=1.0, mu0=0.1, max_iter=25, eps=1e-30)
        _, _, trace, _ = solve(x, labels, params)
        n = trace.iterations
        assert n == 25 and np.isfinite(trace.objective).all()
        assert calls["thin_svd"] <= n * (4 + 1) + 1
        assert calls["singular_values"] == 0

    def test_factorization_fields_match_fresh_ones(self, four_block_instance):
        # From the cold start: J = 0 first, then J by SVD, then by Gram.
        x, labels, lam = four_block_instance
        regimes = []

        def check(state):
            sub, norm, gram = nuclear_subgradient(state.J)
            assert np.array_equal(state.J_sub, sub) and state.J_norm == norm and state.J_gram == gram
            fresh = sum(nuclear_norm(state.L[:, cols]) for cols in reference_blocks(labels))
            assert abs(state.L_norm - fresh) <= 1e-12 * max(1.0, fresh)
            regimes.append((bool(state.J.any()), gram))

        for state, _ in steps(x, labels, DlrrParams(lam=lam, beta=1.0, max_iter=150, eps=1e-30)):
            check(state)
        assert len(regimes) == 150
        assert {(False, False), (True, False), (True, True)} <= set(regimes)

    def test_beta_zero_leaves_j_unfactored(self, four_block_instance):
        x, labels, lam = four_block_instance

        for state, _ in steps(x, labels, DlrrParams(lam=lam, beta=0.0, max_iter=50, eps=1e-30)):
            assert state.J_norm == 0.0 and state.J_gram is False

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_kernels_are_called_by_their_public_names(self, four_block_instance, monkeypatch, beta):
        # The traced benchmark wraps spdlrr.solver.svt and
        # spdlrr.solver.nuclear_subgradient; the solver must call those.
        x, labels, lam = four_block_instance
        calls = counting_calls(monkeypatch, spdlrr.solver, ("svt", "nuclear_subgradient"))
        n = 20
        assert len(list(steps(x, labels, DlrrParams(lam=lam, beta=beta, max_iter=n, eps=1e-30)))) == n
        assert calls == {"svt": 4 * n, "nuclear_subgradient": n if beta else 0}

    def test_trace_lengths_match_iterations(self, rpca_result):
        trace = rpca_result["trace"]
        n = trace.iterations
        assert len(trace.r1) == len(trace.r2) == len(trace.objective) == len(trace.mu) == n


class TestDivergence:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_residual_raises(self, four_block_instance, monkeypatch, value):
        x, labels, lam = four_block_instance
        real_update_E = spdlrr.solver.update_E

        def corrupted(state, x, lam):
            real_update_E(state, x, lam)
            if state.iteration == 3:
                state.E[0, 0] = value

        monkeypatch.setattr(spdlrr.solver, "update_E", corrupted)
        with pytest.raises(SolverDiverged, match="iteration 3"):
            solve(x, labels, DlrrParams(lam=lam, max_iter=10, eps=1e-30))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_multiplier_fails_the_next_block_svd(self, four_block_instance, value):
        x, labels, lam = four_block_instance

        with pytest.raises(SvdFailure, match="block 1: non-finite"):
            for state, _ in steps(x, labels, DlrrParams(lam=lam, max_iter=10, eps=1e-30)):
                if state.iteration == 2:
                    state.Y1[0, 12] = value  # a column of block 1


class TestStep:
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_loop_equals_solve_bit_for_bit(self, four_block_instance, beta):
        x, labels, lam = four_block_instance
        params = DlrrParams(lam=lam, beta=beta, max_iter=150, eps=1e-30)
        L, E, trace, _ = solve(x, labels, params)
        rows, regimes = [], set()
        for state, row in steps(x, labels, params):
            rows.append(row)
            regimes.add((bool(state.J.any()), state.J_gram))
        assert state.iteration == trace.iterations == 150
        assert np.array_equal(state.L, L) and np.array_equal(state.E, E)
        assert rows == list(zip(trace.r1, trace.r2, trace.objective, trace.mu))
        if beta == 1.0:  # J = 0, then J by SVD, then by Gram
            assert {(False, False), (True, False), (True, True)} <= regimes

    def test_deepcopy_warm_start_continues_the_solve(self, four_block_instance):
        x, labels, lam = four_block_instance
        n, m = 60, 40
        params = DlrrParams(lam=lam, beta=1.0, max_iter=n + m, eps=1e-30)
        L, E, trace, _ = solve(x, labels, params)
        blocks = column_blocks(labels)
        state = SolverState.zeros(x.shape, params.mu0)
        for _ in range(n):
            step(state, x, blocks, params)
        warm = copy.deepcopy(state)
        rows = [step(warm, x, blocks, params) for _ in range(m)]
        assert warm.iteration == n + m and state.iteration == n
        assert np.array_equal(warm.L, L) and np.array_equal(warm.E, E)
        assert rows == list(zip(trace.r1, trace.r2, trace.objective, trace.mu))[n:]


def restored_share(width, bands, lam, beta):
    """||L||_F / ||X||_F of one block: the first class of a two-class
    scene, all in one superpixel."""
    cube, _ = two_class_cube(height=1, width=2 * width, bands=bands, seed=0)
    x = cube.x[:, :width]
    L, _, _, converged = solve(x, np.zeros(width, dtype=np.int64), DlrrParams(lam=lam, beta=beta))
    assert converged
    return np.linalg.norm(L) / np.linalg.norm(x)


@pytest.mark.parametrize("bands, lam", [(6, 0.05), (20, 0.1), (103, 0.01)])
@pytest.mark.parametrize("beta", [0.0, 1.0])
class TestLambdaFloor:
    """A block of n pixels in d bands restores to exactly zero once
    lam * sqrt(d * n) < 1: then lam * ||X_i||_1 < ||X_i||_*, so E takes the
    whole block.  The floor 1 / (lam^2 d) is 67 px for the 6-band demo at
    lam = 0.05, 5 px for 20 bands at lam = 0.1 and 97 px for the
    pavia_university preset (103 bands, lam = 0.01)."""

    def test_zero_at_a_quarter_of_the_floor(self, bands, lam, beta):
        # Measured: 0 exactly in all six cases.
        assert restored_share(round(0.25 / (lam**2 * bands)), bands, lam, beta) < 1e-3

    def test_not_zero_at_four_times_the_floor(self, bands, lam, beta):
        # Measured: 0.950 to 1.201.
        assert restored_share(round(4.0 / (lam**2 * bands)), bands, lam, beta) > 0.5


def model_value(beta, rho):
    """F = sum_i ||L_i||_* + lam ||E||_1 - beta ||L||_* at the point a solve
    returns, from fresh SVDs: four 64-px stripes, one block each, of a
    16x16x20 four-class scene at lam = 0.1."""
    cube, _ = two_class_cube(height=16, width=16, bands=20, seed=0, classes=4)
    ids = np.broadcast_to(np.arange(16) * 4 // 16, (16, 16))
    lam = 0.1
    L, E, _, converged = solve(cube.x, ids, DlrrParams(lam=lam, beta=beta, rho=rho, max_iter=1000))
    assert converged
    blocks = sum(nuclear_norm(L[:, cols]) for cols in column_blocks(ids))
    return blocks + lam * np.abs(E).sum() - beta * nuclear_norm(L)


class TestScheduleIndependence:
    """Whether the point a solve returns depends on the mu schedule: a slow
    rho (1.05, about 430 iterations here) against the presets' fast one
    (1.5, about 50).  This states the model's behaviour; it does not
    constrain the solver."""

    def test_the_presets_beta_gives_one_value_at_either_rho(self):
        # The shipped presets' beta.  Measured: F 89.0374 at rho = 1.05 and
        # 89.0408 at 1.5, 3.9e-5 apart relative.
        slow, fast = (model_value(0.5, rho) for rho in (1.05, 1.5))
        assert abs(slow - fast) <= 1e-3 * abs(fast)

    def test_beta_one_moves_further_the_slower_the_schedule(self):
        # At beta = 1 the two nuclear terms cost nothing on orthogonal
        # blocks, so F keeps falling while the penalty lets L move.
        # Measured: F 51.88 at rho = 1.05 against 53.98 at 1.5 (3.9% lower).
        slow, fast = (model_value(1.0, rho) for rho in (1.05, 1.5))
        assert slow < 0.98 * fast

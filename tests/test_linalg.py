import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spdlrr import SvdFailure, linalg
from spdlrr.linalg import (
    max_norm,
    nuclear_norm,
    nuclear_subgradient,
    singular_values,
    soft_threshold,
    subgradient_with_norm,
    svt,
    svt_with_norm,
    thin_svd,
)

finite_reals = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
thresholds = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


def random_matrix(seed, rows=None, cols=None):
    rng = np.random.default_rng(seed)
    rows = rows or int(rng.integers(1, 12))
    cols = cols or int(rng.integers(1, 12))
    return rng.standard_normal((rows, cols))


class TestSoftThreshold:
    def test_above_threshold(self):
        assert soft_threshold(1.2, 0.5) == pytest.approx(0.7)

    def test_inside_dead_zone(self):
        assert soft_threshold(-0.3, 0.5) == 0.0

    def test_below_negative_threshold(self):
        assert soft_threshold(-2.0, 0.5) == pytest.approx(-1.5)

    def test_elementwise_on_matrices(self):
        a = np.array([[1.2, -0.3], [-2.0, 0.0]])
        expected = np.array([[0.7, 0.0], [-1.5, 0.0]])
        np.testing.assert_allclose(soft_threshold(a, 0.5), expected)

    @given(finite_reals, thresholds)
    def test_odd(self, x, eps):
        assert soft_threshold(-x, eps) == -soft_threshold(x, eps)

    @given(finite_reals, finite_reals, thresholds)
    def test_lipschitz(self, x, y, eps):
        slack = 1e-9 * max(1.0, abs(x), abs(y))  # float rounding headroom
        assert abs(soft_threshold(x, eps) - soft_threshold(y, eps)) <= abs(x - y) + slack


class TestSvt:
    def test_diagonal(self):
        out = svt(np.diag([3.0, 1.0, 0.2]), 0.5)
        np.testing.assert_allclose(out, np.diag([2.5, 0.5, 0.0]), atol=1e-12)

    def test_zero_threshold_is_identity(self):
        a = random_matrix(0)
        np.testing.assert_allclose(svt(a, 0.0), a, atol=1e-10)

    def test_kills_rank_one_below_threshold(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(6)
        v = rng.standard_normal(4)
        a = np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
        np.testing.assert_allclose(svt(a, 2.0), np.zeros_like(a), atol=1e-12)

    @given(st.integers(0, 200), st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_never_increases_singular_values(self, seed, tau):
        a = random_matrix(seed)
        before = singular_values(a)
        after = singular_values(svt(a, tau))
        assert (after <= before + 1e-9).all()

    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_is_nuclear_prox(self, seed):
        # Independent check of the minimizing property on random instances:
        # perturbations never improve ||Z||_* + ||Z - A||_F^2 / (2 tau).
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, 6))
        tau = 0.3
        z = svt(a, tau)
        best = nuclear_norm(z) + np.sum((z - a) ** 2) / (2 * tau)
        for _ in range(5):
            other = z + 0.1 * rng.standard_normal(a.shape)
            alt = nuclear_norm(other) + np.sum((other - a) ** 2) / (2 * tau)
            assert best <= alt + 1e-9

    @given(st.integers(0, 200), st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_with_norm_returns_svt_and_its_nuclear_norm(self, seed, tau):
        a = random_matrix(seed)
        z, norm = svt_with_norm(a, tau)
        assert np.array_equal(z, svt(a, tau))
        assert norm == pytest.approx(nuclear_norm(z), rel=1e-9, abs=1e-9)


class TestNuclearNorm:
    def test_diagonal(self):
        assert nuclear_norm(np.diag([3.0, 1.0, 0.2])) == pytest.approx(4.2)

    def test_zero(self):
        assert nuclear_norm(np.zeros((4, 7))) == 0.0

    def test_householder_reflector(self):
        v = np.array([1.0, -2.0, 0.5])
        v /= np.linalg.norm(v)
        h = np.eye(3) - 2.0 * np.outer(v, v)
        # Orthogonal matrix: every singular value is 1; cross-check by SVD.
        assert nuclear_norm(h) == pytest.approx(3.0, abs=1e-10)
        assert np.linalg.svd(h, compute_uv=False).sum() == pytest.approx(3.0, abs=1e-10)

    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_norm_ordering(self, seed):
        a = random_matrix(seed)
        nuc = nuclear_norm(a)
        fro = np.linalg.norm(a)
        spec = np.linalg.norm(a, 2)
        assert nuc + 1e-9 >= fro >= spec - 1e-9


class TestMaxNorm:
    def test_example(self):
        assert max_norm(np.array([[1.0, -4.0], [2.0, 3.0]])) == 4.0

    def test_zero(self):
        assert max_norm(np.zeros((3, 3))) == 0.0

    def test_difference_with_self(self):
        a = random_matrix(2)
        assert max_norm(a - a) == 0.0


class TestNuclearSubgradient:
    def test_positive_diagonal(self):
        np.testing.assert_allclose(
            nuclear_subgradient(np.diag([2.0, 3.0])), np.eye(2), atol=1e-12
        )

    def test_zero_matrix(self):
        np.testing.assert_allclose(
            nuclear_subgradient(np.zeros((3, 5))), np.zeros((3, 5))
        )

    def test_random_identities(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((20, 15))
        g = nuclear_subgradient(a)
        assert np.linalg.norm(g, 2) <= 1.0 + 1e-8
        assert np.trace(g.T @ a) == pytest.approx(nuclear_norm(a), abs=1e-6)

    @given(st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_identities_hold_generally(self, seed):
        a = random_matrix(seed)
        g = nuclear_subgradient(a)
        nuc = nuclear_norm(a)
        assert np.linalg.norm(g, 2) <= 1.0 + 1e-8
        assert abs(np.trace(g.T @ a) - nuc) <= 1e-6 * max(1.0, nuc)

    @given(st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_with_norm_matches_separate_calls(self, seed):
        a = random_matrix(seed)
        g, norm = subgradient_with_norm(a)
        assert np.array_equal(g, nuclear_subgradient(a))
        assert norm == pytest.approx(nuclear_norm(a), rel=1e-12)

    def test_with_norm_of_zero_matrix(self):
        g, norm = subgradient_with_norm(np.zeros((3, 5)))
        assert norm == 0.0 and not g.any()


class TestThinSvd:
    @given(st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_factor_invariants(self, seed):
        a = random_matrix(seed)
        u, s, vt = thin_svd(a)
        assert (np.diff(s) <= 1e-12).all()
        assert (s >= 0).all()
        k = s.size
        np.testing.assert_allclose(u.T @ u, np.eye(k), atol=1e-8)
        np.testing.assert_allclose(vt @ vt.T, np.eye(k), atol=1e-8)
        err = np.linalg.norm((u * s) @ vt - a) / max(1.0, np.linalg.norm(a))
        assert err <= 1e-8


def svd_subgradient(a, rank_tol=1e-10):
    """subgradient_with_norm by one thin SVD, as it was before the Gram
    path: the reference for both its paths."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros_like(a), 0.0
    keep = s > rank_tol * s[0]
    return u[:, keep] @ vt[keep, :], float(s.sum())


def planted(seed, shape, sigma):
    """A matrix of the given shape with singular values sigma and random
    singular vectors."""
    rng = np.random.default_rng(seed)
    k = len(sigma)
    u = np.linalg.qr(rng.standard_normal((shape[0], k)))[0]
    v = np.linalg.qr(rng.standard_normal((shape[1], k)))[0]
    return (u * np.asarray(sigma, dtype=np.float64)) @ v.T


def floor_sigma(k, factor):
    """k-1 unit singular values and a last one at `factor` times the Gram
    floor's share of the Frobenius norm they all make together."""
    c = factor * linalg._GRAM_FLOOR
    return [1.0] * (k - 1) + [c * np.sqrt((k - 1) / (1.0 - c * c))]


def counted_subgradient(a, rank_tol=1e-10):
    """(subgradient, norm, number of thin_svd calls it took)."""
    with mock.patch.object(linalg, "thin_svd", wraps=linalg.thin_svd) as svd:
        g, norm = subgradient_with_norm(a, rank_tol)
    return g, norm, svd.call_count


class TestGramSubgradient:
    @given(
        st.integers(0, 10_000),
        st.integers(1, 40),
        st.integers(0, 40),
        st.booleans(),
        st.floats(min_value=np.log10(linalg._GRAM_FLOOR), max_value=0.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_svd_reference(self, seed, small, extra, tall, log_ratio, log_scale):
        # Singular values log-spaced from 1 down to sigma_min/sigma_max.
        shape = (small + extra, small) if tall else (small, small + extra)
        sigma = 10.0**log_scale * np.logspace(0.0, log_ratio, small)
        a = planted(seed, shape, sigma)
        g, norm, svd_calls = counted_subgradient(a)
        g_ref, norm_ref = svd_subgradient(a)
        assert g.shape == a.shape and g.flags.c_contiguous
        assert np.max(np.abs(g - g_ref)) <= 1e-10
        assert abs(norm - norm_ref) <= 1e-12 * norm_ref
        # Clear of the floor, the path is decided: Gram above, SVD below.
        s = np.linalg.svd(a, compute_uv=False)
        share = s[-1] / (linalg._GRAM_FLOOR * np.linalg.norm(a))
        if share > 1.01:
            assert svd_calls == 0
        elif share < 0.99:
            assert svd_calls == 1 and np.array_equal(g, g_ref) and norm == norm_ref

    @pytest.mark.parametrize("tall", [False, True])
    @pytest.mark.parametrize(
        "case",
        ["rank-deficient", "just-below-floor", "zero", "rank-tol-above-floor"],
    )
    def test_svd_path_is_bitwise_the_reference(self, case, tall):
        rank_tol = 1e-10
        if case == "rank-deficient":
            a = planted(1, (6, 9), [3.0, 1.0])
        elif case == "just-below-floor":
            a = planted(2, (6, 9), floor_sigma(6, 0.99))
        elif case == "zero":
            a = np.zeros((6, 9))
        else:
            # Well clear of the floor, but rank_tol drops the last direction.
            a = planted(3, (6, 9), [1.0, 0.9, 0.8, 0.7, 0.6, 0.3])
            rank_tol = 0.5
        a = a.T.copy() if tall else a
        g, norm, svd_calls = counted_subgradient(a, rank_tol)
        g_ref, norm_ref = svd_subgradient(a, rank_tol)
        assert svd_calls == 1
        assert np.array_equal(g, g_ref) and norm == norm_ref

    def test_just_above_floor_takes_gram_path(self):
        a = planted(2, (6, 9), floor_sigma(6, 1.01))
        g, norm, svd_calls = counted_subgradient(a)
        g_ref, norm_ref = svd_subgradient(a)
        assert svd_calls == 0
        assert np.max(np.abs(g - g_ref)) <= 1e-10
        assert norm == pytest.approx(norm_ref, rel=1e-12)

    def test_norm_as_accurate_as_the_svd(self):
        # Many singular values just above the floor: square roots of G's
        # eigenvalues would be off by ~1e-13 relative; the row norms of
        # V^T a are not.
        k = 40
        a = planted(7, (k, 60), [1.0] + [1.05e-3 * np.sqrt(1 + k * 1.2e-6)] * (k - 1))
        g, norm, svd_calls = counted_subgradient(a)
        assert svd_calls == 0
        norm_ref = svd_subgradient(a)[1]
        assert abs(norm - norm_ref) <= 1e-14 * norm_ref

    @pytest.mark.parametrize("shape", [(9, 14), (14, 9)])
    def test_gram_path_factors_the_unshifted_gram_matrix(self, shape):
        # The gate shifts G's diagonal in place; the eigenvectors must come
        # from G itself, restored bit for bit.
        a = np.random.default_rng(8).standard_normal(shape)
        t = a.T if shape[0] > shape[1] else a
        v = np.linalg.eigh(t @ t.T)[1]
        b = v.T @ t
        s = np.sqrt(np.einsum("ij,ij->i", b, b))
        b /= s[:, None]
        g, norm = subgradient_with_norm(a)
        assert np.array_equal(g, v @ b if t is a else b.T @ v.T)
        assert norm == float(s.sum())

    def test_rank_tol_above_floor_sets_the_gate(self):
        # sigma_min / ||a||_F is 0.5: the Gram path keeps every direction
        # under rank_tol 0.4, and leaves rank_tol 0.6 to the SVD.
        a = planted(4, (4, 7), [1.0, 1.0, 1.0, 1.0])
        for rank_tol, expected_calls in ((0.4, 0), (0.6, 1)):
            g, norm, svd_calls = counted_subgradient(a, rank_tol)
            g_ref, norm_ref = svd_subgradient(a, rank_tol)
            assert svd_calls == expected_calls
            assert np.max(np.abs(g - g_ref)) <= 1e-10
            assert norm == pytest.approx(norm_ref, rel=1e-12)

    def test_well_conditioned_takes_no_svd_ill_conditioned_one(self):
        well = np.random.default_rng(5).standard_normal((20, 50))
        ill = planted(5, (20, 50), [1.0] * 19 + [1e-6])
        assert counted_subgradient(well)[2] == 0
        assert counted_subgradient(ill)[2] == 1
        assert counted_subgradient(well.T)[2] == 0
        assert counted_subgradient(ill.T)[2] == 1

    def test_input_is_not_modified(self):
        a = np.random.default_rng(6).standard_normal((8, 5))
        before = a.copy()
        subgradient_with_norm(a)
        assert np.array_equal(a, before)


class TestNonFinite:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fn", [thin_svd, subgradient_with_norm, svt_with_norm])
    def test_raises_svd_failure(self, fn, value):
        a = random_matrix(8, 5, 7)
        a[2, 3] = value
        args = (a, 0.1) if fn is svt_with_norm else (a,)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SvdFailure, match="non-finite"):
                fn(*args)

    def test_finite_extremes_still_factor(self):
        a = np.diag([1e150, 1e-150])
        assert thin_svd(a)[1] == pytest.approx([1e150, 1e-150])

    def test_empty_matrix(self):
        assert thin_svd(np.zeros((0, 4)))[1].size == 0

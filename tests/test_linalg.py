import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

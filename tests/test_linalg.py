import os
import signal
import threading
import time
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from spdlrr import (
    DlrrParams,
    HsiCube,
    NonFiniteData,
    SvdFailure,
    linalg,
    normalize,
    solve,
    split,
    train_predict,
)
from spdlrr import io as spio
from spdlrr.linalg import (
    all_finite,
    max_norm,
    nuclear_norm,
    nuclear_subgradient,
    singular_values,
    soft_threshold,
    svt,
    thin_svd,
)
from test_classify import blob_instance

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
        out = svt(np.diag([3.0, 1.0, 0.2]), 0.5)[0]
        np.testing.assert_allclose(out, np.diag([2.5, 0.5, 0.0]), atol=1e-12)

    def test_zero_threshold_is_identity(self):
        a = random_matrix(0)
        np.testing.assert_allclose(svt(a, 0.0)[0], a, atol=1e-10)

    def test_kills_rank_one_below_threshold(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(6)
        v = rng.standard_normal(4)
        a = np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
        np.testing.assert_allclose(svt(a, 2.0)[0], np.zeros_like(a), atol=1e-12)

    @given(st.integers(0, 200), st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_never_increases_singular_values(self, seed, tau):
        a = random_matrix(seed)
        before = singular_values(a)
        after = singular_values(svt(a, tau)[0])
        assert (after <= before + 1e-9).all()

    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_is_nuclear_prox(self, seed):
        # Independent check of the minimizing property on random instances:
        # perturbations never improve ||Z||_* + ||Z - A||_F^2 / (2 tau).
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, 6))
        tau = 0.3
        z = svt(a, tau)[0]
        best = nuclear_norm(z) + np.sum((z - a) ** 2) / (2 * tau)
        for _ in range(5):
            other = z + 0.1 * rng.standard_normal(a.shape)
            alt = nuclear_norm(other) + np.sum((other - a) ** 2) / (2 * tau)
            assert best <= alt + 1e-9

    @given(st.integers(0, 200), st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_with_norm_returns_svt_and_its_nuclear_norm(self, seed, tau):
        a = random_matrix(seed)
        z, norm = svt(a, tau)
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
            nuclear_subgradient(np.diag([2.0, 3.0]))[0], np.eye(2), atol=1e-12
        )

    def test_zero_matrix(self):
        np.testing.assert_allclose(
            nuclear_subgradient(np.zeros((3, 5)))[0], np.zeros((3, 5))
        )

    def test_random_identities(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((20, 15))
        g = nuclear_subgradient(a)[0]
        assert np.linalg.norm(g, 2) <= 1.0 + 1e-8
        assert np.trace(g.T @ a) == pytest.approx(nuclear_norm(a), abs=1e-6)

    @given(st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_identities_hold_generally(self, seed):
        a = random_matrix(seed)
        g = nuclear_subgradient(a)[0]
        nuc = nuclear_norm(a)
        assert np.linalg.norm(g, 2) <= 1.0 + 1e-8
        assert abs(np.trace(g.T @ a) - nuc) <= 1e-6 * max(1.0, nuc)

    @given(st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_with_norm_matches_separate_calls(self, seed):
        a = random_matrix(seed)
        norm = nuclear_subgradient(a)[1]
        assert norm == pytest.approx(nuclear_norm(a), rel=1e-12)

    def test_with_norm_of_zero_matrix(self):
        g, norm, gram = nuclear_subgradient(np.zeros((3, 5)))
        assert norm == 0.0 and not g.any() and not gram


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

    def test_gesdd_failure_falls_back_to_gesvd(self):
        a = random_matrix(7, 9, 5)
        expected = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesvd")
        failure = np.linalg.LinAlgError("SVD did not converge")
        with mock.patch.object(np.linalg, "svd", side_effect=failure) as gesdd:
            got = thin_svd(a)
        assert gesdd.call_count == 1
        for g, e in zip(got, expected, strict=True):
            assert np.array_equal(g, e)

    def test_both_drivers_failing_is_svd_failure(self):
        failure = np.linalg.LinAlgError("SVD did not converge")
        with mock.patch.object(np.linalg, "svd", side_effect=failure), mock.patch.object(
            scipy.linalg, "svd", side_effect=failure
        ):
            with pytest.raises(SvdFailure, match="did not converge"):
                thin_svd(random_matrix(7, 9, 5))


def svd_subgradient(a):
    """nuclear_subgradient by one thin SVD, as it was before the Gram
    path: the reference for both its paths."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros_like(a), 0.0
    keep = s > 1e-10 * s[0]
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


def counted_subgradient(a):
    """(subgradient, norm, number of thin_svd calls it took); the Gram bit
    it returns must say whether a nonzero a was factored without an SVD."""
    with mock.patch.object(linalg, "thin_svd", wraps=linalg.thin_svd) as svd:
        g, norm, gram = nuclear_subgradient(a)
    assert gram == (a.any() and svd.call_count == 0)
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
    @pytest.mark.parametrize("case", ["rank-deficient", "just-below-floor", "zero"])
    def test_svd_path_is_bitwise_the_reference(self, case, tall):
        if case == "rank-deficient":
            a = planted(1, (6, 9), [3.0, 1.0])
        elif case == "just-below-floor":
            a = planted(2, (6, 9), floor_sigma(6, 0.99))
        else:
            a = np.zeros((6, 9))
        a = a.T.copy() if tall else a
        g, norm, svd_calls = counted_subgradient(a)
        g_ref, norm_ref = svd_subgradient(a)
        assert svd_calls == (0 if case == "zero" else 1)  # zero: answered without one
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
        g, norm, gram = nuclear_subgradient(a)
        assert gram and np.array_equal(g, v @ b if t is a else b.T @ v.T)
        assert norm == float(s.sum())

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
        nuclear_subgradient(a)
        assert np.array_equal(a, before)


def svd_svt(a, tau):
    """svt by one thin SVD, as it was before the zero and Gram
    paths: the reference for all three."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    return (u * s) @ vt, float(s.sum())


def counted(fn, *args, **kwargs):
    """(fn's result, thin_svd calls, Gram factorizations tried) in one call."""
    with mock.patch.object(linalg, "thin_svd", wraps=linalg.thin_svd) as svd, \
            mock.patch.object(linalg, "_gram_factor", wraps=linalg._gram_factor) as gram:
        out = fn(*args, **kwargs)
    return out, svd.call_count, gram.call_count


class TestZeroShortcut:
    @pytest.mark.parametrize("gram", [False, True])
    @pytest.mark.parametrize("tall", [False, True])
    @pytest.mark.parametrize(
        "case", ["rank-one-sigma-at-tau", "norm-exactly-tau", "norm-just-above-tau"]
    )
    def test_edges(self, case, tall, gram):
        # Entries 3 and 4 make ||a||_F exactly 5 in floating point.
        a = np.zeros((2, 3))
        if case == "rank-one-sigma-at-tau":
            a[:, 0] = [3.0, 4.0]  # sigma = ||a||_F = tau
        else:
            a[0, 0], a[1, 1] = 3.0, 4.0  # sigma = 4, 3: below tau
        tau = np.nextafter(5.0, 0.0) if case == "norm-just-above-tau" else 5.0
        a = a.T.copy() if tall else a
        (z, norm), svd_calls, gram_calls = counted(svt, a, tau, gram=gram)
        z_ref, norm_ref = svd_svt(a, tau)
        assert z.shape == a.shape and (z == 0).all() and norm == 0.0
        assert np.max(np.abs(z - z_ref)) <= 1e-15 * tau and abs(norm - norm_ref) <= 1e-15 * tau
        if case == "norm-just-above-tau":
            # sigma_max is still below tau: zero again, but found by factoring.
            assert np.array_equal(z, z_ref) and norm == norm_ref
            assert (svd_calls, gram_calls) == ((0, 1) if gram else (1, 0))
        else:
            assert (svd_calls, gram_calls) == (0, 0)

    @given(st.integers(0, 10_000), st.floats(min_value=0.0, max_value=3.0), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_tau_above_frobenius_norm(self, seed, excess, gram):
        a = random_matrix(seed)
        tau = np.linalg.norm(a) * (1.0 + 1e-9 + excess)
        (z, norm), svd_calls, gram_calls = counted(svt, a, tau, gram=gram)
        z_ref, norm_ref = svd_svt(a, tau)
        assert (svd_calls, gram_calls) == (0, 0)
        assert z.shape == a.shape and (z == 0).all() and norm == 0.0
        assert np.array_equal(z, z_ref) and norm == norm_ref

    def test_tiny_entries_are_not_lost(self):
        # Squaring 1e-170 underflows; a scaled norm keeps ||a||_F > tau.
        a = np.diag([2e-170, 1e-170])
        z, norm = svt(a, 1e-170)
        assert z[0, 0] == pytest.approx(1e-170) and norm == pytest.approx(1e-170)

    @pytest.mark.parametrize("shape", [(6, 9), (9, 6), (0, 4)])
    def test_all_zero_j_takes_no_factorization(self, shape):
        a = np.zeros(shape)
        (g, norm, gram), svd_calls, gram_calls = counted(nuclear_subgradient, a)
        g_ref, norm_ref = svd_subgradient(a) if a.size else (np.zeros(shape), 0.0)
        assert (svd_calls, gram_calls) == (0, 0)
        assert not gram and norm == 0.0 == norm_ref
        assert g.shape == shape and np.array_equal(g, g_ref)


class TestGramSvt:
    @given(
        st.integers(0, 10_000),
        st.integers(1, 40),
        st.integers(0, 40),
        st.booleans(),
        st.floats(min_value=np.log10(linalg._GRAM_FLOOR), max_value=0.0),
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_svd_reference(self, seed, small, extra, tall, log_ratio, log_scale, level):
        shape = (small + extra, small) if tall else (small, small + extra)
        sigma = 10.0**log_scale * np.logspace(0.0, log_ratio, small)
        a = planted(seed, shape, sigma)
        tau = level * sigma[0]  # below sigma_max, so below ||a||_F: no zero shortcut
        (z, norm), svd_calls, _ = counted(svt, a, tau, gram=True)
        z_ref, norm_ref = svd_svt(a, tau)
        assert z.shape == a.shape and z.flags.c_contiguous
        assert np.max(np.abs(z - z_ref)) <= 1e-10
        assert abs(norm - norm_ref) <= 1e-12 * sigma.sum()
        s = np.linalg.svd(a, compute_uv=False)
        share = s[-1] / (linalg._GRAM_FLOOR * np.linalg.norm(a))
        if share > 1.01:
            assert svd_calls == 0
        elif share < 0.99:
            assert svd_calls == 1 and np.array_equal(z, z_ref) and norm == norm_ref

    @pytest.mark.parametrize("shape", [(6, 9), (9, 6)])
    @pytest.mark.parametrize(
        "case", ["default", "gram-false", "below-floor", "rank-deficient"]
    )
    def test_svd_path_is_bitwise_the_reference(self, case, shape):
        k = min(shape)
        if case == "below-floor":
            a = planted(2, shape, floor_sigma(k, 0.99))
        elif case == "rank-deficient":
            a = planted(1, shape, [3.0, 1.0])
        else:
            a = planted(3, shape, np.linspace(1.0, 0.5, k))  # passes the gate
        kwargs = {} if case == "default" else {"gram": case != "gram-false"}
        (z, norm), svd_calls, gram_calls = counted(svt, a, 0.2, **kwargs)
        z_ref, norm_ref = svd_svt(a, 0.2)
        assert svd_calls == 1 and gram_calls == int(kwargs.get("gram", False))
        assert np.array_equal(z, z_ref) and norm == norm_ref

    @pytest.mark.parametrize("shape", [(6, 9), (9, 6)])
    def test_just_above_floor_takes_gram_path(self, shape):
        a = planted(2, shape, floor_sigma(min(shape), 1.01))
        (z, norm), svd_calls, _ = counted(svt, a, 0.5, gram=True)
        z_ref, norm_ref = svd_svt(a, 0.5)
        assert svd_calls == 0
        assert np.max(np.abs(z - z_ref)) <= 1e-10
        assert norm == pytest.approx(norm_ref, rel=1e-12)

    def test_input_is_not_modified(self):
        a = np.random.default_rng(6).standard_normal((8, 5))
        before = a.copy()
        svt(a, 0.3, gram=True)
        assert np.array_equal(a, before)


class TestNonFinite:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fn", [thin_svd, nuclear_subgradient, svt, singular_values, nuclear_norm])
    def test_raises_svd_failure(self, fn, value):
        a = random_matrix(8, 5, 7)
        a[2, 3] = value
        args = (a, 0.1) if fn is svt else (a,)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SvdFailure, match="non-finite"):
                fn(*args)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("tall", [False, True])
    @pytest.mark.parametrize("gram", [False, True])
    @pytest.mark.parametrize("tau", [1e-3, 1e300, np.inf])
    def test_svt_raises_on_every_path(self, tau, gram, tall, value):
        # A tau at or above ||a||_F would take the zero shortcut for the
        # finite part; the Gram gate would pass it.
        a = random_matrix(9, 7, 5) if tall else random_matrix(9, 5, 7)
        a[1, 2] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SvdFailure, match="non-finite"):
                svt(a, tau, gram=gram)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_lone_non_finite_entry_is_not_zero(self, value):
        a = np.zeros((4, 6))
        a[3, 5] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in (nuclear_subgradient, lambda m: svt(m, 1.0, gram=True)):
                with pytest.raises(SvdFailure, match="non-finite"):
                    fn(a)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    def test_gram_overflow_falls_back_quietly(self, shape):
        # G's entries overflow; the gate must hand a to the SVD, not warn.
        a = np.zeros(shape)
        a[0, 0], a[1, 1] = 1e200, 1e199
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (z, norm), svd_calls, _ = counted(svt, a, 1e198, gram=True)
            g, g_norm, gram = nuclear_subgradient(a)
        z_ref, norm_ref = svd_svt(a, 1e198)
        assert svd_calls == 1 and np.array_equal(z, z_ref) and norm == norm_ref
        assert not gram and np.array_equal(g, svd_subgradient(a)[0])

    def test_finite_extremes_still_factor(self):
        a = np.diag([1e150, 1e-150])
        assert thin_svd(a)[1] == pytest.approx([1e150, 1e-150])

    def test_empty_matrix(self):
        assert thin_svd(np.zeros((0, 4)))[1].size == 0


class TestAllFinite:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, -1])
    def test_every_caller_rejects_a_non_finite_end_entry(self, tmp_path, where, value):
        # Each caller keeps its own error type and message.
        x = random_matrix(3, 3, 4)
        x.flat[where] = value
        manifest = tmp_path / "cube.json"
        spio.write_cube(HsiCube(2, 2, np.ones((3, 4))), str(manifest))
        (tmp_path / "cube.raw").write_bytes(x.astype("<f4").tobytes())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not all_finite(x) and not all_finite(x.astype(np.float32))
            with pytest.raises(SvdFailure, match="non-finite"):
                thin_svd(x)
            with pytest.raises(ValueError, match="cube entries must be finite"):
                HsiCube(2, 2, x)
            with pytest.raises(ValueError, match="x must be finite"):
                solve(x, np.zeros(4, dtype=np.int64), DlrrParams())
            with pytest.raises(NonFiniteData, match="NaN or Inf"):
                spio.load_cube(str(manifest))

    def test_finite_and_empty_arrays_pass(self):
        assert all_finite(np.zeros((0, 3)))
        assert all_finite(np.array([[-np.finfo(float).max, np.finfo(float).max]]))
        assert all_finite(random_matrix(4, 3, 4))


class TestEachChunk:
    """The chunk pool that the classifiers and the per-pixel passes share."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @given(st.integers(0, 60), st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_every_chunk_runs_once(self, workers, n, size):
        seen = []

        def chunk(s):
            seen.append((s.start, s.stop))
            return s.start, s.stop

        with mock.patch.object(linalg, "_WORKERS", workers):
            got = linalg._each_chunk(n, size, chunk)
        expected = [(i, min(i + size, n)) for i in range(0, n, size)]
        assert sorted(seen) == expected
        assert got == expected  # each chunk's result, in chunk order

    def test_a_failing_chunk_is_reported(self):
        caller = threading.get_ident()

        def chunk(s):
            if threading.get_ident() != caller:
                raise MemoryError("chunk on the pool thread")

        with mock.patch.object(linalg, "_WORKERS", 2):
            threads = threading.active_count()
            with pytest.raises(MemoryError, match="pool thread"):
                linalg._each_chunk(60, 16, chunk)  # 4 chunks
            assert threading.active_count() == threads

    def test_a_forked_child_runs_chunks_after_the_parent(self):
        # bench/run.py checks outputs in os.fork()ed children: a pool that
        # outlived its call would have no threads there, and the child would
        # wait on it forever.
        feats, field = blob_instance(h=6, w=10)
        s = split(field, 0.3, seed=2)
        cube = HsiCube(6, 10, feats)

        def outputs():
            x = normalize(cube).x
            return [x] + [train_predict(x, s, field, kind).labels for kind in ("nearest-centroid", "knn")]

        with mock.patch.object(linalg, "_WORKERS", 3), mock.patch.object(
            linalg, "_COLUMN_CHUNK", 16
        ), mock.patch("spdlrr.classify._PREDICT_CHUNK", 16):  # 60 pixels: 4 chunks
            threads = threading.active_count()
            parent = outputs()
            assert threading.active_count() == threads
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    code = 0 if all(map(np.array_equal, outputs(), parent)) else 3
                finally:
                    os._exit(code)
        deadline = time.monotonic() + 60.0
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish its chunks within 60 s")
        assert os.waitstatus_to_exitcode(done[1]) == 0

"""Dense matrix kernels used by the block low-rank solver.

All functions are pure: inputs are never mutated and there is no hidden
state, so everything here is safe to call concurrently.
"""

import numpy as np
import scipy.linalg

from .errors import SvdFailure


def soft_threshold(x, eps):
    """Shrink toward zero: sgn(x) * max(|x| - eps, 0), elementwise."""
    return np.sign(x) * np.maximum(np.abs(x) - eps, 0.0)


def thin_svd(a):
    """Thin SVD (U, s, Vt) with s non-increasing.

    Uses the fast gesdd driver and falls back to the more robust gesvd
    before giving up with SvdFailure.
    """
    a = np.asarray(a, dtype=np.float64)
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError:
        try:
            return scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesvd")
        except np.linalg.LinAlgError as exc:
            raise SvdFailure(f"SVD did not converge on a {a.shape} matrix") from exc


def singular_values(a):
    """Singular values of a, non-increasing."""
    a = np.asarray(a, dtype=np.float64)
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError:
        return thin_svd(a)[1]


def svt(a, tau):
    """Singular value thresholding: soft-threshold the singular values of a.

    For tau > 0 this is the proximal map of the nuclear norm, i.e. the unique
    minimizer of ||Z||_* + (1 / (2 tau)) ||Z - a||_F^2; tau = 0 reproduces a.
    """
    return svt_with_norm(a, tau)[0]


def svt_with_norm(a, tau):
    """(svt(a, tau), its nuclear norm) from one SVD: the thresholded
    singular values are the singular values of the result."""
    u, s, vt = thin_svd(a)
    s = soft_threshold(s, tau)
    return (u * s) @ vt, float(s.sum())


def nuclear_norm(a):
    """Sum of singular values."""
    return float(singular_values(a).sum())


def max_norm(a):
    """Largest absolute entry."""
    return float(np.max(np.abs(a)))


def nuclear_subgradient(a, rank_tol=1e-10):
    """Canonical subgradient U_r V_r^T of the nuclear norm at a.

    Keeps singular directions with sigma > rank_tol * sigma_max.  At a = 0
    the zero matrix is returned, which lies in the subdifferential there.
    """
    return subgradient_with_norm(a, rank_tol)[0]


def subgradient_with_norm(a, rank_tol=1e-10):
    """(nuclear_subgradient(a, rank_tol), ||a||_*) from one SVD."""
    u, s, vt = thin_svd(a)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros_like(np.asarray(a, dtype=np.float64)), 0.0
    keep = s > rank_tol * s[0]
    return u[:, keep] @ vt[keep, :], float(s.sum())

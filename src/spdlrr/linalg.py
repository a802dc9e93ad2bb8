"""Dense matrix kernels used by the block low-rank solver.

All functions are pure: inputs are never mutated and there is no hidden
state, so everything here is safe to call concurrently.
"""

import numpy as np
import scipy.linalg

from .errors import SvdFailure

_GRAM_FLOOR = 1e-3  # see subgradient_with_norm


def soft_threshold(x, eps):
    """Shrink toward zero: sgn(x) * max(|x| - eps, 0), elementwise."""
    return np.sign(x) * np.maximum(np.abs(x) - eps, 0.0)


def thin_svd(a):
    """Thin SVD (U, s, Vt) with s non-increasing.

    Uses the fast gesdd driver, then the more robust gesvd, before giving up
    with SvdFailure; a NaN or infinite entry raises it at once.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise SvdFailure(f"non-finite entries in a {a.shape} matrix")
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
    """(nuclear_subgradient(a, rank_tol), ||a||_*) from one factorization.

    If every singular value exceeds max(_GRAM_FLOOR, rank_tol) * ||a||_F, as a
    Cholesky factorization of the smaller-side Gram matrix G minus that bound
    squared tells, a is factored by G's eigenvectors V: B = V^T a, sigma = the
    row norms of B, subgradient V diag(1/sigma) B.  Otherwise one thin SVD:
    squaring into G loses singular values far below the largest.
    """
    a = np.asarray(a, dtype=np.float64)
    t = a.T if a.shape[0] > a.shape[1] else a  # rows are the smaller side
    g = t @ t.T
    diag = g.ravel()[:: g.shape[0] + 1]  # a writable view of G's diagonal
    saved = diag.copy()
    shift = max(_GRAM_FLOOR, rank_tol) ** 2 * saved.sum()
    if 0.0 < shift < np.inf:  # G - shift I is positive definite iff its Cholesky succeeds
        diag -= shift
        info = scipy.linalg.lapack.dpotrf(g)[1]
        diag[:] = saved
        if info == 0:
            v = np.linalg.eigh(g)[1]
            b = v.T @ t
            s = np.sqrt(np.einsum("ij,ij->i", b, b))
            b /= s[:, None]
            return (v @ b if t is a else b.T @ v.T), float(s.sum())  # C-ordered, as a is
    del g
    u, s, vt = thin_svd(a)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros_like(a), 0.0
    keep = s > rank_tol * s[0]
    return u[:, keep] @ vt[keep, :], float(s.sum())

"""Dense matrix kernels used by the block low-rank solver, and the chunk
pool that the per-pixel passes share.

All functions are pure: inputs are never mutated and there is no hidden
state, so everything here is safe to call concurrently.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.linalg

from .errors import SvdFailure

# Threads that run a pass's chunks: the caller and a pool of the rest, one
# per CPU this process may run on (macOS has no sched_getaffinity), but at
# most two, the one size that was timed.  CPU quotas are not read.
if hasattr(os, "sched_getaffinity"):
    _WORKERS = min(len(os.sched_getaffinity(0)), 2)
else:
    _WORKERS = min(os.cpu_count() or 1, 2)
# Pixels per chunk of the elementwise passes over a bands x pixels matrix.
# At Pavia extent (103 bands, 13 MB of float64 per chunk) normalize took
# 0.085-0.095 s on 2 threads at this width, 0.107 s at 4,096 pixels and
# 0.099 s at 65,536.
_COLUMN_CHUNK = 16384

_GRAM_FLOOR = 1e-3  # see _gram_factor
# A nuclear subgradient keeps the directions with sigma > _RANK_TOL * sigma_max.
# _RANK_TOL < _GRAM_FLOOR, so an a that passes the Gram gate has none to cut.
_RANK_TOL = 1e-10


def soft_threshold(x, eps):
    """Shrink toward zero: sgn(x) * max(|x| - eps, 0), elementwise."""
    return np.sign(x) * np.maximum(np.abs(x) - eps, 0.0)


def _each_chunk(n, size, fn):
    """Call fn(s) once for the slice s of every size-long chunk of
    range(n), the last one possibly shorter; fn must write only its own
    chunk's part of any output.

    Up to _WORKERS threads, the caller and a pool that lives only for this
    call (so no thread is left for os.fork to strand in a child process),
    take every n-th chunk each.  Results do not depend on which thread ran
    a chunk: the chunks and each chunk's arithmetic are those of a serial
    loop, and numpy releases the GIL in the elementwise loops, reductions,
    matmuls and sorts that the chunks spend their time in."""
    starts = range(0, n, size)
    workers = max(1, min(_WORKERS, len(starts)))

    def run(i):
        for start in starts[i::workers]:
            fn(slice(start, min(start + size, n)))

    if workers == 1:
        run(0)
        return
    with ThreadPoolExecutor(workers - 1) as pool:
        futures = [pool.submit(run, i) for i in range(1, workers)]
        run(0)
    for future in futures:
        future.result()


def _each_column_chunk(a, fn):
    """_each_chunk over the last axis of a, in _COLUMN_CHUNK-wide chunks."""
    _each_chunk(a.shape[-1], _COLUMN_CHUNK, fn)


def extremes(a):
    """(min, max) of a non-empty a, as the min and max of its column chunks:
    the same values a.min() and a.max() give, NaN if a holds one."""
    a = np.atleast_1d(a)
    found = np.empty((2, len(range(0, a.shape[-1], _COLUMN_CHUNK))), dtype=a.dtype)

    def chunk(s):
        part = a[..., s]
        i = s.start // _COLUMN_CHUNK
        found[0, i] = part.min()
        found[1, i] = part.max()

    _each_column_chunk(a, chunk)
    return found[0].min(), found[1].max()


def all_finite(a):
    """Whether every entry of a is finite, with no a-sized temporary: a NaN
    makes the min and max NaN, and an infinity is one of them."""
    return a.size == 0 or bool(np.isfinite(extremes(a)).all())


def thin_svd(a):
    """Thin SVD (U, s, Vt) with s non-increasing.

    Uses the fast gesdd driver, then the more robust gesvd, before giving up
    with SvdFailure; a NaN or infinite entry raises it at once.
    """
    a = np.asarray(a, dtype=np.float64)
    if not all_finite(a):
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


def svt(a, tau, gram=False):
    """Singular value thresholding: (Z, ||Z||_*) with Z the matrix a with
    its singular values soft-thresholded by tau, which then sum to ||Z||_*.

    For tau > 0, Z is the proximal map of the nuclear norm, i.e. the unique
    minimizer of ||Z||_* + (1 / (2 tau)) ||Z - a||_F^2; tau = 0 reproduces a.
    When ||a||_F <= tau every singular value is at most tau, so the result is
    exactly zero with norm 0.0 and nothing is factored.  With gram=True an a
    that passes the Gram gate (_gram_factor) is thresholded as
    V diag(max(sigma - tau, 0) / sigma) V^T t; otherwise, and by default, by
    one thin SVD."""
    a = np.asarray(a, dtype=np.float64)
    norm = scipy.linalg.norm(a.ravel(), check_finite=False)  # BLAS nrm2: scaled, no underflow
    if norm <= tau and np.isfinite(norm):  # NaN and Inf go on to thin_svd's check
        return np.zeros_like(a), 0.0
    factor = _gram_factor(a) if gram else None
    if factor is not None:
        v, b, s, transposed = factor
        kept = soft_threshold(s, tau)
        b *= (kept / s)[:, None]
        return (b.T @ v.T if transposed else v @ b), float(kept.sum())  # C-ordered, as a is
    u, s, vt = thin_svd(a)
    s = soft_threshold(s, tau)
    return (u * s) @ vt, float(s.sum())


def nuclear_norm(a):
    """Sum of singular values."""
    return float(singular_values(a).sum())


def max_norm(a):
    """Largest absolute entry."""
    return float(np.max(np.abs(a)))


def _gram_factor(a):
    """Factor a through the Gram matrix G = t t^T of its smaller side t (a,
    or a^T when a is tall): (V, B, sigma, transposed) with V the eigenvectors
    of G, B = V^T t and sigma the row norms of B, a's singular values.

    None unless every singular value exceeds _GRAM_FLOOR * ||a||_F, as a
    Cholesky factorization of G minus that bound squared tells: squaring
    into G loses singular values far below the largest."""
    transposed = a.shape[0] > a.shape[1]
    t = a.T if transposed else a
    with np.errstate(invalid="ignore", over="ignore"):  # a G that is not finite fails below
        g = t @ t.T
        diag = g.ravel()[:: g.shape[0] + 1]  # a writable view of G's diagonal
        saved = diag.copy()
        shift = _GRAM_FLOOR**2 * saved.sum()
    if not 0.0 < shift < np.inf:
        return None
    diag -= shift  # G - shift I is positive definite iff its Cholesky succeeds
    info = scipy.linalg.lapack.dpotrf(g)[1]
    diag[:] = saved
    if info != 0:
        return None
    v = np.linalg.eigh(g)[1]
    b = v.T @ t
    return v, b, np.sqrt(np.einsum("ij,ij->i", b, b)), transposed


def nuclear_subgradient(a):
    """(G, ||a||_*, gram) from one factorization of a: G = U_r V_r^T is the
    canonical subgradient of the nuclear norm at a, and gram tells whether
    the factorization was the Gram one.

    An all-zero a gives zeros, which lie in the subdifferential there, and
    0.0 without one.  An a that passes the Gram gate (_gram_factor) keeps
    every direction: V diag(1/sigma) B.  Otherwise one thin SVD, keeping
    the directions with sigma > _RANK_TOL * sigma_max."""
    a = np.asarray(a, dtype=np.float64)
    if not a.any():
        return np.zeros_like(a), 0.0, False
    factor = _gram_factor(a)
    if factor is not None:
        v, b, s, transposed = factor
        b /= s[:, None]
        return (b.T @ v.T if transposed else v @ b), float(s.sum()), True  # C-ordered, as a is
    u, s, vt = thin_svd(a)
    keep = s > _RANK_TOL * s[0]
    return u[:, keep] @ vt[keep, :], float(s.sum()), False

"""Exception types shared across the package, the run options' rules and
the array contracts."""

import math
import numbers

import numpy as np


class SpdlrrError(Exception):
    """Base class for all package-specific errors."""


class DegenerateInput(SpdlrrError, ValueError):
    """Input is structurally valid but degenerate for the requested operation
    (constant cube, empty class, zero-total histogram, ...)."""


class SvdFailure(SpdlrrError, RuntimeError):
    """The SVD backend did not converge, or was given NaN or infinite entries."""


class SolverDiverged(SpdlrrError, ArithmeticError):
    """A solver iterate turned NaN or infinite."""


class FormatError(SpdlrrError, ValueError):
    """A file does not conform to its documented on-disk format."""


class NonFiniteData(SpdlrrError, ValueError):
    """A cube or loaded payload contains NaN or infinite entries."""


# Config names of the dataclass fields that go by a shorter name.
CONFIG_NAMES = {"lam": "lambda", "initial_superpixels": "superpixels", "split_percent": "percent"}

_AT_LEAST_1 = (lambda v: v >= 1, "must be at least 1")
_FINITE_POSITIVE = (lambda v: 0 < v < math.inf, "must be finite and positive")
# Each run option's rule, by field name: (predicate, phrase).  NaN fails
# every predicate.
OPTION_RULES = {
    **dict.fromkeys(("t_max", "initial_superpixels", "m_split", "knn_k", "max_iter"), _AT_LEAST_1),
    "seed": (lambda v: v >= 0, "must be non-negative"),
    "delta": (lambda v: 0 < v <= 1, "must lie in (0, 1]"),
    "split_percent": (lambda v: 0 < v < 1, "must lie strictly between 0 and 1"),
    **dict.fromkeys(("lam", "eps"), _FINITE_POSITIVE),
    "beta": (lambda v: 0 <= v < math.inf, "must be finite and non-negative"),
    "rho": (lambda v: 1 < v < math.inf, "must be finite and above 1"),
}
INTEGER_OPTIONS = ("t_max", "initial_superpixels", "m_split", "knn_k", "max_iter", "seed")
# Every option that takes a number.  A bool is none, though Python counts
# it as an integer.
NUMBER_OPTIONS = (*OPTION_RULES, "mu0", "mu_max")


def check_options(**values):
    """Raise DegenerateInput for the first value, by field name, that is a
    bool (numpy's too) but one of NUMBER_OPTIONS, no integer (numpy integers
    are) but one of INTEGER_OPTIONS, or that breaks its OPTION_RULES rule,
    naming the option by its config key.  Names without a rule (a
    dataclass's other fields) pass."""
    for name, value in values.items():
        key = CONFIG_NAMES.get(name, name)
        is_bool = name in NUMBER_OPTIONS and isinstance(value, (bool, np.bool_))
        if name in INTEGER_OPTIONS and (is_bool or not isinstance(value, numbers.Integral)):
            raise DegenerateInput(f"{key} must be an integer, not {value}")
        if is_bool:
            raise DegenerateInput(f"{key} must be a number, not {value}")
        if name in OPTION_RULES and not OPTION_RULES[name][0](value):
            raise DegenerateInput(f"{key} {OPTION_RULES[name][1]}, not {value}")


def integer_raster(name, a):
    """a as int64: ValueError unless a non-empty 2-d raster of non-negative
    integers.  The cast precedes the sign test, so no uint64 id wraps to a valid one."""
    a = np.asarray(a)
    if a.ndim != 2 or a.size == 0 or a.dtype.kind not in "iu":
        raise ValueError(f"{name} must be a 2-d raster of integers, not {a.dtype} {a.shape}")
    a = a.astype(np.int64, copy=False)
    if a.min() < 0:
        raise ValueError(f"{name} must be non-negative and below 2**63: out of range")
    return a


def boolean_mask(name, m, shape=None):
    """m as an array: ValueError unless a 2-d bool raster, of `shape` if given."""
    m = np.asarray(m)
    if m.ndim != 2 or m.dtype != bool or shape not in (None, m.shape):
        of = "" if shape is None else f" of shape {shape}"
        raise ValueError(f"{name} must be a 2-d boolean raster{of}, not {m.dtype} {m.shape}")
    return m


def finite_matrix(name, a):
    """a as an array: ValueError unless a non-empty 2-d matrix, NonFiniteData unless finite."""
    from .linalg import all_finite  # linalg imports this module
    a = np.asarray(a)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"{name} must be a non-empty 2-d matrix, not shape {a.shape}")
    if not all_finite(a):
        raise NonFiniteData(f"{name} must be finite")
    return a


def same_shape(**shapes):
    """ValueError naming each argument and its shape unless the shapes are equal."""
    if len(set(shapes.values())) > 1:
        raise ValueError("shapes differ: " + ", ".join(f"{k} {v}" for k, v in shapes.items()))

"""Exception types shared across the package, and the run options' rules."""

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

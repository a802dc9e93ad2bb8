"""Hyperspectral cube container and global normalization."""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, finite_matrix
from .linalg import _each_column_chunk, extremes


@dataclass
class HsiCube:
    """A hyperspectral image as a bands x pixels matrix.

    Column j of `x` holds the spectrum of pixel (j // width, j % width),
    i.e. pixels are flattened row-major.  A float32 `x` stays float32, as
    a loaded payload is, and any other becomes float64; every computation
    on a cube widens what it reads to float64.
    """

    height: int
    width: int
    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x)
        self.x = x if x.dtype == np.float32 else x.astype(np.float64, copy=False)
        # numpy's bool is no numbers.Integral; Python's is.
        dims = (self.height, self.width)
        if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1 for n in dims):
            raise ValueError(f"cube dimensions must be positive integers, not {self.height}x{self.width}")
        if finite_matrix("pixel matrix", self.x).shape[1] != self.height * self.width:
            raise ValueError(
                f"pixel matrix of shape {self.x.shape} does not match "
                f"{self.height}x{self.width} image"
            )

    @property
    def bands(self):
        return self.x.shape[0]


def normalize(cube):
    """Min-max rescale all entries of the cube into [0, 1] globally:
    (x - lo) / (hi - lo), chunk by chunk in place of one new array, in
    float64 whatever the cube's dtype."""
    x = cube.x
    lo, hi = extremes(x)
    # numpy's min of 0.0 and -0.0 may be either, by dtype; x - lo keeps the
    # sign of each zero of x, as the widened cube's would, only if lo is 0.0.
    lo = lo + 0.0
    # In Python floats a span beyond float64 is inf, with no RuntimeWarning.
    span = float(hi) - float(lo)
    if span == 0.0:
        raise DegenerateInput("cannot normalize a constant cube")
    if np.isinf(span):
        raise DegenerateInput(f"cannot normalize: the range from {lo} to {hi} overflows float64")
    out = np.empty_like(x, dtype=np.float64)

    def chunk(s):
        np.divide(np.subtract(x[:, s], lo, out=out[:, s], dtype=np.float64), span, out=out[:, s])

    _each_column_chunk(x, chunk)
    return HsiCube(cube.height, cube.width, out)

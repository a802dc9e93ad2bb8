"""Hyperspectral cube container and global normalization."""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput
from .linalg import all_finite


@dataclass
class HsiCube:
    """A hyperspectral image as a bands x pixels matrix.

    Column j of `x` holds the spectrum of pixel (j // width, j % width),
    i.e. pixels are flattened row-major.
    """

    height: int
    width: int
    x: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.height < 1 or self.width < 1:
            raise ValueError("cube dimensions must be positive")
        if self.x.ndim != 2 or self.x.shape[1] != self.height * self.width:
            raise ValueError(
                f"pixel matrix of shape {self.x.shape} does not match "
                f"{self.height}x{self.width} image"
            )
        if not all_finite(self.x):
            raise ValueError("cube entries must be finite")

    @property
    def bands(self):
        return self.x.shape[0]


def normalize(cube):
    """Min-max rescale all entries of the cube into [0, 1] globally."""
    lo = cube.x.min()
    hi = cube.x.max()
    if hi == lo:
        raise DegenerateInput("cannot normalize a constant cube")
    return HsiCube(cube.height, cube.width, (cube.x - lo) / (hi - lo))

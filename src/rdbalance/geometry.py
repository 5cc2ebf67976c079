"""Boxes (0, L1) x ... x (0, Ld) with d <= 4, cell-centered grids on them,
and the Neumann Laplacian spectrum of both.

The Neumann cosine modes separate over axes, so each space gives its
spectrum per axis: ``axis_eigenvalue(axis, k)`` is (k pi / L)^2 on a box
and the stencil's (2/h sin(k pi / 2n))^2, for k < n, on a grid.  Both
increase with k, and the eigenvalue of mode (k1, ..., kd) is their sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_NDIM = 4


@dataclass(frozen=True)
class Box:
    """The box (0, L1) x ... x (0, Ld), 1 <= d <= MAX_NDIM."""

    extents: tuple[float, ...]

    def __post_init__(self):
        extents = tuple(float(side) for side in self.extents)
        object.__setattr__(self, "extents", extents)
        if not 1 <= len(extents) <= MAX_NDIM:
            raise ValueError(f"a box has 1 to {MAX_NDIM} sides, got {len(extents)}")
        if not all(math.isfinite(side) and side > 0 for side in extents):
            raise ValueError(f"box sides must be positive, got {extents}")

    @property
    def ndim(self) -> int:
        return len(self.extents)

    @property
    def measure(self) -> float:
        return math.prod(self.extents)

    @property
    def mode_counts(self) -> tuple[float, ...]:
        return (math.inf,) * self.ndim

    def axis_eigenvalue(self, axis: int, k):
        """(k pi / L)^2 along ``axis``, for an integer or an integer array k."""
        r = k * math.pi / self.extents[axis]
        return r * r  # not r ** 2: pow is not always correctly rounded


def Interval(length: float) -> Box:
    return Box((length,))


def Rectangle(lx: float, ly: float) -> Box:
    return Box((lx, ly))


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered mesh over a box.

    ``shape`` holds the cells per axis; cell j is centered at (j + 1/2) * h
    along each axis.
    """

    domain: Box
    shape: tuple[int, ...]

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        object.__setattr__(self, "shape", shape)
        if len(shape) != self.domain.ndim:
            raise ValueError(
                f"grid shape {shape} does not match a {self.domain.ndim}-d domain")
        if min(shape) < 4:
            raise ValueError(f"need at least 4 cells per axis, got {shape}")

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.domain.extents, self.shape))

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

    @property
    def n_cells(self) -> int:
        return math.prod(self.shape)

    @property
    def measure(self) -> float:
        return self.domain.measure

    @property
    def mode_counts(self) -> tuple[int, ...]:
        return self.shape

    def axis_eigenvalue(self, axis: int, k):
        """(2/h sin(k pi / 2n))^2 along ``axis``, 0 <= k < n: the eigenvalues of
        the mirror-ghost stencil, for an integer or an integer array k."""
        n = self.shape[axis]
        r = 2.0 / self.spacing[axis] * np.sin(k * math.pi / (2 * n))
        return r * r

    def axis_centers(self, axis: int):
        return (np.arange(self.shape[axis]) + 0.5) * self.spacing[axis]

    def centers(self):
        """Cell-center coordinates, one array of ``shape`` per axis."""
        axes = map(self.axis_centers, range(self.ndim))
        return tuple(np.meshgrid(*axes, indexing="ij"))

"""Axis-aligned scalar lattice grids and one multilinear sampler for them.

All grids snap their origin onto a common world lattice (integer multiples of
the resolution) so that voxel centers of different grids coincide and fusion
reduces to array slicing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


def snap_to_lattice(value: float, resolution: float) -> float:
    """Largest lattice coordinate (multiple of resolution) not above value."""
    return math.floor(round(value / resolution, 9)) * resolution


def sample_multilinear(grid, points) -> tuple[np.ndarray, np.ndarray]:
    """Multilinear interpolation of a 2D or 3D grid's cell-centre values at (N, D) world points.

    ``grid`` has ``values``, ``origin`` and ``resolution``; the centre of cell i maps to index i.
    Returns (values, clamped): ``clamped`` marks points outside [0, n - 1] on any axis, which are
    evaluated at the nearest edge. Each corner's term is its value times its weight one axis at a
    time, corners in order with the first axis fastest, summed from the first term.
    """
    idx = (np.atleast_2d(points) - grid.origin) / grid.resolution - 0.5
    top = np.array(grid.values.shape) - 1
    clamped = np.any((idx < 0.0) | (idx > top), axis=1)
    base = np.clip(np.floor(idx).astype(int), 0, top - 1)
    frac = np.clip(idx - base, 0.0, 1.0)
    axes = [((b, 1.0 - f), (b + 1, f)) for b, f in zip(base.T, frac.T)]  # per axis: (index, weight) low, high
    out = None
    for corner in itertools.product(*axes[::-1]):  # the last axis varies slowest, so the first fastest
        index, weights = zip(*corner[::-1])
        term = grid.values[index]
        for w in weights:
            term = term * w
        out = term if out is None else out + term
    return out, clamped


@dataclass
class VoxelGrid3D:
    """Dense 3D scalar grid with per-voxel fusion weights.

    ``origin`` is the low corner of voxel (0,0,0); voxel (i,j,k) is centred at
    origin + (i+0.5, j+0.5, k+0.5) * resolution.
    """

    origin: np.ndarray  # (3,)
    resolution: float
    values: np.ndarray  # (nx, ny, nz)
    weights: np.ndarray  # (nx, ny, nz)
    background: float = 0.0  # value of never-observed voxels, also used when growing

    @classmethod
    def empty(cls, origin, resolution: float, dims, fill: float = 0.0) -> "VoxelGrid3D":
        origin = np.array([snap_to_lattice(v, resolution) for v in origin])
        dims = tuple(int(d) for d in dims)
        return cls(
            origin=origin,
            resolution=resolution,
            values=np.full(dims, fill, dtype=np.float64),
            weights=np.zeros(dims, dtype=np.float64),
            background=fill,
        )

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape

    def index_origin(self) -> np.ndarray:
        """Integer lattice coordinates of the grid origin."""
        return np.round(self.origin / self.resolution).astype(int)

    def contains(self, points: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(points)
        lo = self.origin[None, :]
        hi = lo + np.array(self.dims)[None, :] * self.resolution
        return np.all((p >= lo) & (p <= hi), axis=1)

    def grown_to_include(self, lo: np.ndarray, hi: np.ndarray) -> "VoxelGrid3D":
        """Return a grid whose extent also covers the box [lo, hi], content preserved."""
        new_lo = np.minimum(self.origin, [snap_to_lattice(v, self.resolution) for v in lo])
        cur_hi = self.origin + np.array(self.dims) * self.resolution
        new_hi = np.maximum(cur_hi, hi)
        new_dims = np.ceil(np.round((new_hi - new_lo) / self.resolution, 9)).astype(int)
        if np.array_equal(new_lo, self.origin) and np.array_equal(new_dims, self.dims):
            return self
        grown = VoxelGrid3D.empty(new_lo, self.resolution, new_dims, fill=self.background)
        off = np.round((self.origin - grown.origin) / self.resolution).astype(int)
        sl = tuple(slice(off[a], off[a] + self.dims[a]) for a in range(3))
        grown.values[sl] = self.values
        grown.weights[sl] = self.weights
        return grown


@dataclass
class Grid2D:
    """Dense 2D scalar grid over the workspace."""

    origin: np.ndarray  # (2,)
    resolution: float
    values: np.ndarray  # (nx, ny)

    @classmethod
    def full(cls, origin, resolution: float, dims, fill: float) -> "Grid2D":
        origin = np.array([snap_to_lattice(v, resolution) for v in origin])
        return cls(origin=origin, resolution=resolution, values=np.full(tuple(int(d) for d in dims), fill, dtype=np.float64))

    @property
    def dims(self) -> tuple[int, int]:
        return self.values.shape

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        nx, ny = self.dims
        xs = self.origin[0] + (np.arange(nx) + 0.5) * self.resolution
        ys = self.origin[1] + (np.arange(ny) + 0.5) * self.resolution
        return xs, ys

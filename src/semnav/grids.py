"""Axis-aligned scalar voxel grids with interpolated sampling.

All grids snap their origin onto a common world lattice (integer multiples of
the resolution) so that voxel centers of different grids coincide and fusion
reduces to array slicing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def snap_to_lattice(value: float, resolution: float) -> float:
    """Largest lattice coordinate (multiple of resolution) not above value."""
    return math.floor(round(value / resolution, 9)) * resolution


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

    def world_to_index(self, points: np.ndarray) -> np.ndarray:
        """Float voxel indices (center of voxel i maps to index i)."""
        return (np.atleast_2d(points) - self.origin[None, :]) / self.resolution - 0.5

    def index_origin(self) -> np.ndarray:
        """Integer lattice coordinates of the grid origin."""
        return np.round(self.origin / self.resolution).astype(int)

    def contains(self, points: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(points)
        lo = self.origin[None, :]
        hi = lo + np.array(self.dims)[None, :] * self.resolution
        return np.all((p >= lo) & (p <= hi), axis=1)

    def sample_trilinear(self, points: np.ndarray) -> np.ndarray:
        """Trilinear interpolation of values at world points (edge-clamped)."""
        idx = self.world_to_index(points)
        nx, ny, nz = self.dims
        out = np.zeros(idx.shape[0])
        base = np.clip(np.floor(idx).astype(int), 0, np.array([nx - 2, ny - 2, nz - 2]))
        frac = np.clip(idx - base, 0.0, 1.0)
        for corner in range(8):
            ox, oy, oz = corner & 1, (corner >> 1) & 1, (corner >> 2) & 1
            w = (
                (frac[:, 0] if ox else 1.0 - frac[:, 0])
                * (frac[:, 1] if oy else 1.0 - frac[:, 1])
                * (frac[:, 2] if oz else 1.0 - frac[:, 2])
            )
            out += w * self.values[base[:, 0] + ox, base[:, 1] + oy, base[:, 2] + oz]
        return out

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
    """Dense 2D scalar grid over the workspace with bilinear queries."""

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

    def world_to_index(self, x, y):
        ix = (np.asarray(x) - self.origin[0]) / self.resolution - 0.5
        iy = (np.asarray(y) - self.origin[1]) / self.resolution - 0.5
        return ix, iy

    def sample_bilinear(self, x, y):
        """Bilinear interpolation of cell-center values; clamps outside the extent.

        Returns (values, clamped) where ``clamped`` marks queries that fell
        outside the interpolation domain and were evaluated at its edge.
        """
        ix, iy = self.world_to_index(x, y)
        nx, ny = self.dims
        clamped = (ix < 0.0) | (ix > nx - 1) | (iy < 0.0) | (iy > ny - 1)
        ix = np.clip(ix, 0.0, nx - 1)
        iy = np.clip(iy, 0.0, ny - 1)
        x0 = np.clip(np.floor(ix).astype(int), 0, nx - 2)
        y0 = np.clip(np.floor(iy).astype(int), 0, ny - 2)
        fx = ix - x0
        fy = iy - y0
        v = (
            self.values[x0, y0] * (1 - fx) * (1 - fy)
            + self.values[x0 + 1, y0] * fx * (1 - fy)
            + self.values[x0, y0 + 1] * (1 - fx) * fy
            + self.values[x0 + 1, y0 + 1] * fx * fy
        )
        return v, clamped

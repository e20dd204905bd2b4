"""Axis-aligned scalar lattice grids and one multilinear sampler for them.

All grids snap their origin onto a common world lattice (integer multiples of
the resolution) so that voxel centers of different grids coincide and a voxel
moves between grids by an integer index shift.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np


def snap_to_lattice(value: float, resolution: float) -> float:
    """Largest lattice coordinate (multiple of resolution) not above value."""
    return math.floor(round(value / resolution, 9)) * resolution


# per dimension D, each corner's offset (0 low, 1 high) along each axis: (2^D, D), the first axis fastest
_HIGH = {d: np.array(list(itertools.product((0, 1), repeat=d)))[:, ::-1] for d in (2, 3)}


def sample_multilinear(grid, points) -> tuple[np.ndarray, np.ndarray]:
    """Multilinear interpolation of a 2D or 3D grid's cell-centre values at (N, D) world points.

    ``grid`` has ``origin``, ``resolution``, ``dims`` and ``gather``, which reads values at C-order
    flat indices; the centre of cell i maps to index i. Returns (values, clamped): ``clamped`` marks
    points outside [0, n - 1] on any axis, which are evaluated at the nearest edge. Each corner's
    term is its value times its weight one axis at a time, corners in order with the first axis
    fastest, summed from the first term.
    """
    idx = (np.atleast_2d(points) - grid.origin) / grid.resolution - 0.5
    top = np.array(grid.dims) - 1
    clamped = np.any((idx < 0.0) | (idx > top), axis=1)
    base = np.clip(np.floor(idx).astype(int), 0, top - 1)
    frac = np.clip(idx - base, 0.0, 1.0)
    high = _HIGH[top.size]
    # every corner in one read: the low corner's flat index plus each corner's offset from it, (2^D, N);
    # wrapping reads the one cell of a one-cell axis for both its corners
    offsets = np.ravel_multi_index(high.T, grid.dims, mode="wrap")
    terms = grid.gather(np.ravel_multi_index(base.T, grid.dims, mode="wrap") + offsets[:, None])
    pairs = [(1.0 - f, f) for f in frac.T]  # per axis: the low and the high corner's weight
    out = None
    for term, corner in zip(terms, high.tolist()):
        for pair, bit in zip(pairs, corner):
            term = term * pair[bit]
        out = term if out is None else out + term
    return out, clamped


def _merged(stored: np.ndarray, kept: np.ndarray, fill) -> np.ndarray:
    """``stored`` in the slots ``kept`` marks, in order, and ``fill`` in the others."""
    out = np.empty(kept.size, dtype=stored.dtype)
    out[kept] = stored
    out[~kept] = fill
    return out


@dataclass
class VoxelGrid3D:
    """Sparse 3D scalar grid with per-voxel fusion weights.

    The extent is ``dims`` voxels from ``origin``, the low corner of voxel
    (0,0,0); voxel (i,j,k) is centred at origin + (i+0.5, j+0.5, k+0.5) *
    resolution. Only voxels with weight are stored: ``keys`` are their C-order
    flat indices within ``dims``, strictly increasing, with ``values`` and
    ``weights`` aligned. Every other voxel reads ``background`` at weight 0.
    """

    origin: np.ndarray  # (3,)
    resolution: float
    dims: tuple[int, int, int]
    background: float = 0.0  # value of never-observed voxels
    keys: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))  # (n,)
    values: np.ndarray = field(default_factory=lambda: np.zeros(0))  # (n,)
    weights: np.ndarray = field(default_factory=lambda: np.zeros(0))  # (n,)

    @classmethod
    def empty(cls, origin, resolution: float, dims, fill: float = 0.0) -> "VoxelGrid3D":
        origin = np.array([snap_to_lattice(v, resolution) for v in origin])
        return cls(origin=origin, resolution=resolution, dims=tuple(int(d) for d in dims), background=fill)

    def index_origin(self) -> np.ndarray:
        """Integer lattice coordinates of the grid origin."""
        return np.round(self.origin / self.resolution).astype(int)

    def contains(self, points: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(points)
        lo = self.origin[None, :]
        hi = lo + np.array(self.dims)[None, :] * self.resolution
        return np.all((p >= lo) & (p <= hi), axis=1)

    def indices(self) -> np.ndarray:
        """(3, n) voxel indices of the stored voxels, in key order."""
        i, rest = np.divmod(self.keys, self.dims[1] * self.dims[2])
        return np.array([i, *np.divmod(rest, self.dims[2])])

    def gather(self, flat: np.ndarray) -> np.ndarray:
        """Values at C-order flat indices within the extent; ``background`` where none is stored."""
        if self.keys.size == 0:
            return np.full(flat.shape, self.background)
        at = np.searchsorted(self.keys, flat)
        return np.where(self.keys.take(at, mode="clip") == flat, self.values.take(at, mode="clip"), self.background)

    def allocate(self, flat: np.ndarray) -> np.ndarray:
        """Slots of the increasing flat indices ``flat`` in the store; one not yet stored is added at
        ``background`` with weight 0."""
        at = np.searchsorted(self.keys, flat)
        new = at == self.keys.size
        new[~new] = self.keys[at[~new]] != flat[~new]
        at += np.cumsum(new) - new  # each index's slot once the new ones are in
        kept = np.ones(self.keys.size + np.count_nonzero(new), dtype=bool)
        kept[at[new]] = False
        self.keys = _merged(self.keys, kept, flat[new])
        self.values = _merged(self.values, kept, self.background)
        self.weights = _merged(self.weights, kept, 0.0)
        return at

    def grown_to_include(self, lo: np.ndarray, hi: np.ndarray) -> "VoxelGrid3D":
        """Return a grid whose extent also covers the box [lo, hi], stored voxels re-keyed in place of a copy."""
        new_lo = np.minimum(self.origin, [snap_to_lattice(v, self.resolution) for v in lo])
        cur_hi = self.origin + np.array(self.dims) * self.resolution
        new_hi = np.maximum(cur_hi, hi)
        new_dims = np.ceil(np.round((new_hi - new_lo) / self.resolution, 9)).astype(int)
        if np.array_equal(new_lo, self.origin) and np.array_equal(new_dims, self.dims):
            return self
        grown = VoxelGrid3D.empty(new_lo, self.resolution, new_dims, fill=self.background)
        off = np.round((self.origin - grown.origin) / self.resolution).astype(int)
        i, j, k = self.indices() + off[:, None]
        grown.keys = (i * grown.dims[1] + j) * grown.dims[2] + k  # a shift keeps C order, so the keys stay sorted
        grown.values, grown.weights = self.values, self.weights
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

    def gather(self, flat: np.ndarray) -> np.ndarray:
        """Values at C-order flat indices."""
        return np.take(self.values, flat)

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        nx, ny = self.dims
        xs = self.origin[0] + (np.arange(nx) + 0.5) * self.resolution
        ys = self.origin[1] + (np.arange(ny) + 0.5) * self.resolution
        return xs, ys

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from semnav.consistency import ConsistencyParams
from semnav.grids import VoxelGrid3D, snap_to_lattice
from semnav.mapping import GlobalTsdf, MapParams, ObjectLibrary

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"

# every property test is reproducible and untimed; each sets only its example count
settings.register_profile("semnav", deadline=None, derandomize=True)
settings.load_profile("semnav")


@pytest.fixture
def scenario_dir() -> Path:
    return SCENARIO_DIR


@pytest.fixture
def small_library() -> ObjectLibrary:
    return ObjectLibrary(
        params=MapParams(),
        consistency_params=ConsistencyParams(),
        workspace=(-1.0, -2.0, 4.0, 2.0),
        height=1.0,
    )


def make_observation(points, class_id=1, stationarity=1):
    from semnav.mapping import Observation

    points = np.asarray(points, dtype=float).reshape(-1, 3)
    centroid = points.mean(axis=0) if len(points) else np.zeros(3)
    return Observation(
        class_id=class_id,
        stationarity=stationarity,
        points=points,
        centroid=centroid,
    )


def plain_edf(m25, theta_zero, params):
    """``build_plain_edf`` of every cell of ``m25`` at or below ``theta_zero``, one unlabelled boundary."""
    from semnav.barrier import LabeledBoundary, build_plain_edf

    ix, iy = np.nonzero(m25.values <= theta_zero)
    boundary = LabeledBoundary(cells=np.stack([ix, iy], axis=1), owner_ids=np.zeros(ix.size, dtype=int),
                               labels={0: (1.0, 1)} if ix.size else {})
    return build_plain_edf(boundary, params, m25)


@dataclass
class DenseVoxels:
    """A voxel grid held whole: ``values`` and ``weights`` over every voxel of the extent.

    The dense twin of ``VoxelGrid3D``, for the oracles: ``grown_to_include``
    copies the arrays into a larger pair filled with ``background`` and weight 0.
    """

    origin: np.ndarray  # (3,)
    resolution: float
    values: np.ndarray  # (nx, ny, nz)
    weights: np.ndarray  # (nx, ny, nz)
    background: float

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape

    def index_origin(self) -> np.ndarray:
        return np.round(self.origin / self.resolution).astype(int)

    def grown_to_include(self, lo, hi) -> "DenseVoxels":
        new_lo = np.minimum(self.origin, [snap_to_lattice(v, self.resolution) for v in lo])
        new_hi = np.maximum(self.origin + np.array(self.dims) * self.resolution, hi)
        new_dims = tuple(np.ceil(np.round((new_hi - new_lo) / self.resolution, 9)).astype(int))
        if np.array_equal(new_lo, self.origin) and new_dims == self.dims:
            return self
        origin = np.array([snap_to_lattice(v, self.resolution) for v in new_lo])
        grown = DenseVoxels(origin, self.resolution, np.full(new_dims, self.background), np.zeros(new_dims),
                            self.background)
        off = np.round((self.origin - grown.origin) / self.resolution).astype(int)
        sl = tuple(slice(off[a], off[a] + self.dims[a]) for a in range(3))
        grown.values[sl] = self.values
        grown.weights[sl] = self.weights
        return grown


@dataclass
class DenseGlobalTsdf:
    """A fused map held whole: ``values`` and ``owner`` over every voxel of its block, for the oracles."""

    origin: np.ndarray  # (3,)
    resolution: float
    values: np.ndarray  # (nx, ny, nz)
    owner: np.ndarray  # (nx, ny, nz) int32

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape


def dense(grid):
    """The sparse grid over its whole extent: ``background`` and weight 0 (a ``VoxelGrid3D``) or owner -1
    (a ``GlobalTsdf``) wherever nothing is stored."""
    values = np.full(grid.dims, grid.background)
    np.put(values, grid.keys, grid.values)
    if isinstance(grid, GlobalTsdf):
        owner = np.full(grid.dims, -1, dtype=np.int32)
        np.put(owner, grid.keys, grid.owner)
        return DenseGlobalTsdf(grid.origin.copy(), grid.resolution, values, owner)
    weights = np.zeros(grid.dims)
    np.put(weights, grid.keys, grid.weights)
    return DenseVoxels(grid.origin.copy(), grid.resolution, values, weights, grid.background)


def sparse(origin, resolution: float, values, weights, background: float = 0.0) -> VoxelGrid3D:
    """The ``VoxelGrid3D`` storing the voxels of dense ``values`` whose ``weights`` are not 0."""
    keys = np.flatnonzero(weights)
    return VoxelGrid3D(origin=np.asarray(origin, dtype=float), resolution=resolution, dims=np.shape(values),
                       background=background, keys=keys, values=np.ravel(values)[keys],
                       weights=np.ravel(weights)[keys])

"""Barrier field construction from the fused map.

The 3D map collapses to a 2.5D obstacle-proximity grid; cells near the zero
level become a labelled boundary; scaled distance transforms over that
boundary produce the object-aware barrier h (and its non-semantic baseline).
Consistency scales the slope of each object's distance cone, the stationarity
label enlarges the subtracted bias for likely-dynamic objects, and a cutoff
flattens the field far from obstacles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .grids import Grid2D
from .mapping import GlobalTsdf, ObjectLibrary


@dataclass(frozen=True)
class CbfParams:
    theta_z: float = 1.0  # height window for the 2.5D projection (m)
    theta_zero: float = 0.15  # zero-level threshold (m)
    theta_cutoff: float = 1.8  # barrier cutoff (m)
    bias: float = 0.75  # robot-size buffer subtracted from distances (m)
    lambda_c: float = 3.0  # consistency slope factor
    lambda_s: float = 2.0  # stationarity bias factor, > 1

    def __post_init__(self):
        vals = (self.theta_z, self.theta_zero, self.theta_cutoff, self.bias, self.lambda_c, self.lambda_s)
        if min(vals) <= 0.0:
            raise ValueError("all barrier parameters must be positive")
        if self.lambda_s <= 1.0:
            raise ValueError("lambda_s must exceed 1")

    def bias_for(self, stationarity: int) -> float:
        return (self.lambda_s * (1 - stationarity) + stationarity) * self.bias


@dataclass
class LabeledBoundary:
    """Zero-level cells annotated with the owning object's labels."""

    cells: np.ndarray  # (N, 2) int grid indices
    positions: np.ndarray  # (N, 2) world cell centers
    owner_ids: np.ndarray  # (N,) int
    consistency: np.ndarray  # (N,) E[v] of the owner
    stationarity: np.ndarray  # (N,) {0, 1}

    def __len__(self) -> int:
        return self.cells.shape[0]


@dataclass
class CbfField:
    """Immutable barrier grid with batched bilinear value and finite-difference gradient queries."""

    grid: Grid2D
    params: CbfParams

    def query(self, xy) -> tuple[np.ndarray, np.ndarray]:
        """Barrier values (N,) and gradients (N, 2) at an (N, 2) array of world points.

        Values are bilinear interpolations, edge-clamped off the grid. Gradients
        are central differences of the interpolant with a quarter-cell step,
        their stencil kept inside the interpolation domain.
        """
        xy = self._checked(xy)
        res = self.grid.resolution
        d = res / 4.0
        nx, ny = self.grid.dims
        lo = self.grid.origin + 0.5 * res
        hi = lo + (np.array([nx, ny]) - 1) * res
        c = np.minimum(np.maximum(xy, lo + d), hi - d)
        cx, cy = c[:, 0], c[:, 1]
        # one sampler call: the points themselves, then the four stencil probes
        px = np.concatenate([xy[:, 0], cx + d, cx - d, cx, cx])
        py = np.concatenate([xy[:, 1], cy, cy, cy + d, cy - d])
        v = self.grid.sample_bilinear(px, py)[0].reshape(5, -1)
        grad = np.stack([(v[1] - v[2]) / (2.0 * d), (v[3] - v[4]) / (2.0 * d)], axis=1)
        return v[0], grad

    def query_h(self, x: float, y: float) -> float:
        v, _ = self.query_h_checked(x, y)
        return v

    def query_h_checked(self, x: float, y: float) -> tuple[float, bool]:
        """Interpolated barrier value and whether the query clamped to the edge."""
        xy = self._checked([[x, y]])
        v, clamped = self.grid.sample_bilinear(xy[:, 0], xy[:, 1])
        return float(v[0]), bool(clamped[0])

    def query_grad(self, x: float, y: float) -> tuple[float, float]:
        """Gradient of the interpolated field at one point (see ``query``)."""
        _, grad = self.query([[x, y]])
        return float(grad[0, 0]), float(grad[0, 1])

    @staticmethod
    def _checked(xy) -> np.ndarray:
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        if not np.all(np.isfinite(xy)):
            raise ValueError("query coordinates must be finite")
        return xy


def project_2p5d(global_tsdf: GlobalTsdf, theta_z: float) -> tuple[Grid2D, np.ndarray]:
    """Column-wise minimum magnitude of the 3D map over 0 < z <= theta_z.

    Returns the 2D grid and the per-cell owner id of the minimizing voxel.
    Equal magnitudes go to the lowest layer in the window, and the owner is
    read from that layer (``argmin``'s tie rule, kept by the strict ``<``).
    """
    res = global_tsdf.resolution
    z_centers = global_tsdf.origin[2] + (np.arange(global_tsdf.dims[2]) + 0.5) * res
    layers = np.flatnonzero((z_centers > 0.0) & (z_centers <= theta_z))
    if layers.size == 0:
        raise ValueError("no voxel layer falls inside the height window")
    values = np.abs(global_tsdf.values[:, :, layers[0]])
    owner = global_tsdf.owner[:, :, layers[0]].copy()
    mag = np.empty_like(values)
    for k in layers[1:]:
        np.abs(global_tsdf.values[:, :, k], out=mag)
        better = mag < values
        np.copyto(values, mag, where=better)
        np.copyto(owner, global_tsdf.owner[:, :, k], where=better)
    grid = Grid2D(origin=global_tsdf.origin[:2].copy(), resolution=res, values=values)
    return grid, owner


def extract_labeled_boundary(
    m25: Grid2D,
    owner: np.ndarray,
    theta_zero: float,
    library: ObjectLibrary,
    consistency_override: float | None = None,
) -> LabeledBoundary:
    """Cells at or below the zero-level threshold, labelled by their owner.

    Cells whose owner is missing from the library are dropped as stale.
    """
    ix, iy = np.nonzero(m25.values <= theta_zero)
    oid = owner[ix, iy].astype(int)
    # per-object label tables in ascending id order, looked up by binary search
    objs = library.objects()
    ids = np.array([rec.id for rec in objs], dtype=int)
    ev_of = np.array([rec.consistency.mean_consistency for rec in objs], dtype=float)
    if consistency_override is not None:
        ev_of[:] = consistency_override
    st_of = np.array([rec.stationarity for rec in objs], dtype=int)
    slot = np.searchsorted(ids, oid)
    keep = slot < ids.size
    keep[keep] = ids[slot[keep]] == oid[keep]
    ix, iy, oid, slot = ix[keep], iy[keep], oid[keep], slot[keep]
    xs, ys = m25.cell_centers()
    return LabeledBoundary(
        cells=np.stack([ix, iy], axis=1),
        positions=np.stack([xs[ix], ys[iy]], axis=1),
        owner_ids=oid,
        consistency=ev_of[slot],
        stationarity=st_of[slot],
    )


def build_semantic_edf(boundary: LabeledBoundary, params: CbfParams, grid_spec: Grid2D, cache=None) -> Grid2D:
    """Object-aware scaled distance field over the workspace grid.

    Per object: exact Euclidean distance to that object's boundary cells,
    scaled by lambda_c * E[v], minus the stationarity-dependent bias; the
    field is the pointwise minimum across objects. Grouping per object is
    exact because the labels are constant within an object.

    ``cache`` is a dict one run passes to every call (``None``: a fresh one).
    It maps grid shape, resolution and an object's cell bytes to that object's
    unscaled, read-only distances, so an object whose cells did not change
    skips the transform; on return it holds this call's objects only.
    """
    cache = {} if cache is None else cache
    previous = cache.copy()
    cache.clear()
    out = np.full(grid_spec.dims, np.inf)
    res = grid_spec.resolution
    for oid in np.unique(boundary.owner_ids):
        sel = boundary.owner_ids == oid
        ev = boundary.consistency[sel][0]
        bias = params.bias_for(int(boundary.stationarity[sel][0]))
        cells = boundary.cells[sel]
        key = (grid_spec.dims, res, cells.tobytes())
        dist = previous.get(key)
        if dist is None:
            mask = np.ones(grid_spec.dims, dtype=bool)
            mask[cells[:, 0], cells[:, 1]] = False
            dist = ndimage.distance_transform_edt(mask, sampling=res)
            dist.flags.writeable = False
        cache[key] = dist
        np.minimum(out, params.lambda_c * ev * dist - bias, out=out)
    return Grid2D(origin=grid_spec.origin.copy(), resolution=res, values=out)


def build_plain_edf(m25: Grid2D, theta_zero: float, params: CbfParams) -> Grid2D:
    """Non-semantic distance field: unscaled distance to all zero-level cells minus the bias."""
    sel = m25.values <= theta_zero
    if not sel.any():
        values = np.full(m25.dims, np.inf)
    else:
        dist = ndimage.distance_transform_edt(~sel, sampling=m25.resolution)
        values = dist - params.bias
    return Grid2D(origin=m25.origin.copy(), resolution=m25.resolution, values=values)


def build_cbf_field(edf: Grid2D, params: CbfParams) -> CbfField:
    """Apply the cutoff: h = min(edf, theta_cutoff) pointwise."""
    values = np.minimum(edf.values, params.theta_cutoff)
    return CbfField(
        grid=Grid2D(origin=edf.origin.copy(), resolution=edf.resolution, values=values),
        params=params,
    )

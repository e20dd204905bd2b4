"""Barrier field construction from the fused map.

The 3D map collapses to a 2.5D obstacle-proximity grid; cells near the zero
level become a labelled boundary. Both barriers are a pointwise minimum of
distance cones, slope * distance - bias, over pieces of that boundary: one per
object for the object-aware h, where consistency scales the slope and the
stationarity label enlarges the bias of likely-dynamic objects; one at unit
slope for the non-semantic baseline. A cutoff flattens the field far away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .grids import Grid2D, sample_multilinear
from .mapping import GlobalTsdf, ObjectLibrary
from .scenario import CbfParams


@dataclass
class LabeledBoundary:
    """Zero-level cells, the object owning each, and each owner's labels once."""

    cells: np.ndarray  # (N, 2) int grid indices
    owner_ids: np.ndarray  # (N,) int
    labels: dict[int, tuple[float, int]]  # owner id -> (E[v], stationarity {0, 1}), one entry per owner

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
        lo = self.grid.origin + 0.5 * res
        hi = lo + (np.array(self.grid.dims) - 1) * res
        c = np.minimum(np.maximum(xy, lo + d), hi - d)
        # one sampler call: the points themselves, then the four stencil probes
        probes = np.concatenate([xy, c + [d, 0.0], c - [d, 0.0], c + [0.0, d], c - [0.0, d]])
        v = sample_multilinear(self.grid, probes)[0].reshape(5, -1)
        grad = np.stack([(v[1] - v[2]) / (2.0 * d), (v[3] - v[4]) / (2.0 * d)], axis=1)
        return v[0], grad

    def query_h(self, x: float, y: float) -> float:
        return self.query_h_checked(x, y)[0]

    def query_h_checked(self, x: float, y: float) -> tuple[float, bool]:
        """Interpolated barrier value and whether the query clamped to the edge."""
        v, clamped = sample_multilinear(self.grid, self._checked([[x, y]]))
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

    Returns the 2D grid over the map's x-y extent and the per-cell owner id of
    the minimizing voxel. A window layer with nothing stored reads
    ``background`` with owner -1. Equal magnitudes go to the lowest layer in
    the window, an unobserved one included, and the owner is read from that
    layer (the dense ``argmin``'s tie rule).
    """
    res, (nx, ny, nz) = global_tsdf.resolution, global_tsdf.dims
    z_centers = global_tsdf.origin[2] + (np.arange(nz) + 0.5) * res
    layers = np.flatnonzero((z_centers > 0.0) & (z_centers <= theta_z))
    if layers.size == 0:
        raise ValueError("no voxel layer falls inside the height window")
    column, layer = np.divmod(global_tsdf.keys, nz)
    win = (layer >= layers[0]) & (layer <= layers[-1])
    column, layer, mag = column[win], layer[win], np.abs(global_tsdf.values[win])
    # columns ascend and, within one, layers ascend: each column's first entry of least |v| is its lowest
    new_column = np.diff(column, prepend=-1) != 0
    starts = np.flatnonzero(new_column)
    run = np.cumsum(new_column) - 1
    least = np.minimum.reduceat(mag, starts)
    hit = np.flatnonzero(mag == least[run])
    best = hit[np.diff(run[hit], prepend=-1) != 0]
    # it beats the lowest unobserved layer when smaller, or when equal and every window layer below
    # it is stored (its rank in the column is its offset in the window); with all stored, always
    bg = abs(global_tsdf.background)
    full = np.diff(starts, append=column.size) == layers.size
    best = best[(least < bg) | ((least == bg) & (best - starts == layer[best] - layers[0])) | full]
    values = np.full(nx * ny, bg)
    owner = np.full(nx * ny, -1, dtype=global_tsdf.owner.dtype)
    values[column[best]] = mag[best]
    owner[column[best]] = global_tsdf.owner[win][best]
    grid = Grid2D(origin=global_tsdf.origin[:2].copy(), resolution=res, values=values.reshape(nx, ny))
    return grid, owner.reshape(nx, ny)


def extract_labeled_boundary(
    m25: Grid2D,
    owner: np.ndarray,
    theta_zero: float,
    library: ObjectLibrary,
) -> LabeledBoundary:
    """Cells at or below the zero-level threshold, their owners, and each owner's (E[v], stationarity).

    An owner outside the library raises, a negative one ValueError and an unknown one KeyError: a
    fused voxel with no owner holds the truncation value, which the loader keeps above ``theta_zero``.
    """
    ix, iy = np.nonzero(m25.values <= theta_zero)
    oid = owner[ix, iy].astype(int)
    recs = {i: library.records[i] for i in np.flatnonzero(np.bincount(oid)).tolist()}
    labels = {i: (rec.consistency.mean_consistency, rec.stationarity) for i, rec in recs.items()}
    return LabeledBoundary(cells=np.stack([ix, iy], axis=1), owner_ids=oid, labels=labels)


def _min_of_cones(pieces, grid_spec: Grid2D, cache) -> Grid2D:
    """Pointwise minimum of slope * distance - bias over pieces ``(cells, slope, bias)``; +inf with none.

    The distance to a piece's (N, 2) cells is an exact Euclidean transform. ``cache`` is a dict one
    run passes to every call (``None``: a fresh one). It maps grid shape, resolution and a piece's
    cell bytes to its unscaled, read-only distances, so a piece whose cells did not change skips
    the transform; on return it holds this call's pieces only.
    """
    cache = {} if cache is None else cache
    previous = cache.copy()
    cache.clear()
    out = np.full(grid_spec.dims, np.inf)
    res = grid_spec.resolution
    for cells, slope, bias in pieces:
        key = (grid_spec.dims, res, cells.tobytes())
        dist = previous.get(key)
        if dist is None:
            mask = np.ones(grid_spec.dims, dtype=bool)
            mask[cells[:, 0], cells[:, 1]] = False
            dist = ndimage.distance_transform_edt(mask, sampling=res)
            dist.flags.writeable = False
        cache[key] = dist
        np.minimum(out, slope * dist - bias, out=out)
    return Grid2D(origin=grid_spec.origin.copy(), resolution=res, values=out)


def build_semantic_edf(boundary: LabeledBoundary, params: CbfParams, grid_spec: Grid2D, cache=None) -> Grid2D:
    """Object-aware field: a piece per owner, ascending by id, at slope lambda_c * E[v] and its stationarity's bias."""
    pieces = [(boundary.cells[boundary.owner_ids == oid], params.lambda_c * ev, params.bias_for(st))
              for oid, (ev, st) in sorted(boundary.labels.items())]
    return _min_of_cones(pieces, grid_spec, cache)


def build_plain_edf(boundary: LabeledBoundary, params: CbfParams, grid_spec: Grid2D, cache=None) -> Grid2D:
    """Non-semantic field: one piece, every boundary cell at unit slope and ``params.bias``; none if empty."""
    return _min_of_cones([(boundary.cells, 1.0, params.bias)] if len(boundary) else [], grid_spec, cache)


def build_cbf_field(edf: Grid2D, params: CbfParams) -> CbfField:
    """Apply the cutoff: h = min(edf, theta_cutoff) pointwise."""
    values = np.minimum(edf.values, params.theta_cutoff)
    return CbfField(
        grid=Grid2D(origin=edf.origin.copy(), resolution=edf.resolution, values=values),
        params=params,
    )

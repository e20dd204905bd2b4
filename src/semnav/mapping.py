"""Object-level TSDF mapping: association, per-object fusion, global map.

Each mapped object keeps its own world-aligned truncated signed distance grid,
storing only the voxels integration gives weight; the joint scene map is the
per-voxel minimum over objects on one block, storing only the voxels some object
lowered below the background. All grids share one lattice, so fusion moves each
object's voxels into the block by an integer shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import math

import numpy as np

from .consistency import ConsistencyParams, GaussianBetaState, initial_state
from .grids import Grid2D, VoxelGrid3D, snap_to_lattice
from .world import SemanticPointCloud

FORBIDDEN_COST = 1.0e6


@dataclass
class MapParams:
    resolution: float = 0.05
    truncation: float = 0.3
    weight_cap: float = 100.0
    gate: float = 1.0

    def __post_init__(self):
        for name in ("resolution", "truncation", "weight_cap", "gate"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v}")

    @property
    def pad(self) -> float:
        """How far an object grid's extent reaches past its points: so far that a displaced re-observation lands inside.
        The extent costs no memory, as a grid stores only the voxels integration gives weight."""
        return 2.0 * self.truncation + 2.0 * self.resolution


@dataclass
class Observation:
    """One instance-segmented group of labelled surface points."""

    class_id: int
    stationarity: int
    points: np.ndarray  # (N, 3)
    centroid: np.ndarray  # (3,)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class ObjectRecord:
    """A mapped object: pose summary, labels, consistency state, TSDF grid."""

    id: int
    class_id: int
    stationarity: int
    position: np.ndarray  # (3,) running centroid of integrated points
    consistency: GaussianBetaState
    tsdf: VoxelGrid3D
    n_points: int = 0


@dataclass
class GlobalTsdf:
    """Min-fused TSDF over a block of the workspace grid, with each voxel's owning object id.

    The block is ``dims`` voxels from ``origin``, as a ``VoxelGrid3D`` extent. Only voxels some
    object lowered below ``background`` are stored: ``keys`` are their C-order flat indices within
    ``dims``, strictly increasing, with ``values`` and ``owner`` aligned. Every other voxel reads
    ``background`` with owner -1.
    """

    origin: np.ndarray  # (3,) the block's low corner on the lattice
    resolution: float
    dims: tuple[int, int, int]
    background: float  # the truncation value
    keys: np.ndarray  # (n,)
    values: np.ndarray  # (n,)
    owner: np.ndarray  # (n,) int32


@dataclass
class ObjectLibrary:
    """Mutable collection of mapped objects plus the fixed workspace grid spec."""

    params: MapParams
    consistency_params: ConsistencyParams
    workspace: tuple[float, float, float, float]  # xmin, ymin, xmax, ymax
    height: float  # z extent of the global grid
    records: dict[int, ObjectRecord] = field(default_factory=dict)
    next_id: int = 0

    def __post_init__(self):
        res = self.params.resolution
        xmin, ymin, xmax, ymax = self.workspace
        ox = snap_to_lattice(xmin, res)
        oy = snap_to_lattice(ymin, res)
        nx = int(np.ceil(round((xmax - ox) / res, 9)))
        ny = int(np.ceil(round((ymax - oy) / res, 9)))
        nz = int(np.ceil(round(self.height / res, 9)))
        self.grid_origin = np.array([ox, oy, 0.0])
        self.grid_dims = (nx, ny, nz)
        self.grid_spec = Grid2D.full(self.grid_origin[:2], res, (nx, ny), 0.0)  # the 2D lattice the barrier is built on

    def objects(self) -> list[ObjectRecord]:
        return [self.records[k] for k in sorted(self.records)]


def segment_observations(cloud: SemanticPointCloud) -> list[Observation]:
    """Group cloud points by instance id; one observation per instance."""
    out = []
    for inst in np.unique(cloud.instance_ids):
        mask = cloud.instance_ids == inst
        pts = cloud.points[mask]
        out.append(
            Observation(
                class_id=int(cloud.class_ids[mask][0]),
                stationarity=int(cloud.stationarity[mask][0]),
                points=pts,
                centroid=pts.mean(axis=0),
            )
        )
    return out


def _linear_sum_assignment(cost: np.ndarray) -> tuple[list[int], list[int]]:
    """Minimum-cost assignment of a finite rectangular cost matrix: (rows, cols), sorted by row.

    scipy.optimize.linear_sum_assignment ported line for line, its tie and
    ordering rules included, so the two return the same pairs. Plain Python
    over ``cost.tolist()``: one row per observation, one column per object.
    """
    transpose = cost.shape[1] < cost.shape[0]
    c = (cost.T if transpose else cost).tolist()
    nr, nc = len(c), len(c[0]) if c else 0
    u, v = [0.0] * nr, [0.0] * nc
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    for cur in range(nr):
        # filled in reverse, so a constant matrix gives the identity
        remaining = list(range(nc - 1, -1, -1))
        sr, sc, spc = [False] * nr, [False] * nc, [math.inf] * nc
        i, min_val, sink = cur, 0.0, -1
        while sink == -1:
            sr[i] = True
            index, lowest, ci, ui = -1, math.inf, c[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                if r < spc[j]:
                    path[j], spc[j] = i, r
                # among equal costs prefer a free column, which ends the path
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] == -1):
                    lowest, index = spc[j], it
            min_val, j = lowest, remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            sc[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in range(nr):
            if sr[i] and i != cur:
                u[i] += min_val - spc[col4row[i]]
        for j in range(nc):
            if sc[j]:
                v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    pairs = sorted((r, k) for k, r in enumerate(col4row)) if transpose else list(enumerate(col4row))
    return [r for r, _ in pairs], [k for _, k in pairs]


def associate_observations(
    observations: list[Observation],
    library: ObjectLibrary,
) -> tuple[list[tuple[int, int]], list[int]]:
    """Match observations to mapped objects by horizontal centroid distance.

    Pairs with mismatched class or distance beyond the gate are forbidden.
    Among valid pairings the match count is maximized and total distance
    minimized over a large-cost-padded matrix by Crouse's shortest augmenting
    path (D. F. Crouse, "On implementing 2D rectangular assignment
    algorithms", IEEE Trans. Aerospace and Electronic Systems 52(4), 2016).

    Returns (matches [(obs_idx, object_id)], unmatched_obs_idx).
    """
    objs = library.objects()
    if not observations or not objs:
        return [], list(range(len(observations)))

    cent = np.array([ob.centroid[:2] for ob in observations])
    pos = np.array([rec.position[:2] for rec in objs])
    d = np.hypot(cent[:, None, 0] - pos[None, :, 0], cent[:, None, 1] - pos[None, :, 1])
    same_class = np.array([ob.class_id for ob in observations])[:, None] == [rec.class_id for rec in objs]
    cost = np.where(same_class & (d <= library.params.gate), d, FORBIDDEN_COST)

    matches = [(r, objs[c].id) for r, c in zip(*_linear_sum_assignment(cost)) if cost[r, c] < FORBIDDEN_COST]
    matched = {r for r, _ in matches}
    return matches, [i for i in range(len(observations)) if i not in matched]


def integrate_observation(
    record: ObjectRecord,
    obs: Observation,
    sensor_origin,
    params: MapParams,
) -> None:
    """Projective TSDF update of one object from one matched observation, in place.

    For every observed point, voxels traversed by the sensor ray within the
    truncation band receive the signed along-ray distance from the voxel
    center to the point (positive on the sensor side), clamped to the band and
    fused by a weighted running average with unit sample weight.
    """
    origin = np.asarray(sensor_origin, dtype=float)
    pts = obs.points
    rays = pts - origin[None, :]
    t_hit = np.linalg.norm(rays, axis=1)
    valid = t_hit > 1e-9
    pts, rays, t_hit = pts[valid], rays[valid], t_hit[valid]
    if pts.shape[0] == 0:
        return
    dirs = rays / t_hit[:, None]

    tau, res = params.truncation, params.resolution
    # never-observed voxels of the padded grid read as free space (+truncation)
    grid = record.tsdf.grown_to_include(pts.min(axis=0) - params.pad, pts.max(axis=0) + params.pad)

    # sample the band at voxel pitch, enough because every sample splats onto
    # its full surrounding-center cube: (n_pts, n_samples, 3)
    n = int(np.ceil(tau / res))
    t_samp = t_hit[:, None] + (np.arange(-n, n + 1) * res)[None, :]
    pos = origin[None, None, :] + t_samp[..., None] * dirs[:, None, :]

    n_pts, n_samp = t_samp.shape
    # splat each band sample onto the 8 voxel centers surrounding it; the fan
    # is sparse vertically, so a one-voxel tube would leave unobserved gaps
    # right next to the surface and bias interpolated reads
    base = np.floor((pos.reshape(-1, 3) - grid.origin[None, :]) / grid.resolution - 0.5).astype(int)
    corner = np.array([[i & 1, (i >> 1) & 1, (i >> 2) & 1] for i in range(8)])
    vidx = (base[:, None, :] + corner[None, :, :]).reshape(-1, 3)
    ray_of = np.repeat(np.repeat(np.arange(n_pts), n_samp), 8)
    # the pad keeps every stamp on the grid; ravel_multi_index raises otherwise
    flat = np.ravel_multi_index(vidx.T, grid.dims)

    centers = grid.origin[None, :] + (vidx + 0.5) * grid.resolution
    t_proj = np.einsum("ij,ij->i", centers - origin[None, :], dirs[ray_of])
    sdf = t_hit[ray_of] - t_proj
    in_band = np.abs(sdf) <= tau

    # one sample per (voxel, ray), sorted by voxel and then ray: each voxel's
    # rays form one run, summed in ray order by bincount as np.add.at would
    key, first = np.unique(flat[in_band] * n_pts + ray_of[in_band], return_index=True)
    sdf = sdf[in_band][first]
    voxel = key // n_pts
    starts = np.diff(voxel, prepend=-1) != 0
    touched = voxel[starts]
    slot = np.cumsum(starts) - 1
    sums = np.bincount(slot, weights=sdf)
    counts = np.bincount(slot)

    at = grid.allocate(touched)
    w_old = grid.weights[at]
    grid.values[at] = (grid.values[at] * w_old + sums) / (w_old + counts)
    grid.weights[at] = np.minimum(w_old + counts, params.weight_cap)

    total = record.n_points + pts.shape[0]
    record.position = (record.position * record.n_points + pts.sum(axis=0)) / total
    record.n_points = total
    record.tsdf = grid


def spawn_object(
    obs: Observation,
    library: ObjectLibrary,
    sensor_origin,
) -> ObjectRecord:
    """Create a new object from an unmatched observation and integrate it."""
    if len(obs) == 0:
        raise ValueError("cannot spawn from an empty observation")
    oid = library.next_id
    library.next_id += 1
    if oid in library.records:
        raise RuntimeError(f"duplicate object id {oid}")
    params = library.params
    # one background voxel at the centroid; the first integration sizes the grid
    grid = VoxelGrid3D.empty(obs.centroid, params.resolution, (1, 1, 1), fill=params.truncation)
    rec = ObjectRecord(
        id=oid,
        class_id=obs.class_id,
        stationarity=obs.stationarity,
        position=obs.centroid.copy(),
        consistency=initial_state(obs.stationarity, library.consistency_params),
        tsdf=grid,
        n_points=0,
    )
    integrate_observation(rec, obs, sensor_origin, params)
    library.records[oid] = rec
    return rec


def remove_object(library: ObjectLibrary, object_id: int) -> None:
    if object_id not in library.records:
        raise KeyError(f"no object with id {object_id}")
    del library.records[object_id]


def fuse_global_tsdf(library: ObjectLibrary) -> GlobalTsdf:
    """Per-voxel minimum over object TSDFs on the block of the workspace grid they reach.

    In x and y the block is the union of the object grids clipped to the
    workspace grid (zero extent when none reaches it), in z every workspace
    layer; voxels outside it are unobserved. The background is the truncation
    value, that of every object grid, so only stored object voxels below it
    can lower a voxel. They are merged by one stable sort on the key over the
    objects in ascending id: each voxel keeps its lowest value, and among
    equal values the lowest id owns it, as a strict ``<`` over ascending ids.
    """
    tau = library.params.truncation
    res = library.params.resolution
    g_lo = np.round(library.grid_origin / res).astype(int)
    g_hi = g_lo + library.grid_dims
    parts = []  # (record, its lattice origin, low and high corner of its overlap with the grid)
    for rec in library.objects():
        o_lo = rec.tsdf.index_origin()
        lo, hi = np.maximum(o_lo, g_lo), np.minimum(o_lo + rec.tsdf.dims, g_hi)
        if np.all(lo < hi):
            parts.append((rec, o_lo, lo, hi))
    b_lo = np.append(np.min([p[2] for p in parts] or [g_lo], axis=0)[:2], g_lo[2])
    b_hi = np.append(np.max([p[3] for p in parts] or [g_lo], axis=0)[:2], g_hi[2])
    shape = b_hi - b_lo
    keys, values, owner = [np.zeros(0, dtype=int)], [np.zeros(0)], [np.zeros(0, dtype=np.int32)]
    for rec, o_lo, _, _ in parts:
        # each stored voxel's index in the block; one off the block is off the workspace grid
        at = rec.tsdf.indices() + (o_lo - b_lo)[:, None]
        keep = np.all((at >= 0) & (at < shape[:, None]), axis=0) & (rec.tsdf.values < tau)
        i, j, k = at.compress(keep, axis=1)
        keys.append((i * shape[1] + j) * shape[2] + k)  # a shift keeps C order, so each object's keys stay sorted
        values.append(rec.tsdf.values[keep])
        owner.append(np.full(keys[-1].size, rec.id, dtype=np.int32))
    keys = np.concatenate(keys)
    order = np.argsort(keys, kind="stable")  # equal keys stay in ascending id
    keys, values, owner = keys[order], np.concatenate(values)[order], np.concatenate(owner)[order]
    # each pass drops, of two neighbours sharing a key, the later one unless it is strictly lower; a
    # key's first least value is never dropped, so one entry a key is left, the lowest id's on a tie
    while True:
        pair = np.flatnonzero(keys[1:] == keys[:-1])
        if pair.size == 0:
            break
        keep = np.ones(keys.size, dtype=bool)
        keep[np.where(values[pair] <= values[pair + 1], pair + 1, pair)] = False
        keys, values, owner = keys[keep], values[keep], owner[keep]
    return GlobalTsdf(origin=b_lo * res, resolution=res, dims=tuple(shape.tolist()), background=tau,
                      keys=keys, values=values, owner=owner)


def export_global_tsdf(global_tsdf: GlobalTsdf, path_stem: str) -> tuple[str, str]:
    """Write the fused map over its whole block as raw float32 plus a plain-text header.

    Produces ``<stem>.f32`` (C-order values, ``background`` where nothing is
    stored) and ``<stem>.meta.txt`` with origin, resolution and dims, one
    ``key: value`` per line.
    """
    data_path = f"{path_stem}.f32"
    meta_path = f"{path_stem}.meta.txt"
    data = np.full(global_tsdf.dims, global_tsdf.background, dtype=np.float32)
    np.put(data, global_tsdf.keys, global_tsdf.values)
    data.tofile(data_path)
    with open(meta_path, "w", encoding="utf-8") as fh:
        fh.write(f"origin: {global_tsdf.origin[0]} {global_tsdf.origin[1]} {global_tsdf.origin[2]}\n")
        fh.write(f"resolution: {global_tsdf.resolution}\n")
        fh.write(f"dims: {global_tsdf.dims[0]} {global_tsdf.dims[1]} {global_tsdf.dims[2]}\n")
        fh.write("dtype: float32\norder: C\n")
    return data_path, meta_path

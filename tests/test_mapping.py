import copy
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import semnav.runner as runner_mod
from semnav.barrier import CbfParams, extract_labeled_boundary, project_2p5d
from semnav.consistency import ConsistencyParams, GaussianBetaState, initial_state
from semnav.grids import VoxelGrid3D, sample_multilinear
from semnav.mapping import (
    FORBIDDEN_COST,
    GlobalTsdf,
    MapParams,
    ObjectLibrary,
    ObjectRecord,
    _linear_sum_assignment,
    associate_observations,
    export_global_tsdf,
    fuse_global_tsdf,
    integrate_observation,
    remove_object,
    segment_observations,
    spawn_object,
)
from semnav.world import DepthCamera, RobotState, SemanticPointCloud, WorldObject, render_depth

from conftest import make_observation


def dense_integrate(record, obs, sensor_origin, params):
    """Projective TSDF update accumulated on the full grid with ``np.add.at``.

    The stamps are generated as ``integrate_observation`` generates them; the
    sums and counts go into two zeroed arrays the size of the grid, and every
    voxel with a non-zero count is updated.
    """
    origin = np.asarray(sensor_origin, dtype=float)
    rays = obs.points - origin[None, :]
    t_hit = np.linalg.norm(rays, axis=1)
    valid = t_hit > 1e-9
    pts, rays, t_hit = obs.points[valid], rays[valid], t_hit[valid]
    if pts.shape[0] == 0:
        return record
    dirs = rays / t_hit[:, None]
    tau, res = params.truncation, params.resolution
    pad = 2.0 * tau + 2.0 * res
    grid = record.tsdf.grown_to_include(pts.min(axis=0) - pad, pts.max(axis=0) + pad)
    n = int(np.ceil(tau / res))
    t_samp = t_hit[:, None] + (np.arange(-n, n + 1) * res)[None, :]
    pos = (origin[None, None, :] + t_samp[..., None] * dirs[:, None, :]).reshape(-1, 3)
    base = np.floor((pos - grid.origin[None, :]) / grid.resolution - 0.5).astype(int)
    corner = np.array([[i & 1, (i >> 1) & 1, (i >> 2) & 1] for i in range(8)])
    vidx = (base[:, None, :] + corner[None, :, :]).reshape(-1, 3)
    ray_of = np.repeat(np.repeat(np.arange(pts.shape[0]), t_samp.shape[1]), 8)
    inside = np.all((vidx >= 0) & (vidx < np.array(grid.dims)[None, :]), axis=1)
    ray_of, vidx = ray_of[inside], vidx[inside]
    centers = grid.origin[None, :] + (vidx + 0.5) * grid.resolution
    sdf = t_hit[ray_of] - np.einsum("ij,ij->i", centers - origin[None, :], dirs[ray_of])
    in_band = np.abs(sdf) <= tau
    ray_of, vidx, sdf = ray_of[in_band], vidx[in_band], sdf[in_band]
    flat = np.ravel_multi_index((vidx[:, 0], vidx[:, 1], vidx[:, 2]), grid.dims)
    _, keep = np.unique(ray_of.astype(np.int64) * int(np.prod(grid.dims)) + flat, return_index=True)
    flat, sdf = flat[keep], sdf[keep]

    sums = np.zeros(int(np.prod(grid.dims)))
    counts = np.zeros(int(np.prod(grid.dims)))
    np.add.at(sums, flat, sdf)
    np.add.at(counts, flat, 1.0)
    touched = counts > 0
    v = grid.values.reshape(-1)
    w = grid.weights.reshape(-1)
    v[touched] = (v[touched] * w[touched] + sums[touched]) / (w[touched] + counts[touched])
    w[touched] = np.minimum(w[touched] + counts[touched], params.weight_cap)
    grid.values = v.reshape(grid.dims)
    grid.weights = w.reshape(grid.dims)

    total = record.n_points + pts.shape[0]
    record.position = (record.position * record.n_points + pts.sum(axis=0)) / total
    record.n_points = total
    record.tsdf = grid
    return record


def fuse_global_tsdf_oracle(library):
    """Per-voxel minimum over object TSDFs across the whole workspace grid.

    Every workspace voxel starts at the truncation value with owner -1; each
    object, in ascending id order, writes the values strictly below the
    current ones over its overlap with the grid.
    """
    tau = library.params.truncation
    res = library.params.resolution
    values = np.full(library.grid_dims, tau, dtype=np.float64)
    owner = np.full(library.grid_dims, -1, dtype=np.int32)
    g_lo = np.round(library.grid_origin / res).astype(int)
    g_dims = np.array(library.grid_dims)

    for rec in library.objects():
        o_lo = rec.tsdf.index_origin()
        o_dims = np.array(rec.tsdf.dims)
        lo = np.maximum(o_lo, g_lo)
        hi = np.minimum(o_lo + o_dims, g_lo + g_dims)
        if np.any(lo >= hi):
            continue
        gsl = tuple(slice(lo[a] - g_lo[a], hi[a] - g_lo[a]) for a in range(3))
        osl = tuple(slice(lo[a] - o_lo[a], hi[a] - o_lo[a]) for a in range(3))
        cand = rec.tsdf.values[osl]
        region = values[gsl]
        better = cand < region
        np.copyto(region, cand, where=better)
        np.copyto(owner[gsl], rec.id, where=better)

    return GlobalTsdf(origin=library.grid_origin.copy(), resolution=res, values=values, owner=owner)


def assert_boundaries_equal(got, want):
    """Two labelled boundaries hold the same cells in the same order, owners and labels, byte for byte."""
    assert got.cells.dtype == want.cells.dtype and got.cells.shape == want.cells.shape
    assert got.cells.tobytes() == want.cells.tobytes()
    assert got.owner_ids.dtype == want.owner_ids.dtype and got.owner_ids.tobytes() == want.owner_ids.tobytes()
    assert list(got.labels.items()) == list(want.labels.items())


def oracle_boundary(library, cbf):
    """The labelled boundary of the full-grid oracle's projection, and that projection."""
    ref, ref_owner = project_2p5d(fuse_global_tsdf_oracle(library), cbf.theta_z)
    return extract_labeled_boundary(ref, ref_owner, cbf.theta_zero, library), ref, ref_owner


def assert_block_matches_oracle(library, theta_z):
    """The block is the oracle on its extent, the oracle is unobserved off it, and the runner's boundary is the oracle's."""
    block = fuse_global_tsdf(library)
    oracle = fuse_global_tsdf_oracle(library)
    res = library.params.resolution
    g_lo = np.round(library.grid_origin / res).astype(int)
    b_lo = np.round(block.origin / res).astype(int)
    assert np.array_equal(block.origin, b_lo * res)
    # inside the workspace grid, every layer in z
    assert np.all(b_lo >= g_lo) and np.all(b_lo + block.dims <= g_lo + library.grid_dims)
    assert b_lo[2] == g_lo[2] and block.dims[2] == library.grid_dims[2]
    sl = tuple(slice(b_lo[a] - g_lo[a], b_lo[a] - g_lo[a] + block.dims[a]) for a in range(3))
    assert block.values.dtype == oracle.values.dtype and block.owner.dtype == oracle.owner.dtype
    assert block.values.tobytes() == oracle.values[sl].tobytes()
    assert block.owner.tobytes() == oracle.owner[sl].tobytes()
    outside = np.ones(library.grid_dims, dtype=bool)
    outside[sl] = False
    assert np.all(oracle.values[outside] == library.params.truncation)
    assert np.all(oracle.owner[outside] == -1)

    cbf = CbfParams(theta_z=theta_z)
    global_map, boundary = runner_mod._block_boundary(library, cbf)
    want, ref, ref_owner = oracle_boundary(library, cbf)
    assert global_map.values.tobytes() == block.values.tobytes()
    spec = library.grid_spec
    assert spec.origin.tobytes() == ref.origin.tobytes() and spec.resolution == ref.resolution and spec.dims == ref.dims
    assert_boundaries_equal(boundary, want)
    return block, boundary, ref, ref_owner


def loop_association(observations, library):
    """Association priced one (observation, object) pair at a time, the matches kept in a loop."""
    objs = library.objects()
    if not observations or not objs:
        return [], list(range(len(observations)))
    cost = np.full((len(observations), len(objs)), FORBIDDEN_COST)
    for i, ob in enumerate(observations):
        for j, rec in enumerate(objs):
            if ob.class_id != rec.class_id:
                continue
            d = float(np.hypot(ob.centroid[0] - rec.position[0], ob.centroid[1] - rec.position[1]))
            if d <= library.params.gate:
                cost[i, j] = d
    matches = []
    for r, c in zip(*linear_sum_assignment(cost)):
        if cost[r, c] < FORBIDDEN_COST:
            matches.append((int(r), objs[c].id))
    matched = {r for r, _ in matches}
    return matches, [i for i in range(len(observations)) if i not in matched]


def brute_force_assignment(cost: np.ndarray) -> float:
    """Min total cost over injective assignments on the big-cost-padded matrix."""
    n_obs, n_obj = cost.shape
    size = max(n_obs, n_obj)
    padded = np.full((size, size), FORBIDDEN_COST)
    padded[:n_obs, :n_obj] = cost
    return min(sum(padded[i, p] for i, p in enumerate(perm)) for perm in itertools.permutations(range(size)))


class TestSegmentation:
    def test_empty(self):
        assert segment_observations(SemanticPointCloud.empty()) == []

    def test_partition_of_two_instances(self):
        pts = np.arange(18, dtype=float).reshape(6, 3)
        cloud = SemanticPointCloud(
            points=pts,
            instance_ids=np.array([0, 1, 0, 1, 0, 1]),
            class_ids=np.array([1, 2, 1, 2, 1, 2]),
            stationarity=np.array([1, 0, 1, 0, 1, 0]),
        )
        obs = segment_observations(cloud)
        assert len(obs) == 2
        assert sum(len(o) for o in obs) == 6
        assert obs[0].class_id == 1 and obs[1].stationarity == 0

    def test_centroid_is_mean(self):
        pts = np.array([[0.0, 0, 0], [2.0, 4.0, 6.0]])
        cloud = SemanticPointCloud(
            points=pts, instance_ids=np.zeros(2, int), class_ids=np.ones(2, int), stationarity=np.ones(2, int)
        )
        np.testing.assert_allclose(segment_observations(cloud)[0].centroid, [1.0, 2.0, 3.0])


class TestAssociation:
    def _library_with(self, positions, classes, small_library):
        origin = (0.0, 0.0, 0.3)
        for k, (p, c) in enumerate(zip(positions, classes)):
            obs = make_observation(np.array(p) + np.array([[0, 0, 0], [0.05, 0, 0]]), class_id=c)
            spawn_object(obs, small_library, origin)
        return small_library

    def test_single_match(self, small_library):
        lib = self._library_with([[1.0, 0.0, 0.2]], [1], small_library)
        obs = [make_observation([[1.2, 0.0, 0.2]], class_id=1)]
        matches, um_obs = associate_observations(obs, lib)
        assert matches == [(0, 0)] and not um_obs

    def test_gate_excludes_distant(self, small_library):
        lib = self._library_with([[1.0, 0.0, 0.2]], [1], small_library)
        obs = [make_observation([[2.5, 0.0, 0.2]], class_id=1)]
        matches, um_obs = associate_observations(obs, lib)
        assert matches == [] and um_obs == [0]

    def test_class_mismatch_forbidden(self, small_library):
        lib = self._library_with([[1.0, 0.0, 0.2]], [1], small_library)
        obs = [make_observation([[1.0, 0.0, 0.2]], class_id=2)]
        matches, um_obs = associate_observations(obs, lib)
        assert matches == [] and um_obs == [0]

    def test_matches_brute_force_on_random_instances(self, small_library):
        rng = np.random.default_rng(3)
        positions = [[0.5, -0.5, 0.2], [1.5, 0.5, 0.2], [2.5, -1.0, 0.2]]
        lib = self._library_with(positions, [1, 1, 1], small_library)
        for _ in range(20):
            obs = [
                make_observation([rng.uniform([0, -1.8, 0.1], [3.5, 1.8, 0.4])], class_id=1)
                for _ in range(3)
            ]
            matches, _ = associate_observations(obs, lib)
            cost = np.zeros((3, 3))
            objs = lib.objects()
            for i, ob in enumerate(obs):
                for j, rec in enumerate(objs):
                    d = np.hypot(ob.centroid[0] - rec.position[0], ob.centroid[1] - rec.position[1])
                    cost[i, j] = d if d <= lib.params.gate else FORBIDDEN_COST
            got = sum(
                np.hypot(obs[i].centroid[0] - lib.records[oid].position[0],
                         obs[i].centroid[1] - lib.records[oid].position[1])
                for i, oid in matches
            ) + (3 - len(matches)) * FORBIDDEN_COST
            assert got == pytest.approx(brute_force_assignment(cost) + 0.0, abs=1e-9)

    @settings(max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1), n_obs=st.integers(0, 6), n_objs=st.integers(0, 6),
           n_classes=st.integers(1, 3), gate=st.sampled_from([0.25, 0.5, 1.0, 1.7, 3.0]),
           lattice=st.booleans())
    def test_cost_array_matches_per_pair_loop(self, seed, n_obs, n_objs, n_classes, gate, lattice):
        # a 0.25 m lattice puts centroids on each other and exactly on the gate
        rng = np.random.default_rng(seed)
        draw = lambda n: np.round(rng.uniform(-1.0, 1.0, (n, 3)) * 4) / 4 if lattice else rng.uniform(-1.0, 1.0, (n, 3))
        library = ObjectLibrary(params=MapParams(gate=gate), consistency_params=ConsistencyParams(),
                                workspace=(-2.0, -2.0, 2.0, 2.0), height=1.0)
        ids = np.sort(rng.choice(20, size=n_objs, replace=False))  # gaps, as after removals
        for oid, p in zip(ids, draw(n_objs)):
            library.records[int(oid)] = ObjectRecord(
                id=int(oid), class_id=int(rng.integers(n_classes)), stationarity=1, position=p,
                consistency=initial_state(1, library.consistency_params),
                tsdf=VoxelGrid3D.empty(p, 0.05, (1, 1, 1), fill=0.3))
        obs = [make_observation(c, class_id=int(rng.integers(n_classes)))
               for k, c in enumerate(draw(n_obs))]
        assert associate_observations(obs, library) == loop_association(obs, library)

    @settings(max_examples=400)
    @given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(0, 10), n_cols=st.integers(0, 10),
           family=st.sampled_from(["float", "small_int", "lattice", "forbidden"]))
    def test_assignment_matches_scipy(self, seed, n_rows, n_cols, family):
        # ties (small integers, quarter-metre distances, forbidden pairs) are
        # where the column order and the free-column preference pick the pairs
        rng = np.random.default_rng(seed)
        shape = (n_rows, n_cols)
        if family == "float":
            cost = rng.uniform(0.0, 3.0, shape)
        elif family == "small_int":
            cost = rng.integers(0, 4, shape).astype(float)
        elif family == "lattice":
            cost = np.round(rng.uniform(0.0, 2.0, shape) * 4) / 4
        else:
            cost = np.where(rng.uniform(size=shape) < 0.5, FORBIDDEN_COST, rng.uniform(0.0, 1.5, shape))
        rows, cols = linear_sum_assignment(cost)
        assert _linear_sum_assignment(cost) == (rows.tolist(), cols.tolist())

    def test_match_set_invariant_under_obs_permutation(self, small_library):
        lib = self._library_with([[0.5, -0.5, 0.2], [1.5, 0.5, 0.2]], [1, 1], small_library)
        obs = [
            make_observation([[0.6, -0.45, 0.2]], class_id=1),
            make_observation([[1.4, 0.55, 0.2]], class_id=1),
        ]
        m1, _ = associate_observations(obs, lib)
        m2, _ = associate_observations(obs[::-1], lib)
        as_pairs = lambda m, order: {(order[i], oid) for i, oid in m}
        assert as_pairs(m1, [0, 1]) == as_pairs(m2, [1, 0])


class TestIntegration:
    def _perpendicular_wall_obs(self, x_wall=2.0, n=41):
        # points on the plane x = x_wall, seen head-on from x = 0
        ys = np.linspace(-1.0, 1.0, n)
        zs = np.linspace(0.1, 0.9, 5)
        pts = np.array([[x_wall, y, z] for y in ys for z in zs])
        return make_observation(pts)

    def test_head_on_ray_matches_analytic_distance(self, small_library):
        # a single perpendicular ray: the along-ray distance IS the plane distance
        params = small_library.params
        obs = make_observation([[2.0, 0.0, 0.5]])
        rec = spawn_object(obs, small_library, (0.0, 0.0, 0.5))
        grid = rec.tsdf
        idx = np.argwhere(grid.weights > 0)
        assert len(idx) > 0
        xs = grid.origin[0] + (np.arange(grid.dims[0]) + 0.5) * grid.resolution
        for i, j, k in idx:
            analytic = np.clip(2.0 - xs[i], -params.truncation, params.truncation)
            assert abs(grid.values[i, j, k] - analytic) <= 1e-9

    def test_surface_voxels_near_zero(self, small_library):
        obs = self._perpendicular_wall_obs()
        rec = spawn_object(obs, small_library, (0.0, 0.0, 0.5))
        vals = sample_multilinear(rec.tsdf, obs.points)[0]
        assert np.abs(vals).max() <= small_library.params.resolution

    def test_double_integration_identical(self, small_library):
        obs = self._perpendicular_wall_obs()
        rec = spawn_object(obs, small_library, (0.0, 0.0, 0.5))
        before = rec.tsdf.values.copy()
        integrate_observation(rec, obs, (0.0, 0.0, 0.5), small_library.params)
        np.testing.assert_allclose(rec.tsdf.values, before, atol=1e-12)

    def test_far_behind_surface_untouched(self, small_library):
        obs = self._perpendicular_wall_obs()
        rec = spawn_object(obs, small_library, (0.0, 0.0, 0.5))
        grid = rec.tsdf
        tau, res = small_library.params.truncation, small_library.params.resolution
        xs = grid.origin[0] + (np.arange(grid.dims[0]) + 0.5) * res
        deep = xs > 2.0 + tau + res  # beyond the band along every head-on ray
        assert deep.any()
        assert np.all(grid.weights[deep, :, :] == 0.0)

    def test_empty_observation_noop(self, small_library):
        obs = self._perpendicular_wall_obs()
        rec = spawn_object(obs, small_library, (0.0, 0.0, 0.5))
        before = rec.tsdf.values.copy()
        empty = make_observation(np.zeros((0, 3)))
        integrate_observation(rec, empty, (0.0, 0.0, 0.5), small_library.params)
        np.testing.assert_array_equal(rec.tsdf.values, before)

    def test_stamp_off_the_grid_raises(self, small_library, monkeypatch):
        # the pad keeps every stamp on the grid; without growth the wall's
        # stamps leave the one-point grid and must raise, not be dropped
        rec = spawn_object(make_observation([[2.0, 0.0, 0.5]]), small_library, (0.0, 0.0, 0.5))
        monkeypatch.setattr(VoxelGrid3D, "grown_to_include", lambda grid, lo, hi: grid)
        with pytest.raises(ValueError):
            integrate_observation(rec, self._perpendicular_wall_obs(), (0.0, 0.0, 0.5), small_library.params)

    def test_values_and_weights_bounded(self, small_library):
        rng = np.random.default_rng(0)
        obs = self._perpendicular_wall_obs()
        rec = spawn_object(obs, small_library, (0.0, 0.0, 0.5))
        for _ in range(4):
            pts = obs.points + rng.normal(0, 0.01, size=obs.points.shape)
            integrate_observation(rec, make_observation(pts), (0.0, 0.0, 0.5), small_library.params)
        tau = small_library.params.truncation
        assert np.all(np.abs(rec.tsdf.values) <= tau + 1e-12)
        assert np.all(rec.tsdf.weights <= small_library.params.weight_cap)

    @settings(max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1), spread=st.sampled_from([0.0, 0.004, 0.02, 0.15]),
           n_points=st.integers(1, 40), weight_cap=st.sampled_from([1.0, 2.0, 3.5, 100.0]),
           shift=st.floats(-1.0, 1.0))
    def test_sparse_accumulation_matches_dense_oracle(self, seed, spread, n_points, weight_cap, shift):
        # clustered points send rays through shared voxels (spread 0: one
        # point repeated), small caps are reached, and a shifted second view
        # grows the grid unless the shift is small
        rng = np.random.default_rng(seed)
        params = MapParams(weight_cap=weight_cap)
        sensor = np.array([0.0, 0.0, 0.3]) + rng.uniform(-0.2, 0.2, size=3)
        center = np.array([rng.uniform(0.8, 2.5), rng.uniform(-1.0, 1.0), rng.uniform(0.1, 0.6)])
        first = center + spread * rng.standard_normal((n_points, 3))
        second = np.concatenate([first[: n_points // 2 + 1], first]) + [shift, 0.5 * shift, 0.0]
        grid = VoxelGrid3D.empty(center - 0.6, params.resolution, (24, 24, 24), fill=params.truncation)
        record = ObjectRecord(id=0, class_id=1, stationarity=1, position=center.copy(),
                              consistency=initial_state(1, ConsistencyParams()), tsdf=grid)
        oracle = copy.deepcopy(record)
        for pts in (first, second):
            integrate_observation(record, make_observation(pts), sensor, params)
            dense_integrate(oracle, make_observation(pts), sensor, params)
            assert record.tsdf.dims == oracle.tsdf.dims
            np.testing.assert_array_equal(record.tsdf.origin, oracle.tsdf.origin)
            assert record.tsdf.values.tobytes() == oracle.tsdf.values.tobytes()
            assert record.tsdf.weights.tobytes() == oracle.tsdf.weights.tobytes()
            assert record.position.tobytes() == oracle.position.tobytes()
            assert record.n_points == oracle.n_points
        assert record.tsdf.weights.max() <= weight_cap


class TestFusion:
    def test_empty_library(self, small_library):
        g = fuse_global_tsdf(small_library)
        tau = small_library.params.truncation
        assert np.all(g.values == tau)
        assert np.all(g.owner == -1)

    def test_single_object_extends_with_background(self, small_library):
        obs = make_observation([[1.0, 0.0, 0.2], [1.0, 0.1, 0.2]])
        rec = spawn_object(obs, small_library, (0.0, 0.0, 0.3))
        g = fuse_global_tsdf(small_library)
        tau = small_library.params.truncation
        observed = g.owner == rec.id
        assert observed.any()
        # owned voxels carry the object's values; all others are background
        assert np.all(g.values[~observed] == tau)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), n_objects=st.integers(1, 4), twins=st.booleans(),
           grow=st.booleans())
    def test_min_fusion_matches_elementwise_oracle(self, seed, n_objects, twins, grow):
        # a small workspace the objects overlap and poke out of; twins spawn
        # from one point set (exact ties), grow integrates a displaced second
        # view that enlarges the object grid
        rng = np.random.default_rng(seed)
        library = ObjectLibrary(params=MapParams(), consistency_params=ConsistencyParams(),
                                workspace=(0.7, -0.4, 1.6, 0.4), height=0.5)
        sensor = (0.0, 0.0, 0.3)
        recs = []
        for k in range(n_objects):
            if not (twins and k % 2):
                pts = rng.uniform([0.8, -0.3, 0.1], [1.4, 0.3, 0.5], size=(int(rng.integers(1, 30)), 3))
                moved = pts + rng.uniform(-0.4, 0.4, size=3)
            rec = spawn_object(make_observation(pts), library, sensor)
            if grow:
                dims = rec.tsdf.dims
                integrate_observation(rec, make_observation(moved), sensor, library.params)
                assert rec.tsdf.dims != dims
            recs.append(rec)
        g = fuse_global_tsdf(library)
        tau = library.params.truncation
        res = library.params.resolution

        expected = np.full(g.dims, tau)
        owner = np.full(g.dims, -1, dtype=int)
        for rec in recs:
            for idx in np.ndindex(g.dims):
                center = g.origin + (np.array(idx) + 0.5) * res
                gi = np.floor((center - rec.tsdf.origin) / res).astype(int)
                if np.all(gi >= 0) and np.all(gi < rec.tsdf.dims):
                    v = rec.tsdf.values[tuple(gi)] if rec.tsdf.weights[tuple(gi)] > 0 else tau
                else:
                    v = tau
                if v < expected[idx]:
                    expected[idx] = v
                    owner[idx] = rec.id
        np.testing.assert_array_equal(g.values, expected)
        np.testing.assert_array_equal(g.owner, owner)

    def test_order_invariance_and_tie_break(self, small_library):
        pts = [[1.0, 0.0, 0.2], [1.0, 0.05, 0.2]]
        a = spawn_object(make_observation(pts), small_library, (0.0, 0.0, 0.3))
        b = spawn_object(make_observation(pts), small_library, (0.0, 0.0, 0.3))
        g = fuse_global_tsdf(small_library)
        # identical contributions: the lower id owns every contested voxel
        contested = g.owner >= 0
        assert contested.any()
        assert np.all(g.owner[contested] == a.id)
        assert b.id != a.id


class TestBlockFusion:
    WORKSPACE = (0.0, -1.0, 3.0, 1.0)
    # point-cluster centres straddling x = xmin, y = ymin, x = xmax, y = ymax, then inside
    STRADDLE = ([0.0, 0.0], [1.5, -1.0], [3.0, 0.0], [1.5, 1.0], [1.5, 0.0])

    def _library(self):
        return ObjectLibrary(params=MapParams(), consistency_params=ConsistencyParams(),
                             workspace=self.WORKSPACE, height=0.5)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), where=st.lists(st.integers(0, 5), max_size=5),
           twins=st.booleans(), grow=st.booleans())
    def test_block_matches_full_grid_oracle(self, seed, where, twins, grow):
        # each object straddles one workspace edge, sits inside, or (5) lies
        # wholly outside the grid; twins spawn from one point set (exact
        # ties), grow integrates a displaced second view
        rng = np.random.default_rng(seed)
        library = self._library()
        sensor = (1.5, 0.0, 2.0)
        for k, w in enumerate(where):
            if not (twins and k % 2):
                center = [6.0, 4.0] if w == 5 else self.STRADDLE[w]
                center = np.append(np.add(center, rng.uniform(-0.3, 0.3, size=2)), 0.25)
                pts = center + rng.uniform(-0.25, 0.25, size=(int(rng.integers(1, 30)), 3))
                moved = pts + np.append(rng.uniform(-0.4, 0.4, size=2), 0.0)
            rec = spawn_object(make_observation(pts), library, sensor)
            if grow:
                integrate_observation(rec, make_observation(moved), sensor, library.params)
        assert_block_matches_oracle(library, theta_z=0.5)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), corner=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
           where=st.lists(st.integers(0, 5), max_size=7), removed=st.sets(st.integers(0, 6), max_size=2),
           ev=st.none() | st.floats(0.1, 0.9))
    def test_shifted_block_boundary_matches_full_grid_oracle(self, seed, corner, where, removed, ev):
        # a 3 x 2 m workspace whose low corner is mostly off the lattice; each object
        # straddles one workspace edge, sits inside, or (5) lies wholly outside, with
        # either label and its prior's E[v] or a pinned one; some are removed again,
        # and no objects is the empty library
        rng = np.random.default_rng(seed)
        x0, y0 = corner
        library = ObjectLibrary(params=MapParams(), consistency_params=ConsistencyParams(),
                                workspace=(x0, y0, x0 + 3.0, y0 + 2.0), height=0.5)
        sensor = (x0 + 1.5, y0 + 1.0, 2.0)
        for k, w in enumerate(where):
            center = [x0 + 6.0, y0 + 4.0] if w == 5 else np.add(corner, self.STRADDLE[w]) + [0.0, 1.0]
            center = np.append(np.add(center, rng.uniform(-0.2, 0.2, size=2)), 0.25)
            pts = center + rng.uniform(-0.25, 0.25, size=(int(rng.integers(1, 20)), 3))
            obs = make_observation(pts, stationarity=int(rng.integers(0, 2)))
            rec = spawn_object(obs, library, sensor)
            if ev is not None:
                rec.consistency = GaussianBetaState(mu=0.0, sigma=0.2, alpha=ev, beta=1.0 - ev)
        for oid in removed & set(library.records):
            remove_object(library, oid)
        cbf = CbfParams(theta_z=0.5)
        _, boundary = runner_mod._block_boundary(library, cbf)
        want, _, _ = oracle_boundary(library, cbf)
        assert_boundaries_equal(boundary, want)

    def test_block_reaches_each_workspace_edge(self):
        library = self._library()
        for k, center in enumerate(self.STRADDLE[:4]):
            pts = np.array([[center[0], center[1], 0.25], [center[0] + 0.05, center[1] + 0.05, 0.3]])
            spawn_object(make_observation(pts), library, (1.5, 0.0, 2.0))
        block, boundary, _, _ = assert_block_matches_oracle(library, theta_z=0.5)
        np.testing.assert_array_equal(block.origin, library.grid_origin)
        assert block.dims == library.grid_dims
        # boundary cells in the workspace grid's first and last rows and columns
        assert boundary.cells.min(axis=0).tolist() == [0, 0]
        assert (boundary.cells.max(axis=0) + 1).tolist() == list(library.grid_dims[:2])

    def test_block_covers_only_the_objects_columns(self):
        library = self._library()
        spawn_object(make_observation([[1.5, 0.0, 0.25]]), library, (1.5, 0.0, 2.0))
        block, boundary, _, _ = assert_block_matches_oracle(library, theta_z=0.5)
        assert block.origin[0] > library.grid_origin[0] and block.origin[1] > library.grid_origin[1]
        assert block.dims[0] < library.grid_dims[0] and block.dims[1] < library.grid_dims[1]
        # the shift is not zero, and every cell lands in the block's columns of the workspace grid
        lo = np.round((block.origin[:2] - library.grid_origin[:2]) / library.params.resolution).astype(int)
        assert len(boundary) > 0 and np.all(lo > 0)
        assert np.all(boundary.cells >= lo) and np.all(boundary.cells < lo + block.dims[:2])

    @pytest.mark.parametrize("case", ["empty", "removed", "outside"])
    def test_zero_extent_block_projects_to_unobserved(self, case):
        library = self._library()
        if case == "removed":
            rec = spawn_object(make_observation([[1.5, 0.0, 0.25]]), library, (1.5, 0.0, 2.0))
            remove_object(library, rec.id)
        elif case == "outside":
            spawn_object(make_observation([[6.0, 4.0, 0.25]]), library, (1.5, 0.0, 2.0))
        block, boundary, ref, ref_owner = assert_block_matches_oracle(library, theta_z=0.5)
        assert block.dims == (0, 0, library.grid_dims[2])
        np.testing.assert_array_equal(block.origin, library.grid_origin)
        assert ref.dims == library.grid_dims[:2]
        assert np.all(ref.values == library.params.truncation) and np.all(ref_owner == -1)
        assert len(boundary) == 0 and boundary.cells.shape == (0, 2) and boundary.labels == {}


class TestSpawnRemove:
    def test_spawn_static_prior(self, small_library):
        rec = spawn_object(make_observation([[1.0, 0, 0.2]], stationarity=1), small_library, (0, 0, 0.3))
        assert rec.consistency.mean_consistency == pytest.approx(0.9)

    def test_spawn_dynamic_prior(self, small_library):
        rec = spawn_object(make_observation([[1.0, 0, 0.2]], stationarity=0), small_library, (0, 0, 0.3))
        assert rec.consistency.mean_consistency == pytest.approx(0.6)

    def test_ids_strictly_increase(self, small_library):
        ids = [
            spawn_object(make_observation([[1.0, k * 0.1, 0.2]]), small_library, (0, 0, 0.3)).id
            for k in range(4)
        ]
        assert ids == sorted(ids) and len(set(ids)) == 4
        remove_object(small_library, ids[1])
        new = spawn_object(make_observation([[2.0, 0, 0.2]]), small_library, (0, 0, 0.3))
        assert new.id > max(ids)

    def test_spawned_grid_keeps_truncation_background_when_grown(self, small_library):
        tau = small_library.params.truncation
        rec = spawn_object(make_observation([[1.0, 0, 0.2]]), small_library, (0, 0, 0.3))
        assert rec.tsdf.background == tau
        dims = rec.tsdf.dims
        integrate_observation(rec, make_observation([[2.0, 0.5, 0.2]]), (0, 0, 0.3), small_library.params)
        assert rec.tsdf.dims != dims
        assert rec.tsdf.background == tau
        assert np.all(rec.tsdf.values[rec.tsdf.weights == 0.0] == tau)

    def test_spawn_grid_is_sized_by_integration_alone(self, small_library, monkeypatch):
        obs = make_observation([[1.0, 0.1, 0.2], [1.1, -0.2, 0.4], [0.9, 0.3, 0.1]])
        sensor = (0.0, 0.0, 0.3)
        params = small_library.params
        empty = VoxelGrid3D.empty.__func__
        allocated = []

        def counting_empty(cls, *args, **kwargs):
            allocated.append(empty(cls, *args, **kwargs))
            return allocated[-1]

        monkeypatch.setattr(VoxelGrid3D, "empty", classmethod(counting_empty))
        rec = spawn_object(obs, small_library, sensor)
        # one background voxel, then the one grid the integration sizes and keeps
        assert [g.dims for g in allocated] == [(1, 1, 1), rec.tsdf.dims]
        ref = ObjectRecord(
            id=99, class_id=1, stationarity=1, position=obs.centroid.copy(),
            consistency=initial_state(1, small_library.consistency_params),
            tsdf=empty(VoxelGrid3D, obs.points[-1], params.resolution, (0, 0, 0), fill=params.truncation),
        )
        integrate_observation(ref, obs, sensor, params)
        assert np.array_equal(rec.tsdf.origin, ref.tsdf.origin) and rec.tsdf.dims == ref.tsdf.dims
        assert np.array_equal(rec.tsdf.values, ref.tsdf.values)
        assert np.array_equal(rec.tsdf.weights, ref.tsdf.weights)

    def test_spawn_empty_rejected(self, small_library):
        with pytest.raises(ValueError):
            spawn_object(make_observation(np.zeros((0, 3))), small_library, (0, 0, 0.3))

    def test_duplicate_id_is_internal_error(self, small_library):
        spawn_object(make_observation([[1.0, 0, 0.2]]), small_library, (0, 0, 0.3))
        small_library.next_id = 0  # corrupt the counter
        with pytest.raises(RuntimeError):
            spawn_object(make_observation([[2.0, 0, 0.2]]), small_library, (0, 0, 0.3))

    def test_remove_then_fuse_reverts(self, small_library):
        rec = spawn_object(make_observation([[1.0, 0, 0.2]]), small_library, (0, 0, 0.3))
        assert np.any(fuse_global_tsdf(small_library).owner == rec.id)
        remove_object(small_library, rec.id)
        g = fuse_global_tsdf(small_library)
        assert np.all(g.values == small_library.params.truncation)
        with pytest.raises(KeyError):
            remove_object(small_library, rec.id)


def test_voxel_grid_background_carries_over_growth():
    grid = VoxelGrid3D.empty((0.0, 0.0, 0.0), 0.1, (2, 2, 2), fill=0.7)
    assert grid.background == 0.7
    grid.values[:] = 0.2
    grown = grid.grown_to_include(np.array([-0.3, 0.0, 0.0]), np.array([0.2, 0.2, 0.2]))
    assert grown.dims == (5, 2, 2) and grown.background == 0.7
    assert np.all(grown.values[3:] == 0.2) and np.all(grown.values[:3] == 0.7)
    assert grid.grown_to_include(np.zeros(3), np.full(3, 0.2)) is grid


@pytest.mark.parametrize("field", ["resolution", "truncation", "weight_cap", "gate"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_map_params_reject_non_positive_or_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        MapParams(**{field: value})


def test_export_global_tsdf_roundtrip(tmp_path, small_library):
    # an empty library gives a zero-extent block at the workspace origin; one
    # object gives a block off the workspace corner
    for stem in ("empty", "one"):
        if stem == "one":
            spawn_object(make_observation([[1.0, 0, 0.2]]), small_library, (0, 0, 0.3))
        g = fuse_global_tsdf(small_library)
        assert np.any(g.origin != small_library.grid_origin) == (stem == "one")
        data_path, meta_path = export_global_tsdf(g, str(tmp_path / stem))
        meta = dict(line.split(": ", 1) for line in open(meta_path).read().splitlines())
        dims = tuple(int(t) for t in meta["dims"].split())
        assert dims == g.dims and (np.prod(dims) == 0) == (stem == "empty")
        origin = np.array([float(t) for t in meta["origin"].split()])
        assert origin.tobytes() == g.origin.tobytes()
        raw = np.fromfile(data_path, dtype=np.float32).reshape(dims)
        np.testing.assert_allclose(raw, g.values.astype(np.float32))
        assert float(meta["resolution"]) == g.resolution


def test_full_scan_association_stable_over_motion():
    # a small boxy scene re-observed from nearby poses keeps its object identities
    cam = DepthCamera(depth_noise_sigma=0.0)
    objs = [
        WorldObject(id=0, center=(2.5, 1.0), yaw=0.2, half_extents=(0.3, 0.3, 0.3), class_id=1, stationarity=1),
        WorldObject(id=1, center=(2.5, -1.0), yaw=-0.4, half_extents=(0.3, 0.3, 0.3), class_id=1, stationarity=1),
    ]
    from semnav.consistency import ConsistencyParams

    lib = ObjectLibrary(params=MapParams(), consistency_params=ConsistencyParams(),
                        workspace=(-1, -2.5, 5, 2.5), height=1.0)
    cloud = render_depth(objs, RobotState(0, 0, 0), cam, 0)
    for ob in segment_observations(cloud):
        spawn_object(ob, lib, (0, 0, cam.mount_height))
    for step in range(1, 6):
        pose = RobotState(0.1 * step, 0, 0)
        cloud = render_depth(objs, pose, cam, step)
        obs = segment_observations(cloud)
        matches, um_obs = associate_observations(obs, lib)
        assert not um_obs
        for i, oid in matches:
            integrate_observation(lib.records[oid], obs[i], (pose.x, pose.y, cam.mount_height), lib.params)
    assert len(lib.records) == 2

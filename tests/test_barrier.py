from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import semnav.barrier as barrier_mod
from semnav.barrier import (
    CbfField,
    CbfParams,
    LabeledBoundary,
    build_cbf_field,
    build_plain_edf,
    build_semantic_edf,
    extract_labeled_boundary,
    project_2p5d,
)
from semnav.consistency import ConsistencyParams, GaussianBetaState
from semnav.grids import Grid2D, VoxelGrid3D, sample_multilinear
from semnav.mapping import GlobalTsdf, MapParams, ObjectLibrary, ObjectRecord, remove_object, spawn_object

from conftest import dense, make_observation, plain_edf
from test_mapping import project_2p5d_oracle

PARAMS = CbfParams()
RES = 0.05


def boundary_from_cells(grid_spec: Grid2D, cells_by_object, ids=None):
    """cells_by_object: list of (cells [(ix,iy)...], ev, s); owner ids are ``ids``, or the list indices."""
    ids = range(len(cells_by_object)) if ids is None else ids
    cells, owners, labels = [], [], {}
    for oid, (cls, ev, s) in zip(ids, cells_by_object):
        cells.extend(cls)
        owners.extend([oid] * len(cls))
        if cls:
            labels[oid] = (ev, s)
    return LabeledBoundary(cells=np.array(cells, dtype=int).reshape(-1, 2), owner_ids=np.array(owners, dtype=int),
                           labels=labels)


def extract_labeled_boundary_oracle(m25, owner, theta_zero, library):
    """The per-cell labelling that kept one E[v] and one stationarity per cell, stale owners dropped."""
    ix, iy = np.nonzero(m25.values <= theta_zero)
    oid = owner[ix, iy].astype(int)
    # per-object label tables in ascending id order, looked up by binary search
    objs = library.objects()
    ids = np.array([rec.id for rec in objs], dtype=int)
    ev_of = np.array([rec.consistency.mean_consistency for rec in objs], dtype=float)
    st_of = np.array([rec.stationarity for rec in objs], dtype=int)
    slot = np.searchsorted(ids, oid)
    keep = slot < ids.size
    keep[keep] = ids[slot[keep]] == oid[keep]
    ix, iy, oid, slot = ix[keep], iy[keep], oid[keep], slot[keep]
    return SimpleNamespace(cells=np.stack([ix, iy], axis=1), owner_ids=oid, consistency=ev_of[slot],
                           stationarity=st_of[slot])


def cell_centres(boundary: LabeledBoundary, grid_spec: Grid2D) -> np.ndarray:
    """(N, 2) world centres of the boundary's cells."""
    return grid_spec.origin + (boundary.cells + 0.5) * grid_spec.resolution


def brute_force_edf(boundary: LabeledBoundary, params: CbfParams, grid_spec: Grid2D) -> np.ndarray:
    """Direct min-formula evaluation over every (cell, boundary entry) pair."""
    xs, ys = grid_spec.cell_centers()
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    out = np.full(grid_spec.dims, np.inf)
    for oid, (px, py) in zip(boundary.owner_ids, cell_centres(boundary, grid_spec)):
        ev, s = boundary.labels[oid]
        v = params.lambda_c * ev * np.hypot(gx - px, gy - py) - params.bias_for(s)
        np.minimum(out, v, out=out)
    return out


def brute_force_plain_edf(boundary: LabeledBoundary, params: CbfParams, grid_spec: Grid2D) -> np.ndarray:
    """Direct distance from every cell to every boundary entry, labels ignored, minus the bias."""
    xs, ys = grid_spec.cell_centers()
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    out = np.full(grid_spec.dims, np.inf)
    for px, py in cell_centres(boundary, grid_spec):
        np.minimum(out, np.hypot(gx - px, gy - py) - params.bias, out=out)
    return out


def plain_edf_oracle(m25: Grid2D, theta_zero: float, params: CbfParams) -> Grid2D:
    """The non-semantic field as one threshold and one transform of the whole 2.5D grid."""
    sel = m25.values <= theta_zero
    if not sel.any():
        values = np.full(m25.dims, np.inf)
    else:
        dist = ndimage.distance_transform_edt(~sel, sampling=m25.resolution)
        values = dist - params.bias
    return Grid2D(origin=m25.origin.copy(), resolution=m25.resolution, values=values)


def empty_grid(nx=64, ny=64):
    return Grid2D.full((0.0, 0.0), RES, (nx, ny), 0.0)


def fused_map(values, owner, origin=(0.0, 0.0, 0.0), background=0.3):
    """The ``GlobalTsdf`` storing the voxels of dense ``values`` below ``background``, with their owners."""
    keys = np.flatnonzero(np.asarray(values) < background)
    return GlobalTsdf(origin=np.array(origin, dtype=float), resolution=RES, dims=np.shape(values),
                      background=background, keys=keys, values=np.ravel(values)[keys],
                      owner=np.ravel(owner)[keys].astype(np.int32))


class TestProjection:
    def test_unobserved_columns_get_truncation(self):
        tau = 0.3
        g = fused_map(np.full((8, 8, 8), tau), np.full((8, 8, 8), -1))
        assert g.keys.size == 0
        m25, owner = project_2p5d(g, theta_z=0.4)
        assert np.all(m25.values == tau)
        assert np.all(owner == -1)

    def test_zero_crossing_column(self):
        tau = 0.3
        vals = np.full((8, 8, 8), tau)
        vals[3, 3, 2] = 0.01
        owner = np.full((8, 8, 8), -1, dtype=np.int32)
        owner[3, 3, 2] = 7
        g = fused_map(vals, owner)
        m25, own = project_2p5d(g, theta_z=0.4)
        assert m25.values[3, 3] == pytest.approx(0.01)
        assert own[3, 3] == 7

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), nz=st.integers(1, 10), below=st.integers(0, 3),
           theta_z=st.floats(0.01, 0.6))
    def test_matches_elementwise_oracle(self, seed, nz, below, theta_z):
        # values from a small set, so equal |v| and +-v pairs with different
        # owners share a column, and -0.3 ties an unobserved layer; as in a fused
        # map, nothing is stored at the background 0.3 and each stored voxel has
        # an owner; an origin below z = 0 drops bottom layers
        rng = np.random.default_rng(seed)
        vals = rng.choice([-0.3, -0.1, 0.0, 0.1, 0.3], size=(5, 4, nz))
        owner = np.where(vals < 0.3, rng.integers(0, 4, size=(5, 4, nz)), -1).astype(np.int32)
        z0 = -below * RES
        g = fused_map(vals, owner, origin=(0.0, 0.0, z0))
        zsel = [k for k in range(nz) if 0.0 < z0 + (k + 0.5) * RES <= theta_z]
        if not zsel:
            with pytest.raises(ValueError, match="height window"):
                project_2p5d(g, theta_z)
            return
        m25, own = project_2p5d(g, theta_z)
        assert m25.values.dtype == np.float64 and own.dtype == owner.dtype
        for i in range(5):
            for j in range(4):
                k = min(zsel, key=lambda k: abs(vals[i, j, k]))  # first (lowest) minimum wins
                assert m25.values[i, j] == abs(vals[i, j, k])
                assert own[i, j] == owner[i, j, k]
        ref, ref_owner = project_2p5d_oracle(dense(g), theta_z)
        assert m25.values.tobytes() == ref.values.tobytes() and own.tobytes() == ref_owner.tobytes()

    def test_height_window_excludes_upper_layers(self):
        vals = np.full((4, 4, 8), 0.3)
        vals[0, 0, 7] = 0.0  # above the window
        g = fused_map(vals, np.zeros((4, 4, 8), np.int32))
        m25, _ = project_2p5d(g, theta_z=0.2)
        assert m25.values[0, 0] == 0.3


class TestBoundaryExtraction:
    def test_empty_map(self, small_library):
        m25 = Grid2D.full((0, 0), RES, (16, 16), 0.3)
        owner = np.full((16, 16), -1, dtype=int)
        b = extract_labeled_boundary(m25, owner, PARAMS.theta_zero, small_library)
        assert len(b) == 0

    def test_single_object_labels(self, small_library):
        rec = spawn_object(make_observation([[1.0, 0.0, 0.2], [1.05, 0.0, 0.2]]), small_library, (0, 0, 0.3))
        m25 = Grid2D.full((0, 0), RES, (16, 16), 0.3)
        owner = np.full((16, 16), -1, dtype=int)
        m25.values[4:8, 4:8] = 0.05
        owner[4:8, 4:8] = rec.id
        b = extract_labeled_boundary(m25, owner, PARAMS.theta_zero, small_library)
        assert len(b) == 16
        assert np.all(b.owner_ids == rec.id)
        assert b.labels == {rec.id: (rec.consistency.mean_consistency, 1)}

    def test_threshold_monotonicity(self, small_library):
        rec = spawn_object(make_observation([[1.0, 0.0, 0.2]]), small_library, (0, 0, 0.3))
        rng = np.random.default_rng(0)
        m25 = Grid2D.full((0, 0), RES, (16, 16), 0.3)
        m25.values[:] = rng.uniform(0.0, 0.3, size=(16, 16))
        owner = np.full((16, 16), rec.id, dtype=int)
        tight = extract_labeled_boundary(m25, owner, 0.05, small_library)
        loose = extract_labeled_boundary(m25, owner, 0.15, small_library)
        tight_set = {tuple(c) for c in tight.cells}
        loose_set = {tuple(c) for c in loose.cells}
        assert tight_set <= loose_set

    @pytest.mark.parametrize("stale, error", [(99, KeyError), (-1, ValueError)])
    def test_owner_outside_library_raises(self, small_library, stale, error):
        spawn_object(make_observation([[1.0, 0.0, 0.2]]), small_library, (0, 0, 0.3))
        m25 = Grid2D.full((0, 0), RES, (16, 16), 0.3)
        m25.values[3:5, 3] = 0.0
        owner = np.full((16, 16), -1, dtype=int)
        owner[3, 3], owner[4, 3] = 0, stale  # a live owner beside one the library does not hold
        with pytest.raises(error):
            extract_labeled_boundary(m25, owner, PARAMS.theta_zero, small_library)

    @pytest.mark.parametrize("ev", [None, 0.25])
    def test_labels_match_library_records(self, small_library, ev):
        # live ids 0, 2, 3, 5 with distinct E[v] (or all at E[v] = ev) and both stationarity
        # labels, after removing 1 and 4; columns above the zero level may have no owner (-1)
        recs = [spawn_object(make_observation([[1.0 + 0.3 * k, 0.0, 0.2]], stationarity=k % 2),
                             small_library, (0, 0, 0.3))
                for k in range(6)]
        for k, rec in enumerate(recs):
            alpha, beta = (1.0 + k, 2.0) if ev is None else (ev, 1.0 - ev)
            rec.consistency = GaussianBetaState(mu=0.0, sigma=0.2, alpha=alpha, beta=beta)
        remove_object(small_library, 1)
        remove_object(small_library, 4)
        rng = np.random.default_rng(3)
        m25 = Grid2D.full((0.2, -0.4), RES, (20, 16), 0.3)
        m25.values[:] = rng.choice([0.0, 0.1, 0.15, 0.2, 0.3], size=(20, 16))
        owner = rng.choice([0, 2, 3, 5], size=(20, 16))
        owner[(m25.values > PARAMS.theta_zero) & (rng.random((20, 16)) < 0.5)] = -1
        b = extract_labeled_boundary(m25, owner, PARAMS.theta_zero, small_library)
        expected = list(zip(*np.nonzero(m25.values <= PARAMS.theta_zero)))
        assert [tuple(c) for c in b.cells] == expected
        assert b.owner_ids.tolist() == [int(owner[i, j]) for i, j in expected]
        assert b.labels == {rec.id: (rec.consistency.mean_consistency, rec.stationarity)
                            for rec in small_library.objects()}
        assert {s for _, s in b.labels.values()} == {0, 1}
        assert {e for e, _ in b.labels.values()} == ({1 / 3, 3 / 5, 4 / 6, 6 / 8} if ev is None else {ev})

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), n_objects=st.integers(2, 6), ev=st.sampled_from([None, 0.25]))
    def test_matches_per_cell_oracle(self, seed, n_objects, ev):
        # live ids with gaps, as after removals, distinct E[v] (or all at E[v] = ev) and both
        # labels; only columns above the zero level lack an owner, as in a fused map
        rng = np.random.default_rng(seed)
        library = ObjectLibrary(params=MapParams(), consistency_params=ConsistencyParams(),
                                workspace=(-1.0, -2.0, 4.0, 2.0), height=1.0)
        ids = np.sort(rng.choice(30, size=n_objects, replace=False)).tolist()
        for k, oid in enumerate(ids):
            library.records[oid] = ObjectRecord(
                id=oid, class_id=1, stationarity=k % 2, position=np.zeros(3),
                consistency=GaussianBetaState(mu=0.0, sigma=0.2, alpha=1.0 + k if ev is None else ev,
                                              beta=2.0 if ev is None else 1.0 - ev),
                tsdf=VoxelGrid3D.empty(np.zeros(3), RES, (1, 1, 1), fill=0.3))
        shape = tuple(rng.integers(1, 24, size=2))
        m25 = Grid2D.full((0.2, -0.4), RES, shape, 0.3)
        m25.values[:] = rng.choice([0.0, 0.1, 0.15, 0.2, 0.3], size=shape)
        owner = rng.choice(ids, size=shape).astype(np.int32)
        owner[(m25.values > PARAMS.theta_zero) & (rng.random(shape) < 0.5)] = -1
        b = extract_labeled_boundary(m25, owner, PARAMS.theta_zero, library)
        o = extract_labeled_boundary_oracle(m25, owner, PARAMS.theta_zero, library)
        for got, want in ((b.cells, o.cells), (b.owner_ids, o.owner_ids)):
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
        assert set(b.labels) == set(o.owner_ids.tolist())
        per_cell = [b.labels[i] for i in b.owner_ids.tolist()]
        assert np.array_equal(np.array([ev for ev, _ in per_cell], dtype=float), o.consistency)
        assert np.array_equal(np.array([s for _, s in per_cell], dtype=int), o.stationarity)

    def test_label_follows_the_filtered_consistency(self, small_library):
        # a new object carries its prior's E[v]; once the filter moves it, the next extraction reads the new value
        rec = spawn_object(make_observation([[1.0, 0.0, 0.2]]), small_library, (0, 0, 0.3))
        m25 = Grid2D.full((0, 0), RES, (16, 16), 0.3)
        m25.values[3, 3] = 0.0
        owner = np.full((16, 16), -1, dtype=int)
        owner[3, 3] = rec.id
        b = extract_labeled_boundary(m25, owner, PARAMS.theta_zero, small_library)
        assert b.labels == {rec.id: (0.9, 1)}
        rec.consistency = GaussianBetaState(mu=0.0, sigma=0.2, alpha=1.0, beta=3.0)
        b = extract_labeled_boundary(m25, owner, PARAMS.theta_zero, small_library)
        assert b.labels == {rec.id: (0.25, 1)}


class TestSemanticEdf:
    def test_boundary_cell_value_is_negative_bias(self):
        spec = empty_grid()
        b = boundary_from_cells(spec, [([(32, 32)], 1.0, 1)])
        edf = build_semantic_edf(b, PARAMS, spec)
        assert edf.values[32, 32] == pytest.approx(-0.75)

    def test_known_distance_value(self):
        spec = empty_grid()
        b = boundary_from_cells(spec, [([(32, 32)], 1.0, 1)])
        edf = build_semantic_edf(b, PARAMS, spec)
        assert edf.values[42, 32] == pytest.approx(3.0 * 1.0 * 0.5 - 0.75)  # 10 cells = 0.5 m away

    def test_dynamic_bias(self):
        spec = empty_grid()
        b = boundary_from_cells(spec, [([(32, 32)], 1.0, 0)])
        edf = build_semantic_edf(b, PARAMS, spec)
        assert edf.values[32, 32] == pytest.approx(-PARAMS.lambda_s * PARAMS.bias)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        spec = empty_grid()
        for _ in range(3):
            objs = []
            for _ in range(rng.integers(1, 4)):
                n_cells = rng.integers(1, 30)
                cells = [tuple(c) for c in rng.integers(0, 64, size=(n_cells, 2))]
                objs.append((cells, float(rng.uniform(0.2, 1.0)), int(rng.integers(0, 2))))
            b = boundary_from_cells(spec, objs)
            edf = build_semantic_edf(b, PARAMS, spec)
            np.testing.assert_allclose(edf.values, brute_force_edf(b, PARAMS, spec), atol=1e-9)

    def test_distance_cache_matches_cacheless_calls(self, monkeypatch):
        # one cache through a repeat, a moved cell, a removed owner, new
        # labels on unchanged cells and another grid shape; each call must
        # equal a cache-less call bit for bit and transform only new cell sets
        real_edt = barrier_mod.ndimage.distance_transform_edt
        edt_calls = []

        def counting_edt(*args, **kwargs):
            edt_calls.append(1)
            return real_edt(*args, **kwargs)

        monkeypatch.setattr(barrier_mod, "ndimage", SimpleNamespace(distance_transform_edt=counting_edt))
        a = [(20, 20), (21, 20), (22, 21)]
        a_moved = [(20, 20), (21, 20), (23, 21)]
        b = [(40, 10), (41, 11)]
        c = [(10, 40), (11, 40), (12, 40)]
        wide, narrow = empty_grid(), empty_grid(64, 48)
        steps = [
            (wide, {3: (a, 0.9, 1), 5: (b, 0.6, 0), 8: (c, 0.8, 1)}, 3),
            (wide, {3: (a, 0.9, 1), 5: (b, 0.6, 0), 8: (c, 0.8, 1)}, 0),
            (wide, {3: (a_moved, 0.9, 1), 5: (b, 0.6, 0), 8: (c, 0.8, 1)}, 1),
            (wide, {3: (a_moved, 0.9, 1), 8: (c, 0.8, 1)}, 0),
            (wide, {3: (a_moved, 0.9, 1), 8: (c, 0.35, 0)}, 0),
            (narrow, {3: (a_moved, 0.9, 1), 8: (c, 0.35, 0)}, 2),
        ]
        cache = {}
        for spec, objects, expected_edts in steps:
            boundary = boundary_from_cells(spec, list(objects.values()), ids=list(objects))
            del edt_calls[:]
            cached = build_semantic_edf(boundary, PARAMS, spec, cache=cache)
            transforms = len(edt_calls)
            fresh = build_semantic_edf(boundary, PARAMS, spec)
            assert cached.values.tobytes() == fresh.values.tobytes()
            assert transforms == expected_edts
            assert len(cache) == len(objects)
            assert not any(dist.flags.writeable for dist in cache.values())

    def test_empty_boundary_gives_cutoff_field(self):
        spec = empty_grid()
        b = boundary_from_cells(spec, [])
        field = build_cbf_field(build_semantic_edf(b, PARAMS, spec), PARAMS)
        assert np.all(field.grid.values == PARAMS.theta_cutoff)


class TestPlainEdf:
    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**32 - 1), n_objects=st.integers(0, 3))
    def test_matches_brute_force_oracle(self, seed, n_objects):
        # random labels must not matter; no object is the empty boundary
        rng = np.random.default_rng(seed)
        spec = empty_grid(48, 40)
        objs = [([tuple(c) for c in rng.integers(0, 40, size=(rng.integers(1, 30), 2))],
                 float(rng.uniform(0.2, 1.0)), int(rng.integers(0, 2))) for _ in range(n_objects)]
        b = boundary_from_cells(spec, objs)
        edf = build_plain_edf(b, PARAMS, spec)
        np.testing.assert_allclose(edf.values, brute_force_plain_edf(b, PARAMS, spec), atol=1e-9)

    def test_empty_boundary_is_inf_then_cutoff(self):
        # the transform of a mask with no zero is finite, so an empty boundary must give no piece
        spec = empty_grid(48, 40)
        edf = build_plain_edf(boundary_from_cells(spec, []), PARAMS, spec)
        assert np.all(edf.values == np.inf)
        assert np.all(build_cbf_field(edf, PARAMS).grid.values == PARAMS.theta_cutoff)

    @pytest.mark.parametrize("theta_zero", [0.05, 0.15, 0.0])
    def test_zero_level_boundary_equals_threshold_oracle(self, theta_zero):
        rng = np.random.default_rng(11)
        m25 = Grid2D.full((0.3, -0.2), RES, (40, 32), 0.3)
        m25.values[:] = rng.choice([0.02, 0.1, 0.2, 0.3], size=(40, 32))
        edf = plain_edf(m25, theta_zero, PARAMS)
        assert edf.values.tobytes() == plain_edf_oracle(m25, theta_zero, PARAMS).values.tobytes()


class TestCbfField:
    def _wall_m25(self):
        m25 = Grid2D.full((0.0, 0.0), RES, (64, 64), 0.3)
        m25.values[40:44, :] = 0.05  # a wall band
        return m25

    def test_cutoff_far_from_obstacles(self):
        m25 = Grid2D.full((0.0, 0.0), RES, (64, 64), 0.3)
        m25.values[56:60, 56:60] = 0.05  # obstacle patch in the far corner
        field = build_cbf_field(plain_edf(m25, PARAMS.theta_zero, PARAMS), PARAMS)
        assert field.query_h(0.2, 0.2) == pytest.approx(PARAMS.theta_cutoff)

    def test_plain_field_is_distance_minus_bias(self):
        m25 = self._wall_m25()
        edf = plain_edf(m25, PARAMS.theta_zero, PARAMS)
        # 10 cells below the band in x: distance 0.5
        assert edf.values[30, 10] == pytest.approx(0.5 - PARAMS.bias)

    def test_semantic_with_pinned_labels_equals_plain(self, small_library):
        rec1 = spawn_object(make_observation([[1.0, 0.0, 0.2]]), small_library, (0, 0, 0.3))
        rec2 = spawn_object(make_observation([[2.0, 1.0, 0.2]]), small_library, (0, 0, 0.3))
        m25 = Grid2D.full((0.0, 0.0), RES, (64, 64), 0.3)
        owner = np.full((64, 64), -1, dtype=int)
        m25.values[10:14, 20:30] = 0.04
        owner[10:14, 20:30] = rec1.id
        m25.values[40:44, 35:45] = 0.04
        owner[40:44, 35:45] = rec2.id
        rec1.stationarity = rec2.stationarity = 1
        for rec in (rec1, rec2):  # E[v] = 1 / lambda_c = 1/3
            rec.consistency = GaussianBetaState(mu=0.0, sigma=0.2, alpha=1.0, beta=2.0)
        boundary = extract_labeled_boundary(m25, owner, PARAMS.theta_zero, small_library)
        semantic = build_semantic_edf(boundary, PARAMS, m25)
        plain = build_plain_edf(boundary, PARAMS, m25)
        np.testing.assert_allclose(semantic.values, plain.values, atol=1e-12)

    def test_query_at_cell_center_exact(self):
        field = build_cbf_field(plain_edf(self._wall_m25(), PARAMS.theta_zero, PARAMS), PARAMS)
        xs, ys = field.grid.cell_centers()
        assert field.query_h(xs[12], ys[7]) == pytest.approx(field.grid.values[12, 7], abs=1e-12)

    def test_query_midpoint_is_mean(self):
        field = build_cbf_field(plain_edf(self._wall_m25(), PARAMS.theta_zero, PARAMS), PARAMS)
        xs, ys = field.grid.cell_centers()
        mid = field.query_h(0.5 * (xs[12] + xs[13]), ys[7])
        assert mid == pytest.approx(0.5 * (field.grid.values[12, 7] + field.grid.values[13, 7]), abs=1e-12)

    def test_gradient_on_affine_field(self):
        xs = (np.arange(64) + 0.5) * RES
        ys = (np.arange(64) + 0.5) * RES
        vals = 2.0 * xs[:, None] + 3.0 * ys[None, :]
        field = CbfField(grid=Grid2D(origin=np.zeros(2), resolution=RES, values=vals), params=PARAMS)
        for (qx, qy) in [(1.0, 1.0), (0.7, 2.1), (2.345, 0.912)]:
            gx, gy = field.query_grad(qx, qy)
            assert gx == pytest.approx(2.0, abs=1e-9)
            assert gy == pytest.approx(3.0, abs=1e-9)

    def test_gradient_consistent_with_value_queries(self):
        field = build_cbf_field(plain_edf(self._wall_m25(), PARAMS.theta_zero, PARAMS), PARAMS)
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 25:
            x, y = rng.uniform(0.4, 2.6, size=2)
            fx = (x / RES - 0.5) % 1.0
            fy = (y / RES - 0.5) % 1.0
            if not (0.3 < fx < 0.7 and 0.3 < fy < 0.7):
                continue  # keep the probe stencil inside one interpolation cell
            gx, gy = field.query_grad(x, y)
            eps = 1e-4
            fdx = (field.query_h(x + eps, y) - field.query_h(x - eps, y)) / (2 * eps)
            fdy = (field.query_h(x, y + eps) - field.query_h(x, y - eps)) / (2 * eps)
            assert gx == pytest.approx(fdx, abs=1e-3)
            assert gy == pytest.approx(fdy, abs=1e-3)
            checked += 1

    def test_out_of_extent_clamps_and_flags(self):
        field = build_cbf_field(plain_edf(self._wall_m25(), PARAMS.theta_zero, PARAMS), PARAMS)
        v, clamped = field.query_h_checked(-5.0, 1.0)
        assert clamped
        v2, inside = field.query_h_checked(1.0, 1.0)
        assert not inside

    def test_batched_query_matches_scalar_queries_bitwise(self):
        # the batched query against query_h and against a per-point stencil
        # evaluated with Python floats, on and off the grid (off-grid clamps)
        field = build_cbf_field(plain_edf(self._wall_m25(), PARAMS.theta_zero, PARAMS), PARAMS)
        grid = field.grid
        rng = np.random.default_rng(7)
        pts = np.concatenate([
            rng.uniform(0.0, 3.2, size=(1500, 2)),
            rng.uniform(-2.0, 5.0, size=(500, 2)),
            [[-5.0, 1.0], [1.0, 9.0], [0.0, 0.0], [3.2, 3.2], [0.025, 3.175]],
        ])
        h, grad = field.query(pts)
        assert h.shape == (len(pts),) and grad.shape == (len(pts), 2)
        d = grid.resolution / 4.0
        x0, y0 = grid.origin + 0.5 * grid.resolution
        x1 = x0 + (grid.dims[0] - 1) * grid.resolution
        y1 = y0 + (grid.dims[1] - 1) * grid.resolution

        def sample(x, y):
            return float(sample_multilinear(grid, [[x, y]])[0][0])

        for (x, y), hv, (gx, gy) in zip(pts.tolist(), h, grad):
            assert hv == field.query_h(x, y)
            assert (gx, gy) == field.query_grad(x, y)
            cx = min(max(x, x0 + d), x1 - d)
            cy = min(max(y, y0 + d), y1 - d)
            assert gx == (sample(cx + d, cy) - sample(cx - d, cy)) / (2.0 * d)
            assert gy == (sample(cx, cy + d) - sample(cx, cy - d)) / (2.0 * d)

    def test_batched_query_rejects_nonfinite_points(self):
        field = build_cbf_field(plain_edf(self._wall_m25(), PARAMS.theta_zero, PARAMS), PARAMS)
        with pytest.raises(ValueError):
            field.query(np.array([[0.5, 0.5], [np.nan, 0.5]]))

    def test_rejects_nonfinite_queries(self):
        field = build_cbf_field(plain_edf(self._wall_m25(), PARAMS.theta_zero, PARAMS), PARAMS)
        with pytest.raises(ValueError):
            field.query_h(float("nan"), 0.0)
        with pytest.raises(ValueError):
            field.query_grad(0.0, float("inf"))


class TestHeuristicProperties:
    def _two_object_boundary(self, spec, ev0=1.0, s0=1, ev1=1.0, s1=1):
        ring0 = [(20 + i, 20) for i in range(6)] + [(20 + i, 25) for i in range(6)]
        ring1 = [(45, 35 + i) for i in range(6)] + [(50, 35 + i) for i in range(6)]
        return boundary_from_cells(spec, [(ring0, ev0, s0), (ring1, ev1, s1)])

    def test_lowering_consistency_never_raises_h(self):
        spec = empty_grid()
        hi = build_cbf_field(build_semantic_edf(self._two_object_boundary(spec, ev0=1.0), PARAMS, spec), PARAMS)
        lo = build_cbf_field(build_semantic_edf(self._two_object_boundary(spec, ev0=0.4), PARAMS, spec), PARAMS)
        diff = lo.grid.values - hi.grid.values
        assert np.max(diff) <= 1e-12
        # strictly lower somewhere within 2 m of the object
        assert np.min(diff) < -1e-6

    def test_bias_toggle_local_and_bounded(self):
        spec = empty_grid()
        b_static = self._two_object_boundary(spec, s0=1)
        b_dynamic = self._two_object_boundary(spec, s0=0)
        f_static = build_semantic_edf(b_static, PARAMS, spec)
        f_dynamic = build_semantic_edf(b_dynamic, PARAMS, spec)
        diff = f_dynamic.values - f_static.values
        assert np.max(diff) <= 1e-12
        assert np.min(diff) >= -(PARAMS.lambda_s - 1.0) * PARAMS.bias - 1e-12

        # changes only where object 0 attains the min in either build
        sel0 = boundary_from_cells(spec, [(list(map(tuple, b_static.cells[b_static.owner_ids == 0])), 1.0, 1)])
        sel1 = boundary_from_cells(spec, [(list(map(tuple, b_static.cells[b_static.owner_ids == 1])), 1.0, 1)])
        cone0s = build_semantic_edf(sel0, PARAMS, spec).values
        cone0d = cone0s - (PARAMS.lambda_s - 1.0) * PARAMS.bias
        cone1 = build_semantic_edf(sel1, PARAMS, spec).values
        attains = (cone0s <= cone1 + 1e-12) | (cone0d <= cone1 + 1e-12)
        changed = np.abs(diff) > 1e-12
        assert np.all(attains[changed])

    def test_zero_crossing_radius(self):
        # a square ring of boundary cells: the zero crossing sits bias/(slope*ev)
        # beyond the outermost cell
        spec = empty_grid(96, 96)
        for s, expected in ((1, 0.25), (0, 0.50)):
            ring = [(i, j) for i in range(40, 49) for j in range(40, 49)
                    if i in (40, 48) or j in (40, 48)]
            b = boundary_from_cells(spec, [(ring, 1.0, s)])
            field = build_cbf_field(build_semantic_edf(b, PARAMS, spec), PARAMS)
            xs, _ = field.grid.cell_centers()
            outer_x = xs[48]
            y_mid = (44 + 0.5) * RES
            scan = np.linspace(outer_x, outer_x + 1.2, 2401)
            hs = np.array([field.query_h(x, y_mid) for x in scan])
            crossing = scan[np.argmax(hs >= 0.0)]
            assert crossing - outer_x == pytest.approx(expected, abs=0.05)

    def test_lipschitz_bound(self):
        spec = empty_grid()
        b = self._two_object_boundary(spec, ev0=0.9, ev1=0.7)
        field = build_cbf_field(build_semantic_edf(b, PARAMS, spec), PARAMS)
        rng = np.random.default_rng(8)
        bound = PARAMS.lambda_c * 0.9
        for _ in range(200):
            p = rng.uniform(0.1, 3.0, size=2)
            q = rng.uniform(0.1, 3.0, size=2)
            lhs = abs(field.query_h(*p) - field.query_h(*q))
            assert lhs <= bound * np.linalg.norm(p - q) + 1e-9

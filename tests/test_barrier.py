import numpy as np
import pytest

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
from semnav.grids import Grid2D
from semnav.mapping import GlobalTsdf, spawn_object

from conftest import make_observation

PARAMS = CbfParams()
RES = 0.05


def boundary_from_cells(grid_spec: Grid2D, cells_by_object):
    """cells_by_object: list of (cells [(ix,iy)...], ev, s); owner ids are list indices."""
    cells, owners, evs, sts = [], [], [], []
    for oid, (cls, ev, s) in enumerate(cells_by_object):
        for c in cls:
            cells.append(c)
            owners.append(oid)
            evs.append(ev)
            sts.append(s)
    cells = np.array(cells, dtype=int).reshape(-1, 2)
    xs = grid_spec.origin[0] + (cells[:, 0] + 0.5) * grid_spec.resolution
    ys = grid_spec.origin[1] + (cells[:, 1] + 0.5) * grid_spec.resolution
    return LabeledBoundary(
        cells=cells,
        positions=np.stack([xs, ys], axis=1),
        owner_ids=np.array(owners, dtype=int),
        consistency=np.array(evs, dtype=float),
        stationarity=np.array(sts, dtype=int),
    )


def brute_force_edf(boundary: LabeledBoundary, params: CbfParams, grid_spec: Grid2D) -> np.ndarray:
    """Direct min-formula evaluation over every (cell, boundary entry) pair."""
    xs, ys = grid_spec.cell_centers()
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    out = np.full(grid_spec.dims, np.inf)
    for n in range(len(boundary)):
        d = np.hypot(gx - boundary.positions[n, 0], gy - boundary.positions[n, 1])
        v = params.lambda_c * boundary.consistency[n] * d - params.bias_for(int(boundary.stationarity[n]))
        np.minimum(out, v, out=out)
    return out


def empty_grid(nx=64, ny=64):
    return Grid2D.full((0.0, 0.0), RES, (nx, ny), 0.0)


class TestProjection:
    def test_unobserved_columns_get_truncation(self):
        tau = 0.3
        g = GlobalTsdf(origin=np.zeros(3), resolution=RES, values=np.full((8, 8, 8), tau),
                       owner=np.full((8, 8, 8), -1, dtype=np.int32))
        m25, owner = project_2p5d(g, theta_z=0.4)
        assert np.all(m25.values == tau)
        assert np.all(owner == -1)

    def test_zero_crossing_column(self):
        tau = 0.3
        vals = np.full((8, 8, 8), tau)
        vals[3, 3, 2] = 0.01
        owner = np.full((8, 8, 8), -1, dtype=np.int32)
        owner[3, 3, 2] = 7
        g = GlobalTsdf(origin=np.zeros(3), resolution=RES, values=vals, owner=owner)
        m25, own = project_2p5d(g, theta_z=0.4)
        assert m25.values[3, 3] == pytest.approx(0.01)
        assert own[3, 3] == 7

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(2)
        vals = rng.uniform(-0.3, 0.3, size=(8, 8, 8))
        owner = rng.integers(0, 4, size=(8, 8, 8)).astype(np.int32)
        g = GlobalTsdf(origin=np.zeros(3), resolution=RES, values=vals, owner=owner)
        theta_z = 0.3
        m25, own = project_2p5d(g, theta_z)
        zsel = [k for k in range(8) if 0.0 < (k + 0.5) * RES <= theta_z]
        for i in range(8):
            for j in range(8):
                col = np.abs(vals[i, j, zsel])
                k = int(np.argmin(col))
                assert m25.values[i, j] == col[k]
                assert own[i, j] == owner[i, j, zsel[k]]

    def test_height_window_excludes_upper_layers(self):
        vals = np.full((4, 4, 8), 0.3)
        vals[0, 0, 7] = 0.0  # above the window
        g = GlobalTsdf(origin=np.zeros(3), resolution=RES, values=vals, owner=np.zeros((4, 4, 8), np.int32))
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
        assert np.all(b.stationarity == 1)
        np.testing.assert_allclose(b.consistency, rec.consistency.mean_consistency)

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

    def test_stale_owner_dropped(self, small_library):
        m25 = Grid2D.full((0, 0), RES, (16, 16), 0.3)
        m25.values[3, 3] = 0.0
        owner = np.full((16, 16), -1, dtype=int)
        owner[3, 3] = 99  # not in the library
        b = extract_labeled_boundary(m25, owner, PARAMS.theta_zero, small_library)
        assert len(b) == 0

    def test_consistency_override(self, small_library):
        rec = spawn_object(make_observation([[1.0, 0.0, 0.2]]), small_library, (0, 0, 0.3))
        m25 = Grid2D.full((0, 0), RES, (16, 16), 0.3)
        m25.values[3, 3] = 0.0
        owner = np.full((16, 16), -1, dtype=int)
        owner[3, 3] = rec.id
        b = extract_labeled_boundary(m25, owner, PARAMS.theta_zero, small_library, consistency_override=0.25)
        assert b.consistency[0] == 0.25


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

    def test_empty_boundary_gives_cutoff_field(self):
        spec = empty_grid()
        b = boundary_from_cells(spec, [])
        field = build_cbf_field(build_semantic_edf(b, PARAMS, spec), PARAMS)
        assert np.all(field.grid.values == PARAMS.theta_cutoff)


class TestCbfField:
    def _wall_m25(self):
        m25 = Grid2D.full((0.0, 0.0), RES, (64, 64), 0.3)
        m25.values[40:44, :] = 0.05  # a wall band
        return m25

    def test_cutoff_far_from_obstacles(self):
        m25 = Grid2D.full((0.0, 0.0), RES, (64, 64), 0.3)
        m25.values[56:60, 56:60] = 0.05  # obstacle patch in the far corner
        field = build_cbf_field(build_plain_edf(m25, PARAMS.theta_zero, PARAMS), PARAMS)
        assert field.query_h(0.2, 0.2) == pytest.approx(PARAMS.theta_cutoff)

    def test_plain_field_is_distance_minus_bias(self):
        m25 = self._wall_m25()
        edf = build_plain_edf(m25, PARAMS.theta_zero, PARAMS)
        # 10 cells below the band in x: distance 0.5
        assert edf.values[30, 10] == pytest.approx(0.5 - PARAMS.bias)

    def test_semantic_with_pinned_labels_equals_plain(self, small_library):
        rec1 = spawn_object(make_observation([[1.0, 0.0, 0.2]], instance_id=0), small_library, (0, 0, 0.3))
        rec2 = spawn_object(make_observation([[2.0, 1.0, 0.2]], instance_id=1), small_library, (0, 0, 0.3))
        m25 = Grid2D.full((0.0, 0.0), RES, (64, 64), 0.3)
        owner = np.full((64, 64), -1, dtype=int)
        m25.values[10:14, 20:30] = 0.04
        owner[10:14, 20:30] = rec1.id
        m25.values[40:44, 35:45] = 0.04
        owner[40:44, 35:45] = rec2.id
        rec1.stationarity = rec2.stationarity = 1
        boundary = extract_labeled_boundary(m25, owner, PARAMS.theta_zero, small_library,
                                            consistency_override=1.0 / PARAMS.lambda_c)
        semantic = build_semantic_edf(boundary, PARAMS, m25)
        plain = build_plain_edf(m25, PARAMS.theta_zero, PARAMS)
        np.testing.assert_allclose(semantic.values, plain.values, atol=1e-12)

    def test_query_at_cell_center_exact(self):
        field = build_cbf_field(build_plain_edf(self._wall_m25(), PARAMS.theta_zero, PARAMS), PARAMS)
        xs, ys = field.grid.cell_centers()
        assert field.query_h(xs[12], ys[7]) == pytest.approx(field.grid.values[12, 7], abs=1e-12)

    def test_query_midpoint_is_mean(self):
        field = build_cbf_field(build_plain_edf(self._wall_m25(), PARAMS.theta_zero, PARAMS), PARAMS)
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
        field = build_cbf_field(build_plain_edf(self._wall_m25(), PARAMS.theta_zero, PARAMS), PARAMS)
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
        field = build_cbf_field(build_plain_edf(self._wall_m25(), PARAMS.theta_zero, PARAMS), PARAMS)
        v, clamped = field.query_h_checked(-5.0, 1.0)
        assert clamped
        v2, inside = field.query_h_checked(1.0, 1.0)
        assert not inside

    def test_batched_query_matches_scalar_queries_bitwise(self):
        # the batched query against query_h and against a per-point stencil
        # evaluated with Python floats, on and off the grid (off-grid clamps)
        field = build_cbf_field(build_plain_edf(self._wall_m25(), PARAMS.theta_zero, PARAMS), PARAMS)
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
            return float(grid.sample_bilinear(x, y)[0])

        for (x, y), hv, (gx, gy) in zip(pts.tolist(), h, grad):
            assert hv == field.query_h(x, y)
            assert (gx, gy) == field.query_grad(x, y)
            cx = min(max(x, x0 + d), x1 - d)
            cy = min(max(y, y0 + d), y1 - d)
            assert gx == (sample(cx + d, cy) - sample(cx - d, cy)) / (2.0 * d)
            assert gy == (sample(cx, cy + d) - sample(cx, cy - d)) / (2.0 * d)

    def test_batched_query_rejects_nonfinite_points(self):
        field = build_cbf_field(build_plain_edf(self._wall_m25(), PARAMS.theta_zero, PARAMS), PARAMS)
        with pytest.raises(ValueError):
            field.query(np.array([[0.5, 0.5], [np.nan, 0.5]]))

    def test_rejects_nonfinite_queries(self):
        field = build_cbf_field(build_plain_edf(self._wall_m25(), PARAMS.theta_zero, PARAMS), PARAMS)
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

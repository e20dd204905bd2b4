"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

import semnav.runner as runner_mod
from semnav.barrier import CbfParams, build_cbf_field, build_semantic_edf
from semnav.consistency import (
    ConsistencyParams,
    GaussianBetaState,
    update_consistency,
)
from semnav.geometry import point_box_distance
from semnav.grids import Grid2D
from semnav.mpc import ControllerParams, hold_trajectory, mpc_step
from semnav.qp import QpProblem, solve_qp
from semnav.runner import compute_metrics, run_closed_loop
from semnav.scenario import MODE_CLASSIC, MODE_NONSEMANTIC, MODE_SEMANTIC, load_scenario

from conftest import SCENARIO_DIR
from test_barrier import boundary_from_cells, brute_force_edf, cell_centres
from test_consistency import posterior_moments_by_quadrature
from test_qp import enumerate_box_qp, box_qp

PARAMS = CbfParams()
RES = 0.05
GAMMAS = (0.01, 0.03, 0.1, 0.5, 1.0)


def report(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def sweep_records():
    sc = load_scenario(SCENARIO_DIR / "wall_sweep.json")
    out = {}
    for gamma in GAMMAS:
        run_sc = replace(sc, controller=replace(sc.controller, gamma_bar=gamma))
        t0 = time.perf_counter()
        out[gamma] = (run_closed_loop(run_sc), time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def gap_records():
    sc = load_scenario(SCENARIO_DIR / "drawer_gap.json")
    return {mode: run_closed_loop(replace(sc, mode=mode))
            for mode in (MODE_SEMANTIC, MODE_NONSEMANTIC, MODE_CLASSIC)}


@pytest.fixture(scope="module")
def shift_record():
    return run_closed_loop(load_scenario(SCENARIO_DIR / "drawer_shift.json"))


def test_criterion_1_semantic_edf_oracle():
    rng = np.random.default_rng(0)
    spec = Grid2D.full((0.0, 0.0), RES, (64, 64), 0.0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        objs = []
        for _ in range(int(rng.integers(1, 4))):
            n_cells = int(rng.integers(1, 40))
            cells = [tuple(c) for c in rng.integers(0, 64, size=(n_cells, 2))]
            objs.append((cells, float(rng.uniform(0.2, 1.0)), int(rng.integers(0, 2))))
        boundary = boundary_from_cells(spec, objs)
        built = build_semantic_edf(boundary, PARAMS, spec)
        oracle = brute_force_edf(boundary, PARAMS, spec)
        worst = max(worst, float(np.max(np.abs(built.values - oracle))))
    elapsed = time.perf_counter() - t0
    report(worst <= 1e-9 and elapsed < 10.0, "criterion 1 semantic EDF oracle",
           f"max |err| = {worst:.2e} over 50 random 64x64 builds in {elapsed:.1f} s")


def test_criterion_2_unsafe_region_radius():
    spec = Grid2D.full((0.0, 0.0), RES, (96, 96), 0.0)
    results = {}
    for s, expected in ((1, 0.25), (0, 0.50)):
        ring = [(i, j) for i in range(40, 49) for j in range(40, 49) if i in (40, 48) or j in (40, 48)]
        boundary = boundary_from_cells(spec, [(ring, 1.0, s)])
        field = build_cbf_field(build_semantic_edf(boundary, PARAMS, spec), PARAMS)
        xs, _ = field.grid.cell_centers()
        outer_x = xs[48]
        y_mid = (44 + 0.5) * RES
        scan = np.linspace(outer_x, outer_x + 1.2, 4801)
        hs = np.array([field.query_h(x, y_mid) for x in scan])
        crossing = float(scan[np.argmax(hs >= 0.0)]) - outer_x
        results[s] = crossing
        assert crossing == pytest.approx(expected, abs=0.05)
    report(True, "criterion 2 unsafe-region radius",
           f"static crossing {results[1]:.3f} m (want 0.25 +/- 0.05), dynamic {results[0]:.3f} m (want 0.50 +/- 0.05)")


def test_criterion_3_consistency_filter_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        state = GaussianBetaState(
            mu=rng.uniform(-0.5, 0.5), sigma=rng.uniform(0.05, 0.4),
            alpha=rng.uniform(1.2, 12.0), beta=rng.uniform(1.2, 12.0),
        )
        params = ConsistencyParams(sigma_m=rng.uniform(0.05, 0.3), n_max=1e9)
        delta = rng.uniform(-0.8, 0.8)
        new, _ = update_consistency(state, delta, params)
        ev, el, varl = posterior_moments_by_quadrature(state, delta, params)
        worst = max(worst, abs(new.mean_consistency - ev), abs(new.mu - el), abs(new.sigma**2 - varl))
    report(worst <= 1e-3, "criterion 3 consistency-filter oracle",
           f"max moment error {worst:.2e} over 20 random updates (tol 1e-3)")


def test_criterion_4_heuristic_monotonicity():
    spec = Grid2D.full((0.0, 0.0), RES, (64, 64), 0.0)
    ring0 = [(20 + i, 20) for i in range(6)] + [(20 + i, 25) for i in range(6)]
    ring1 = [(45, 35 + i) for i in range(6)] + [(50, 35 + i) for i in range(6)]

    def build(ev0, s0):
        b = boundary_from_cells(spec, [(ring0, ev0, s0), (ring1, 0.8, 1)])
        return build_cbf_field(build_semantic_edf(b, PARAMS, spec), PARAMS), b

    hi, boundary = build(1.0, 1)
    lo, _ = build(0.4, 1)
    diff = lo.grid.values - hi.grid.values
    never_increases = float(np.max(diff)) <= 1e-12

    xs, ys = spec.cell_centers()
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    cells0 = cell_centres(boundary, spec)[boundary.owner_ids == 0]
    d0 = np.min(np.hypot(gx[:, :, None] - cells0[None, None, :, 0],
                         gy[:, :, None] - cells0[None, None, :, 1]), axis=2)
    strictly_lower_nearby = float(np.min(diff[d0 <= 2.0])) < -1e-6

    f_static, _ = build(1.0, 1)
    f_dynamic, _ = build(1.0, 0)
    sdiff = f_dynamic.grid.values - f_static.grid.values
    bound = (PARAMS.lambda_s - 1.0) * PARAMS.bias
    bounded = float(np.max(np.abs(sdiff))) <= bound + 1e-12

    cone0 = build_semantic_edf(boundary_from_cells(spec, [(ring0, 1.0, 1)]), PARAMS, spec).values
    cone1 = build_semantic_edf(boundary_from_cells(spec, [(ring1, 0.8, 1)]), PARAMS, spec).values
    attains = (cone0 <= cone1 + 1e-12) | (cone0 - bound <= cone1 + 1e-12)
    local = bool(np.all(attains[np.abs(sdiff) > 1e-12]))

    report(never_increases and strictly_lower_nearby and bounded and local,
           "criterion 4 heuristic monotonicity",
           f"consistency drop: max inc {np.max(diff):.1e}, min nearby {np.min(diff[d0 <= 2.0]):.3f}; "
           f"bias toggle: max |d h| {np.max(np.abs(sdiff)):.3f} <= {bound}, local={local}")


def test_criterion_5_gamma_sweep(sweep_records):
    clearances, min_hs, walls = [], [], []
    wall_obj = load_scenario(SCENARIO_DIR / "wall_sweep.json").objects[0]
    for gamma in GAMMAS:
        rec, elapsed = sweep_records[gamma]
        m = compute_metrics(rec)
        cl = min(
            point_box_distance(r.true_pose.x, r.true_pose.y, wall_obj.center, wall_obj.yaw,
                               wall_obj.half_extents[0], wall_obj.half_extents[1])
            for r in rec.rows
        )
        clearances.append(cl)
        min_hs.append(m.min_h)
        walls.append(elapsed)
    monotone = all(clearances[i + 1] <= clearances[i] + 1e-6 for i in range(len(clearances) - 1))
    all_safe = all(h >= 0.0 for h in min_hs)
    fast = all(w <= 30.0 for w in walls)
    report(monotone and all_safe and fast, "criterion 5 gamma sweep",
           f"clearances {[round(c, 3) for c in clearances]} non-increasing={monotone}; "
           f"min h {[round(h, 3) for h in min_hs]} all >= 0; runs <= {max(walls):.1f} s wall")


def test_criterion_6_semantic_gap(gap_records):
    sc = load_scenario(SCENARIO_DIR / "drawer_gap.json")
    dynamic_drawer = next(o for o in sc.objects if o.stationarity == 0)
    static_drawer = next(o for o in sc.objects if o.class_id == 2 and o.stationarity == 1)

    def approach(rec, obj):
        return min(
            point_box_distance(r.true_pose.x, r.true_pose.y, obj.center, obj.yaw,
                               obj.half_extents[0], obj.half_extents[1])
            for r in rec.rows
        )

    sem = gap_records[MODE_SEMANTIC]
    m_sem = compute_metrics(sem)
    margin = approach(sem, dynamic_drawer) - approach(sem, static_drawer)
    semantic_ok = m_sem.goal_reached and margin >= 0.1

    non = gap_records[MODE_NONSEMANTIC]
    gap_x = dynamic_drawer.center[0]
    offsets = [abs(r.true_pose.y) for r in non.rows
               if gap_x - 0.4 <= r.true_pose.x <= gap_x + 0.4]
    nonsemantic_ok = bool(offsets) and max(offsets) <= 0.15

    classic = gap_records[MODE_CLASSIC]
    classic_stuck = not compute_metrics(classic).goal_reached

    report(semantic_ok and nonsemantic_ok and classic_stuck, "criterion 6 semantic gap",
           f"semantic: reached={m_sem.goal_reached}, dynamic-vs-static margin {margin:.3f} m (>= 0.1); "
           f"nonsemantic centreline offset {max(offsets):.3f} m (<= 0.15); classic stuck={classic_stuck}")


def test_criterion_7_scene_change(shift_record):
    sc = load_scenario(SCENARIO_DIR / "drawer_shift.json")
    rec = shift_record
    m = compute_metrics(rec)
    event_t = sc.events[0].trigger_time
    dt = sc.controller.dt

    # removal fires when the displaced object's consistency crosses the threshold
    drawer_removals = [(t, oid) for t, oid in rec.removed_objects]
    assert drawer_removals, "no object was removed"
    removal_t, removed_id = drawer_removals[0]
    ticks_to_removal = (removal_t - event_t) / dt
    crossed_fast = 0 < ticks_to_removal <= 25

    respawns = [oid for t, oid in rec.spawned_objects if t > removal_t - 1e-9]
    assert respawns, "no object respawned after removal"
    new_id = respawns[0]
    first_ev = next(r.object_ev[new_id] for r in rec.rows if new_id in r.object_ev)
    respawn_ok = first_ev >= 0.8

    pre = np.array([[r.true_pose.x, r.true_pose.y] for r in rec.rows if r.t < event_t])
    post = np.array([[r.true_pose.x, r.true_pose.y] for r in rec.rows if r.t >= event_t])
    # deviation of the post-change path from the straight pre-change line (y ~ 0)
    deviation = float(np.max(np.abs(post[:, 1]))) - float(np.max(np.abs(pre[:, 1])))
    deviated = deviation >= 0.1

    safe = m.ticks_h_negative == 0
    report(crossed_fast and respawn_ok and deviated and m.goal_reached and safe,
           "criterion 7 scene change",
           f"removal {ticks_to_removal:.0f} ticks after the event (<= 25); respawn E[v] {first_ev:.2f} (>= 0.8); "
           f"path deviation {deviation:.3f} m (>= 0.1); goal={m.goal_reached}; h<0 ticks={m.ticks_h_negative}")


def test_criterion_8_controller_numerics(sweep_records, gap_records):
    # KKT residuals across real closed-loop ticks
    rows = []
    for gamma in GAMMAS:
        rows.extend(sweep_records[gamma][0].rows)
    rows.extend(gap_records[MODE_SEMANTIC].rows)
    ok_rows = [r for r in rows if r.plan.residuals and not r.degraded]
    assert len(ok_rows) >= 100, f"only {len(ok_rows)} solved ticks collected"
    worst_kkt = max(max(r.plan.residuals.values()) for r in ok_rows)
    kkt_ok = worst_kkt <= 1e-6

    # predicted trajectories satisfy the exact integrator dynamics
    sc = load_scenario(SCENARIO_DIR / "wall_sweep.json")
    defects = []
    orig = runner_mod.mpc_step

    def spy(params, x_t, prev, field_, goal, **kw):
        u, traj = orig(params, x_t, prev, field_, goal, **kw)
        if traj.status == "ok":
            for k in range(params.horizon):
                defects.append(
                    float(np.max(np.abs(traj.states[k + 1] - traj.states[k] - params.dt * traj.inputs[k])))
                )
        return u, traj

    runner_mod.mpc_step = spy
    try:
        run_closed_loop(replace(sc, duration=10.0))
    finally:
        runner_mod.mpc_step = orig
    dyn_ok = max(defects) <= 1e-9

    # random strictly convex QPs against the activity-pattern enumeration oracle
    rng = np.random.default_rng(1)
    worst_qp = 0.0
    for _ in range(25):
        n = 5
        m = rng.normal(size=(n, n))
        H = m @ m.T + n * np.eye(n)
        g = rng.normal(size=n) * rng.uniform(1, 10)
        lo, hi = -rng.uniform(0.1, 1.0, size=n), rng.uniform(0.1, 1.0, size=n)
        sol = solve_qp(box_qp(H, g, lo, hi))
        ref = enumerate_box_qp(H, g, lo, hi)
        worst_qp = max(worst_qp, float(np.max(np.abs(sol.x - ref))))
    qp_ok = worst_qp <= 1e-6

    report(kkt_ok and dyn_ok and qp_ok, "criterion 8 controller numerics",
           f"KKT <= {worst_kkt:.1e} over {len(ok_rows)} ticks (tol 1e-6); "
           f"dynamics defect <= {max(defects):.1e} (tol 1e-9); QP-vs-enumeration <= {worst_qp:.1e} (tol 1e-6)")


def test_criterion_9_gradient_fidelity(gap_records):
    # affine fields reproduce their coefficients
    from semnav.barrier import CbfField

    n = 64
    xs = (np.arange(n) + 0.5) * RES
    worst_affine = 0.0
    rng = np.random.default_rng(2)
    for _ in range(10):
        a, b = rng.uniform(-3, 3, size=2)
        vals = a * xs[:, None] + b * xs[None, :]
        field = CbfField(grid=Grid2D(origin=np.zeros(2), resolution=RES, values=vals), params=PARAMS)
        for _ in range(5):
            q = rng.uniform(0.5, 2.5, size=2)
            gx, gy = field.query_grad(*q)
            worst_affine = max(worst_affine, abs(gx - a), abs(gy - b))
    affine_ok = worst_affine <= 1e-9

    # built field: directional differences of the interpolant match the gradient
    field = gap_records[MODE_SEMANTIC].final_field
    worst_fd = 0.0
    checked = 0
    while checked < 50:
        x = rng.uniform(0.5, 5.9)
        y = rng.uniform(-2.9, 2.9)
        fx = (x - field.grid.origin[0]) / RES - 0.5
        fy = (y - field.grid.origin[1]) / RES - 0.5
        if not (0.3 < fx % 1.0 < 0.7 and 0.3 < fy % 1.0 < 0.7):
            continue
        gx, gy = field.query_grad(x, y)
        eps = 1e-4
        fdx = (field.query_h(x + eps, y) - field.query_h(x - eps, y)) / (2 * eps)
        fdy = (field.query_h(x, y + eps) - field.query_h(x, y - eps)) / (2 * eps)
        worst_fd = max(worst_fd, abs(gx - fdx), abs(gy - fdy))
        checked += 1
    fd_ok = worst_fd <= 1e-3

    report(affine_ok and fd_ok, "criterion 9 gradient fidelity",
           f"affine coefficient error {worst_affine:.1e} (tol 1e-9); "
           f"built-field FD mismatch {worst_fd:.1e} over {checked} interior points (tol 1e-3)")


def test_criterion_10_rate_budget(gap_records):
    m = compute_metrics(gap_records[MODE_SEMANTIC])
    report(m.mean_tick_time <= 0.2, "criterion 10 rate budget",
           f"mean full tick {m.mean_tick_time * 1e3:.0f} ms over {len(gap_records[MODE_SEMANTIC].rows)} ticks "
           f"(limit 200 ms, 128x128 field, horizon 10)")

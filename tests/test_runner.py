import numpy as np
import pytest
from dataclasses import replace

import semnav.mpc as mpc_mod
import semnav.runner as runner_mod
from semnav.barrier import project_2p5d
from semnav.consistency import ConsistencyParams
from semnav.mapping import fuse_global_tsdf
from semnav.mpc import hold_trajectory, mpc_step
from semnav.qp import solve_qp
from semnav.report import trajectory_csv_lines
from semnav.runner import Metrics, RunRecord, TickRow, compute_metrics, run_closed_loop
from semnav.scenario import MODE_CLASSIC, MODE_NONSEMANTIC, MODE_SEMANTIC, Scenario, load_scenario
from semnav.world import ControlInput, RobotState, WorldObject

from test_barrier import plain_edf_oracle
from test_mapping import assert_boundaries_equal, fuse_global_tsdf_oracle, oracle_boundary


def open_scenario(**kw):
    defaults = dict(
        name="open", workspace=(-1.0, -2.0, 4.0, 2.0), start=(0, 0, 0), goal=(2, 0, 0),
        objects=[], duration=20.0, seed=1,
    )
    defaults.update(kw)
    return Scenario(**defaults)


class TestClosedLoop:
    def test_empty_world_reaches_goal_at_cutoff(self):
        rec = run_closed_loop(open_scenario())
        m = compute_metrics(rec)
        assert m.goal_reached
        assert all(r.h == pytest.approx(1.8) for r in rec.rows)

    def test_straight_run_duration_within_kinematic_bounds(self):
        # 2 m at v_max = 0.5 with controller deceleration
        rec = run_closed_loop(open_scenario())
        m = compute_metrics(rec)
        assert m.goal_reached
        assert 4.0 <= m.time_to_goal <= 6.0

    def test_determinism_bitwise(self):
        sc = open_scenario(
            objects=[WorldObject(id=0, center=(2.5, 1.0), yaw=0.3, half_extents=(0.2, 0.3, 0.3),
                                 class_id=1, stationarity=1)],
            duration=6.0,
        )
        a, b = run_closed_loop(sc), run_closed_loop(sc)
        assert len(a.rows) == len(b.rows)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.true_pose == rb.true_pose
            assert ra.input == rb.input
            assert ra.h == rb.h
            assert ra.object_ev == rb.object_ev

    def test_mode_equivalence_with_pinned_labels(self, monkeypatch):
        # every object stays at its prior's E[v] = 1/3, so lambda_c * E[v] = 3.0 * (1/3) == 1.0 exactly
        monkeypatch.setattr(runner_mod, "update_consistency", lambda state, *args: (state, False))
        objs = [WorldObject(id=0, center=(2.0, -0.3), yaw=0.0, half_extents=(0.1, 1.3, 0.5),
                            class_id=1, stationarity=1)]
        consistency = ConsistencyParams(prior_static=(1.0, 2.0), removal_threshold=0.3)
        base = dict(name="eq", workspace=(-1, -2.5, 5, 3.5), start=(0, 1.5, 0), goal=(4, 1.5, 0),
                    objects=objs, duration=12.0, seed=7, consistency=consistency)
        semantic = Scenario(**base, mode=MODE_SEMANTIC)
        plain = Scenario(**base, mode=MODE_NONSEMANTIC)
        ra, rb = run_closed_loop(semantic), run_closed_loop(plain)
        pa = np.array([[r.true_pose.x, r.true_pose.y, r.true_pose.theta] for r in ra.rows])
        pb = np.array([[r.true_pose.x, r.true_pose.y, r.true_pose.theta] for r in rb.rows])
        np.testing.assert_allclose(pa, pb, atol=1e-9)

    def test_pose_noise_still_converges(self):
        sc = open_scenario(pose_noise_xy=0.01, pose_noise_theta=0.005, seed=3)
        rec = run_closed_loop(sc)
        assert compute_metrics(rec).goal_reached

    def test_field_snapshots_recorded(self, monkeypatch):
        libraries = []

        def fuse(library):
            libraries.append(library)
            return fuse_global_tsdf(library)

        monkeypatch.setattr(runner_mod, "fuse_global_tsdf", fuse)
        sc = open_scenario(snapshot_ticks=(0, 3), duration=2.0,
                           objects=[WorldObject(id=0, center=(2.5, 1.0), yaw=0.0,
                                                half_extents=(0.2, 0.3, 0.3), class_id=1, stationarity=1)])
        rec = run_closed_loop(sc)
        assert set(rec.field_snapshots) == {0, 3}
        assert rec.final_field is not None
        # the last fused block is the final library's, and lies inside its workspace grid
        library = libraries[-1]
        assert library.records and all(lib is library for lib in libraries)
        want = fuse_global_tsdf(library)
        g = rec.final_global
        assert g.origin.tobytes() == want.origin.tobytes() and g.dims == want.dims
        assert g.values.tobytes() == want.values.tobytes() and g.owner.tobytes() == want.owner.tobytes()
        res = library.params.resolution
        lo = np.round((g.origin - library.grid_origin) / res).astype(int)
        assert np.all(lo >= 0) and np.all(lo + g.dims <= library.grid_dims)
        assert 0 < g.dims[0] < library.grid_dims[0] and 0 < g.dims[1] < library.grid_dims[1]


def test_each_row_keeps_the_plan_mpc_step_returned(monkeypatch):
    # each row holds the very object mpc_step returned, the next tick linearizes
    # about it, and the CSV reads its status and slack; tick 2's solve is made to fail
    solves = []

    def solve(qp):
        solves.append(solve_qp(qp))
        return replace(solves[-1], status="max_iter") if len(solves) == 3 else solves[-1]

    calls = []

    def spy(*args, **kw):
        out = mpc_step(*args, **kw)
        calls.append((args[2], out[1]))
        return out

    monkeypatch.setattr(mpc_mod, "solve_qp", solve)
    monkeypatch.setattr(runner_mod, "mpc_step", spy)
    sc = open_scenario(objects=[WorldObject(id=0, center=(1.0, 0.6), yaw=0.0, half_extents=(0.2, 0.3, 0.3),
                                            class_id=1, stationarity=1)], duration=2.0)
    rec = run_closed_loop(sc)
    assert len(rec.rows) == len(calls) == 10
    assert calls[0][0].status == "hold" and np.array_equal(calls[0][0].states[0], sc.start)
    for k, (row, (prev, plan)) in enumerate(zip(rec.rows, calls)):
        assert row.plan is plan
        assert k == 0 or prev is calls[k - 1][1]
    assert [r.plan.status for r in rec.rows] == ["degraded" if k == 2 else "ok" for k in range(10)]
    assert [r.degraded for r in rec.rows] == [k == 2 for k in range(10)]
    assert compute_metrics(rec).degraded_ticks == 1
    assert compute_metrics(rec).max_slack == max(r.plan.max_slack for r in rec.rows)
    lines = trajectory_csv_lines(rec)
    assert len(lines) == 1 + len(rec.rows)
    for line, row in zip(lines[1:], rec.rows):
        assert line.split(",")[8:10] == [row.plan.status, repr(row.plan.max_slack)]


class TestMetrics:
    def _row(self, t, x, y, h=1.8, **kw):
        defaults = dict(
            t=t, true_pose=RobotState(x, y, 0.0), est_pose=RobotState(x, y, 0.0),
            input=ControlInput(0, 0, 0), h=h, object_ev={}, plan=hold_trajectory(np.array([x, y, 0.0]), 10),
            solve_time=0.01, collision=False, tick_time=0.02,
        )
        defaults.update(kw)
        return TickRow(**defaults)

    def test_stationary_run_has_zero_path_length(self):
        rec = RunRecord(scenario=open_scenario())
        rec.rows = [self._row(0.2 * k, 1.0, 1.0) for k in range(5)]
        rec.final_pose = RobotState(1.0, 1.0, 0.0)
        assert compute_metrics(rec).path_length == 0.0

    def test_min_h_matches_brute_force(self):
        rec = RunRecord(scenario=open_scenario())
        hs = [1.8, 0.4, -0.1, 0.9]
        rec.rows = [self._row(0.2 * k, 0.1 * k, 0.0, h=h) for k, h in enumerate(hs)]
        rec.final_pose = RobotState(0.4, 0.0, 0.0)
        m = compute_metrics(rec)
        assert m.min_h == min(hs)
        assert m.ticks_h_negative == sum(1 for h in hs if h < 0)

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics(RunRecord(scenario=open_scenario()))

    def test_ev_extrema_per_object(self):
        rec = RunRecord(scenario=open_scenario())
        rec.rows = [
            self._row(0.0, 0, 0, object_ev={0: 0.9, 1: 0.6}),
            self._row(0.2, 0, 0, object_ev={0: 0.95, 1: 0.5}),
        ]
        rec.final_pose = RobotState(0, 0, 0)
        m = compute_metrics(rec)
        assert m.object_ev_min == {0: 0.9, 1: 0.5}
        assert m.object_ev_max == {0: 0.95, 1: 0.6}


def test_remove_event_stops_observations():
    from semnav.world import SceneEvent

    sc = open_scenario(
        objects=[WorldObject(id=0, center=(2.5, 1.2), yaw=0.0, half_extents=(0.2, 0.3, 0.3),
                             class_id=1, stationarity=1)],
        events=[SceneEvent(trigger_time=1.0, object_id=0, action="remove")],
        duration=6.0,
    )
    rec = run_closed_loop(sc)
    assert compute_metrics(rec).goal_reached
    # the record stays mapped (no matched evidence arrives once the box is gone),
    # a conservative ghost, but its consistency never grows after the event
    evs = [r.object_ev.get(0) for r in rec.rows if r.t >= 1.0 and 0 in r.object_ev]
    assert evs and max(evs) == min(evs)


def test_goal_at_start_terminates_immediately():
    # the loader rejects such a goal; one moved onto the start after loading
    # still ends the run before its first tick
    sc = open_scenario(duration=5.0)
    sc.goal = sc.start
    rec = run_closed_loop(sc)
    assert rec.goal_reached and rec.goal_time == 0.0
    assert rec.rows == []


def test_goal_reached_on_the_final_state():
    # the run reaches the goal at the start of tick K; with duration (K - 0.5) dt
    # there are exactly K ticks, and the goal is tested at the state after the last
    sc = open_scenario(duration=40.0)
    rec = run_closed_loop(sc)
    assert rec.goal_reached
    K = len(rec.rows)
    dt = sc.controller.dt
    rec = run_closed_loop(replace(sc, duration=(K - 0.5) * dt))
    assert rec.goal_reached and rec.goal_time == K * dt
    assert len(rec.rows) == K
    rec = run_closed_loop(replace(sc, duration=(K - 1.5) * dt))
    assert not rec.goal_reached and rec.goal_time is None
    assert len(rec.rows) == K - 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed, gamma", [(311256609, 0.03), (400206112, 0.01)])
def test_wall_sweep_solves_every_tick(scenario_dir, seed, gamma):
    # scenario seeds on which a solver that stepped x and z by different
    # lengths stalled just above the acceptance residual and degraded a tick
    sc = load_scenario(scenario_dir / "wall_sweep.json")
    sc = replace(sc, seed=seed, controller=replace(sc.controller, gamma_bar=gamma))
    rec = run_closed_loop(sc)
    assert rec.goal_reached
    assert [i for i, r in enumerate(rec.rows) if r.degraded] == []
    assert max(max(r.plan.residuals.values()) for r in rec.rows) <= 1e-6


def test_distance_cache_matches_fresh_field_every_tick(scenario_dir, monkeypatch):
    # drawer_shift teleports a drawer: its mapped object is removed and new
    # objects spawn, so live cell sets change while others repeat
    real = runner_mod.build_semantic_edf
    reused = []

    def checked(boundary, params, grid_spec, cache=None):
        before = set(cache)
        edf = real(boundary, params, grid_spec, cache=cache)
        fresh = real(boundary, params, grid_spec)
        assert edf.values.tobytes() == fresh.values.tobytes()
        reused.append(len(before & set(cache)))
        return edf

    monkeypatch.setattr(runner_mod, "build_semantic_edf", checked)
    rec = run_closed_loop(load_scenario(scenario_dir / "drawer_shift.json"))
    assert len(reused) == len(rec.rows) and sum(reused) > 0
    assert rec.removed_objects and [t for t, _ in rec.spawned_objects if t > 0.0]


@pytest.mark.parametrize("mode", [MODE_NONSEMANTIC, MODE_CLASSIC])
def test_plain_field_matches_threshold_oracle_every_tick(scenario_dir, monkeypatch, mode):
    # the runner's field is one transform of every zero-level cell of the full-grid
    # oracle's projection, and the run's cache changes no bit
    real = runner_mod.build_plain_edf
    libraries, reused = [], []

    def fuse(library):
        libraries.append(library)
        return fuse_global_tsdf(library)

    def checked(boundary, params, grid_spec, cache=None):
        before = set(cache)
        edf = real(boundary, params, grid_spec, cache=cache)
        fresh = real(boundary, params, grid_spec)
        m25, _ = project_2p5d(fuse_global_tsdf_oracle(libraries[-1]), params.theta_z)
        oracle = plain_edf_oracle(m25, params.theta_zero, params)
        assert edf.origin.tobytes() == oracle.origin.tobytes()
        assert edf.values.tobytes() == fresh.values.tobytes() == oracle.values.tobytes()
        reused.append(len(before & set(cache)))
        return edf

    monkeypatch.setattr(runner_mod, "fuse_global_tsdf", fuse)
    monkeypatch.setattr(runner_mod, "build_plain_edf", checked)
    rec = run_closed_loop(replace(load_scenario(scenario_dir / "drawer_gap.json"), mode=mode))
    assert len(reused) == len(libraries) == len(rec.rows) and sum(reused) > 0


@pytest.mark.parametrize("name, mode", [("drawer_shift.json", MODE_SEMANTIC), ("drawer_gap.json", MODE_NONSEMANTIC)])
def test_boundary_keeps_every_zero_level_cell(scenario_dir, monkeypatch, name, mode):
    # a fused voxel with no owner holds the truncation value, above theta_zero, so every
    # zero-level cell has a live owner, also while drawer_shift removes and respawns objects
    real = runner_mod.extract_labeled_boundary
    counts = []

    def spy(m25, owner, theta_zero, library):
        boundary = real(m25, owner, theta_zero, library)
        counts.append((len(boundary), int(np.count_nonzero(m25.values <= theta_zero))))
        return boundary

    monkeypatch.setattr(runner_mod, "extract_labeled_boundary", spy)
    rec = run_closed_loop(replace(load_scenario(scenario_dir / name), mode=mode))
    assert len(counts) == len(rec.rows) and sum(n for n, _ in counts) > 0
    assert all(n == zero_level for n, zero_level in counts)


def checked_boundary(monkeypatch, ticks):
    """Wrap the runner's block boundary so every tick compares it with the full-grid oracle's."""
    real = runner_mod._block_boundary

    def checked(library, cbf):
        global_map, boundary = real(library, cbf)
        want, ref, ref_owner = oracle_boundary(library, cbf)
        assert library.grid_spec.origin.tobytes() == ref.origin.tobytes() and library.grid_spec.dims == ref.dims
        assert_boundaries_equal(boundary, want)
        unobserved = bool(np.all(ref.values == library.params.truncation) and np.all(ref_owner == -1))
        ticks.append((global_map.dims, library.grid_dims, unobserved, len(boundary)))
        return global_map, boundary

    monkeypatch.setattr(runner_mod, "_block_boundary", checked)


@pytest.mark.parametrize("name, seed", [("drawer_shift.json", None), ("wall_sweep.json", 311256609)])
def test_block_projection_matches_full_grid_oracle_every_tick(scenario_dir, monkeypatch, name, seed):
    # drawer_shift teleports a drawer, removes its mapped object and spawns
    # new ones; wall_sweep maps one object that covers a small block
    sc = load_scenario(scenario_dir / name)
    if seed is not None:
        sc = replace(sc, seed=seed)
    ticks = []
    checked_boundary(monkeypatch, ticks)
    rec = run_closed_loop(sc)
    assert len(ticks) == len(rec.rows)
    # some ticks fuse a block smaller than the workspace, and extract boundary cells from it
    assert any(b[0] * b[1] < g[0] * g[1] and n > 0 for b, g, _, n in ticks)


def test_open_goal_projects_an_unobserved_workspace(scenario_dir, monkeypatch):
    # no objects: every tick fuses a zero-extent block, the oracle projects an
    # unobserved workspace, and neither has a boundary cell
    ticks = []
    checked_boundary(monkeypatch, ticks)
    rec = run_closed_loop(load_scenario(scenario_dir / "open_goal.json"))
    assert len(ticks) == len(rec.rows) > 0
    assert all(b == (0, 0, g[2]) and unobserved and n == 0 for b, g, unobserved, n in ticks)


@pytest.mark.parametrize("noise", [(0.0, 0.0), (0.01, 0.0), (0.0, 0.005), (0.01, 0.005)])
def test_cloud_is_remapped_exactly_when_the_pose_is_noisy(monkeypatch, noise):
    # the scenario's sigmas decide; a noisy estimate differs from the true pose on every tick
    real = runner_mod._remap_cloud
    calls = []

    def spy(cloud, true_pose, est_pose):
        calls.append(est_pose != true_pose)
        return real(cloud, true_pose, est_pose)

    monkeypatch.setattr(runner_mod, "_remap_cloud", spy)
    sc = open_scenario(pose_noise_xy=noise[0], pose_noise_theta=noise[1], seed=3, duration=2.0,
                       objects=[WorldObject(id=0, center=(1.5, 0.8), yaw=0.0, half_extents=(0.2, 0.3, 0.3),
                                            class_id=1, stationarity=1)])
    rec = run_closed_loop(sc)
    assert len(rec.rows) == 10
    assert calls == ([True] * len(rec.rows) if any(noise) else [])
    assert all((r.est_pose == r.true_pose) != any(noise) for r in rec.rows)


@pytest.mark.parametrize("mode", [MODE_SEMANTIC, MODE_NONSEMANTIC, MODE_CLASSIC])
def test_mode_picks_the_builder_and_the_controller(scenario_dir, monkeypatch, mode):
    # only classic_mpc hands mpc_step classic=True, only semantic_mpc_cbf builds the semantic field
    calls = []

    def spy(name, real):
        def wrapper(*args, **kw):
            calls.append((name, kw.get("classic", False)))
            return real(*args, **kw)
        return wrapper

    for name in ("mpc_step", "build_semantic_edf", "build_plain_edf"):
        monkeypatch.setattr(runner_mod, name, spy(name, getattr(runner_mod, name)))
    rec = run_closed_loop(replace(load_scenario(scenario_dir / "drawer_gap.json"), mode=mode, duration=0.4))
    builder = "build_semantic_edf" if mode == MODE_SEMANTIC else "build_plain_edf"
    assert len(rec.rows) == 2
    assert calls == [(builder, False), ("mpc_step", mode == MODE_CLASSIC)] * 2

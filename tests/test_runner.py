import numpy as np
import pytest
from dataclasses import replace

import semnav.runner as runner_mod
from semnav.barrier import project_2p5d
from semnav.mapping import fuse_global_tsdf
from semnav.runner import Metrics, RunRecord, TickRow, compute_metrics, run_closed_loop
from semnav.scenario import MODE_NONSEMANTIC, MODE_SEMANTIC, Scenario, load_scenario
from semnav.world import ControlInput, RobotState, WorldObject

from test_mapping import fuse_global_tsdf_oracle


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

    def test_mode_equivalence_with_pinned_labels(self):
        objs = [WorldObject(id=0, center=(2.0, -0.3), yaw=0.0, half_extents=(0.1, 1.3, 0.5),
                            class_id=1, stationarity=1)]
        base = dict(name="eq", workspace=(-1, -2.5, 5, 3.5), start=(0, 1.5, 0), goal=(4, 1.5, 0),
                    objects=objs, duration=12.0, seed=7)
        semantic = Scenario(**base, mode=MODE_SEMANTIC, consistency_override=1.0 / 3.0)
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


class TestMetrics:
    def _row(self, t, x, y, h=1.8, **kw):
        defaults = dict(
            t=t, true_pose=RobotState(x, y, 0.0), est_pose=RobotState(x, y, 0.0),
            input=ControlInput(0, 0, 0), h=h, object_ev={}, solver_status="ok",
            max_slack=0.0, objective=0.0, predicted_h=(), solve_time=0.01, iterations=5,
            residuals={}, collision=False, degraded=False, tick_time=0.02,
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
    assert max(max(r.residuals.values()) for r in rec.rows) <= 1e-6


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


def checked_projection(monkeypatch, ticks):
    """Wrap the runner's fused projection so every tick compares it with the full-grid oracle's."""
    real = runner_mod._workspace_projection

    def checked(library, theta_z):
        global_map, m25, owner = real(library, theta_z)
        ref, ref_owner = project_2p5d(fuse_global_tsdf_oracle(library), theta_z)
        assert m25.origin.tobytes() == ref.origin.tobytes()
        assert m25.values.dtype == ref.values.dtype and m25.values.shape == ref.values.shape
        assert m25.values.tobytes() == ref.values.tobytes()
        assert owner.dtype == ref_owner.dtype and owner.tobytes() == ref_owner.tobytes()
        unobserved = bool(np.all(m25.values == library.params.truncation) and np.all(owner == -1))
        ticks.append((global_map.dims, library.grid_dims, unobserved))
        return global_map, m25, owner

    monkeypatch.setattr(runner_mod, "_workspace_projection", checked)


@pytest.mark.parametrize("name, seed", [("drawer_shift.json", None), ("wall_sweep.json", 311256609)])
def test_block_projection_matches_full_grid_oracle_every_tick(scenario_dir, monkeypatch, name, seed):
    # drawer_shift teleports a drawer, removes its mapped object and spawns
    # new ones; wall_sweep maps one object that covers a small block
    sc = load_scenario(scenario_dir / name)
    if seed is not None:
        sc = replace(sc, seed=seed)
    ticks = []
    checked_projection(monkeypatch, ticks)
    rec = run_closed_loop(sc)
    assert len(ticks) == len(rec.rows)
    # some ticks fuse a block smaller than the workspace
    assert any(b[0] * b[1] < g[0] * g[1] for b, g, _ in ticks)


def test_open_goal_projects_an_unobserved_workspace(scenario_dir, monkeypatch):
    # no objects: every tick fuses a zero-extent block and pads it to all truncation, no owner
    ticks = []
    checked_projection(monkeypatch, ticks)
    rec = run_closed_loop(load_scenario(scenario_dir / "open_goal.json"))
    assert len(ticks) == len(rec.rows) > 0
    assert all(b == (0, 0, g[2]) and unobserved for b, g, unobserved in ticks)

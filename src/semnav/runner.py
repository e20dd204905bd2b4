"""Closed-loop driver: sense, map, filter, rebuild the barrier, control, act.

One scenario instance owns all mutable state (world, object library,
controller trajectory, RNG), so independent runs can execute concurrently.
Fixed seed implies a bit-identical run record.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import scenario as sc
from .barrier import (
    CbfField,
    build_cbf_field,
    build_plain_edf,
    build_semantic_edf,
    extract_labeled_boundary,
    project_2p5d,
)
from .consistency import compute_delta, update_consistency
from .geometry import point_box_distance, rot2d
from .grids import Grid2D
from .mapping import (
    GlobalTsdf,
    ObjectLibrary,
    associate_observations,
    fuse_global_tsdf,
    integrate_observation,
    remove_object,
    segment_observations,
    spawn_object,
)
from .mpc import MODE_CBF, MODE_CLASSIC, hold_trajectory, mpc_step
from .world import (
    ControlInput,
    RobotState,
    SemanticPointCloud,
    apply_scene_events,
    estimate_pose,
    render_depth,
    step_dynamics,
)


@dataclass
class TickRow:
    t: float
    true_pose: RobotState
    est_pose: RobotState
    input: ControlInput
    h: float
    object_ev: dict[int, float]
    solver_status: str
    max_slack: float
    objective: float
    predicted_h: tuple
    solve_time: float
    iterations: int
    residuals: dict
    collision: bool
    degraded: bool
    tick_time: float


@dataclass
class RunRecord:
    scenario: sc.Scenario
    rows: list[TickRow] = field(default_factory=list)
    goal_reached: bool = False
    goal_time: float | None = None
    final_pose: RobotState | None = None
    field_snapshots: dict[int, CbfField] = field(default_factory=dict)
    final_field: CbfField | None = None
    final_global: GlobalTsdf | None = None  # last fused map, for the debug export
    removed_objects: list[tuple[float, int]] = field(default_factory=list)
    spawned_objects: list[tuple[float, int]] = field(default_factory=list)


@dataclass
class Metrics:
    goal_reached: bool
    time_to_goal: float | None
    path_length: float
    min_h: float
    ticks_h_negative: int
    degraded_ticks: int
    collision_ticks: int
    mean_solve_time: float
    mean_tick_time: float
    max_slack: float
    object_ev_min: dict[int, float]
    object_ev_max: dict[int, float]


def _remap_cloud(cloud: SemanticPointCloud, true_pose: RobotState, est_pose: RobotState) -> SemanticPointCloud:
    """Re-express world points as the mapper believes them under the estimated pose."""
    r_true = rot2d(true_pose.theta)
    r_est = rot2d(est_pose.theta)
    rel = (cloud.points[:, :2] - np.array([true_pose.x, true_pose.y])) @ r_true
    xy = rel @ r_est.T + np.array([est_pose.x, est_pose.y])
    pts = cloud.points.copy()
    pts[:, :2] = xy
    return replace(cloud, points=pts)


def _workspace_projection(library: ObjectLibrary, theta_z: float):
    """Fused block, and its 2.5D projection and owners padded to the workspace grid as unobserved columns."""
    global_map = fuse_global_tsdf(library)
    block, block_owner = project_2p5d(global_map, theta_z)
    m25 = Grid2D.full(library.grid_origin[:2], block.resolution, library.grid_dims[:2], library.params.truncation)
    owner = np.full(m25.dims, -1, dtype=np.int32)
    i, j = np.round((block.origin - m25.origin) / block.resolution).astype(int)
    sl = np.s_[i : i + block.dims[0], j : j + block.dims[1]]
    m25.values[sl], owner[sl] = block.values, block_owner
    return global_map, m25, owner


def _build_field(scenario: sc.Scenario, library: ObjectLibrary, edf_cache: dict):
    global_map, m25, owner = _workspace_projection(library, scenario.cbf.theta_z)
    if scenario.mode == sc.MODE_SEMANTIC:
        boundary = extract_labeled_boundary(
            m25, owner, scenario.cbf.theta_zero, library, scenario.consistency_override
        )
        edf = build_semantic_edf(boundary, scenario.cbf, m25, cache=edf_cache)
    else:
        edf = build_plain_edf(m25, scenario.cbf.theta_zero, scenario.cbf)
    return build_cbf_field(edf, scenario.cbf), global_map


def _in_collision(pose: RobotState, world) -> bool:
    return any(
        point_box_distance(pose.x, pose.y, o.center, o.yaw, o.half_extents[0], o.half_extents[1]) == 0.0
        for o in world
    )


def run_closed_loop(scenario: sc.Scenario) -> RunRecord:
    """Drive the full pipeline at the control rate until the goal or timeout."""
    record = RunRecord(scenario=scenario)
    world = list(scenario.objects)
    applied_events: set[int] = set()
    library = ObjectLibrary(
        params=scenario.map_params,
        consistency_params=scenario.consistency,
        workspace=scenario.workspace,
        height=scenario.cbf.theta_z,
    )
    edf_cache: dict = {}  # per-object distance transforms, carried across this run's ticks
    ctrl = scenario.controller
    mode = MODE_CLASSIC if scenario.mode == sc.MODE_CLASSIC else MODE_CBF
    gate = 1.5 * scenario.consistency.sigma_m  # discrepancy gate for map integration

    rng = np.random.default_rng(scenario.seed)
    state = RobotState(*scenario.start)
    goal = np.array(scenario.goal)
    prev_traj = hold_trajectory(state.as_array(), ctrl.horizon)
    n_ticks = int(math.ceil(scenario.duration / ctrl.dt))

    for tick in range(n_ticks + 1):  # the pass after the last tick tests the goal at the final state
        t_now = tick * ctrl.dt
        tick_start = time.perf_counter()

        if math.hypot(state.x - goal[0], state.y - goal[1]) <= scenario.goal_tolerance:
            record.goal_reached = True
            record.goal_time = t_now
            break
        if tick == n_ticks:
            break

        world = apply_scene_events(world, scenario.events, applied_events, t_now)
        render_seed = int(rng.integers(2**31))
        pose_seed = int(rng.integers(2**31))

        cloud = render_depth(world, state, scenario.camera, render_seed)
        est = estimate_pose(state, (scenario.pose_noise_xy, scenario.pose_noise_theta), pose_seed)
        if est is not state:  # estimate_pose returns the true pose itself when noise-free
            cloud = _remap_cloud(cloud, state, est)
        sensor_origin = (est.x, est.y, scenario.camera.mount_height)

        observations = segment_observations(cloud)
        matches, unmatched_obs = associate_observations(observations, library)

        for obs_idx, obj_id in matches:
            rec = library.records[obj_id]
            ob = observations[obs_idx]
            delta = compute_delta(rec, ob)
            if delta is not None:
                rec.consistency, _ = update_consistency(
                    rec.consistency, delta, scenario.consistency, rec.stationarity
                )
            # a large discrepancy means the stored model is suspect: freeze it so
            # repeated evidence can drive removal instead of being averaged away
            if delta is None or abs(delta) <= gate:
                integrate_observation(rec, ob, sensor_origin, library.params)

        for obs_idx in unmatched_obs:
            if len(observations[obs_idx]) > 0:
                rec = spawn_object(observations[obs_idx], library, sensor_origin)
                record.spawned_objects.append((t_now, rec.id))

        for rec in library.objects():
            if rec.consistency.mean_consistency < scenario.consistency.removal_threshold:
                remove_object(library, rec.id)
                record.removed_objects.append((t_now, rec.id))

        cbf_field, global_map = _build_field(scenario, library, edf_cache)
        if tick in scenario.snapshot_ticks:
            record.field_snapshots[tick] = cbf_field
        record.final_field = cbf_field
        record.final_global = global_map

        solve_start = time.perf_counter()
        u, prev_traj = mpc_step(
            ctrl, est.as_array(), prev_traj, cbf_field, goal, mode=mode, workspace=scenario.workspace
        )
        solve_time = time.perf_counter() - solve_start

        h_true = cbf_field.query_h(state.x, state.y)
        record.rows.append(
            TickRow(
                t=t_now,
                true_pose=state,
                est_pose=est,
                input=u,
                h=h_true,
                object_ev={r.id: r.consistency.mean_consistency for r in library.objects()},
                solver_status=prev_traj.status,
                max_slack=prev_traj.max_slack,
                objective=prev_traj.objective,
                predicted_h=tuple(float(v) for v in prev_traj.h_values),
                solve_time=solve_time,
                iterations=prev_traj.iterations,
                residuals=dict(prev_traj.residuals),
                collision=_in_collision(state, world),
                degraded=prev_traj.status == "degraded",
                tick_time=time.perf_counter() - tick_start,
            )
        )

        state = step_dynamics(state, u, ctrl.dt)

    record.final_pose = state
    return record


def compute_metrics(record: RunRecord) -> Metrics:
    if not record.rows:
        raise ValueError("cannot compute metrics for an empty record")
    positions = [r.true_pose.position() for r in record.rows]
    if record.final_pose is not None:
        positions.append(record.final_pose.position())
    path_length = float(sum(np.linalg.norm(b - a) for a, b in zip(positions, positions[1:])))

    ev_min: dict[int, float] = {}
    ev_max: dict[int, float] = {}
    for row in record.rows:
        for oid, ev in row.object_ev.items():
            ev_min[oid] = min(ev_min.get(oid, 1.0), ev)
            ev_max[oid] = max(ev_max.get(oid, 0.0), ev)

    return Metrics(
        goal_reached=record.goal_reached,
        time_to_goal=record.goal_time,
        path_length=path_length,
        min_h=min(r.h for r in record.rows),
        ticks_h_negative=sum(1 for r in record.rows if r.h < 0.0),
        degraded_ticks=sum(1 for r in record.rows if r.degraded),
        collision_ticks=sum(1 for r in record.rows if r.collision),
        mean_solve_time=float(np.mean([r.solve_time for r in record.rows])),
        mean_tick_time=float(np.mean([r.tick_time for r in record.rows])),
        max_slack=max(r.max_slack for r in record.rows),
        object_ev_min=ev_min,
        object_ev_max=ev_max,
    )

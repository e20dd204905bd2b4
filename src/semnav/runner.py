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
from .mapping import (
    ObjectLibrary,
    associate_observations,
    fuse_global_tsdf,
    integrate_observation,
    remove_object,
    segment_observations,
    spawn_object,
)
from .mpc import PredictedTrajectory, hold_trajectory, mpc_step
from .world import (
    ControlInput,
    RobotState,
    SemanticPointCloud,
    WorldObject,
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
    plan: PredictedTrajectory  # what mpc_step returned this tick: status, prediction, slack, h, solve diagnostics
    solve_time: float
    collision: bool
    tick_time: float

    @property
    def degraded(self) -> bool:
        return self.plan.status == "degraded"


@dataclass
class RunRecord:
    scenario: sc.Scenario
    rows: list[TickRow] = field(default_factory=list)
    goal_reached: bool = False
    goal_time: float | None = None
    final_pose: RobotState | None = None
    field_snapshots: dict[int, CbfField] = field(default_factory=dict)
    final_field: CbfField | None = None
    final_library: ObjectLibrary | None = None  # the object maps as the run left them, for the debug export
    final_world: list[WorldObject] = field(default_factory=list)  # the scene as the last tick left it
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


def _block_boundary(library: ObjectLibrary, cbf: sc.CbfParams):
    """The fused block's projection's labelled boundary, with cells on the workspace lattice."""
    block, owner = project_2p5d(fuse_global_tsdf(library), cbf.theta_z)
    boundary = extract_labeled_boundary(block, owner, cbf.theta_zero, library)
    boundary.cells += np.round((block.origin - library.grid_spec.origin) / block.resolution).astype(int)
    return boundary


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
    edf_cache: dict = {}  # per-piece distance transforms, carried across this run's ticks
    ctrl = scenario.controller
    gate = 1.5 * scenario.consistency.sigma_m  # discrepancy gate for map integration
    classic = scenario.mode == sc.MODE_CLASSIC
    build_edf = build_semantic_edf if scenario.mode == sc.MODE_SEMANTIC else build_plain_edf

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
        if scenario.pose_noise_xy > 0.0 or scenario.pose_noise_theta > 0.0:
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
            rec = spawn_object(observations[obs_idx], library, sensor_origin)
            record.spawned_objects.append((t_now, rec.id))

        for rec in library.objects():
            if rec.consistency.mean_consistency < scenario.consistency.removal_threshold:
                remove_object(library, rec.id)
                record.removed_objects.append((t_now, rec.id))

        boundary = _block_boundary(library, scenario.cbf)
        edf = build_edf(boundary, scenario.cbf, library.grid_spec, cache=edf_cache)
        cbf_field = build_cbf_field(edf, scenario.cbf)
        if tick in scenario.snapshot_ticks:
            record.field_snapshots[tick] = cbf_field
        record.final_field = cbf_field

        solve_start = time.perf_counter()
        u, prev_traj = mpc_step(
            ctrl, est.as_array(), prev_traj, cbf_field, goal, classic=classic, workspace=scenario.workspace
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
                plan=prev_traj,
                solve_time=solve_time,
                collision=_in_collision(state, world),
                tick_time=time.perf_counter() - tick_start,
            )
        )

        state = step_dynamics(state, u, ctrl.dt)

    record.final_pose = state
    record.final_world = world
    record.final_library = library
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
        max_slack=max(r.plan.max_slack for r in record.rows),
        object_ev_min=ev_min,
        object_ev_max=ev_max,
    )

"""Scenario schema: world layout, scripted events, tuning, and JSON round-trip.

Scenarios are plain JSON with full defaulting; unknown keys are rejected with
the offending field path so typos fail loudly rather than silently running
with defaults. The tables below write each key once for reading and writing;
range rules live in the dataclass that owns the value. The barrier and
controller sections live here, so this loader and its imports never load
SciPy: `semnav validate` and `import semnav` pay only for NumPy.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field as dc_field, fields
from pathlib import Path

import numpy as np

from .consistency import ConsistencyParams
from .mapping import MapParams
from .world import DepthCamera, SceneEvent, WorldObject, apply_scene_events

MODE_SEMANTIC = "semantic_mpc_cbf"
MODE_NONSEMANTIC = "nonsemantic_mpc_cbf"
MODE_CLASSIC = "classic_mpc"
MODES = (MODE_SEMANTIC, MODE_NONSEMANTIC, MODE_CLASSIC)


# A run's dense grids are float64: 2**22 voxels is 32 MiB an array, and a run holds a few (one distance grid per
# boundary piece; the export writes the fused block whole once), well under a gigabyte. Maps store only observed
# voxels, but an object grid's extent grows with truncation / resolution, as does the band each ray stamps.
# The largest shipped grid, drawer_gap's 128 x 128 x 20 workspace grid, is nearly 13 times smaller.
MAX_GRID_VOXELS = 2**22


class ScenarioError(ValueError):
    """Scenario file violates the schema; message carries the field path."""


@dataclass(frozen=True)
class CbfParams:
    theta_z: float = 1.0  # height window for the 2.5D projection (m)
    theta_zero: float = 0.15  # zero-level threshold (m)
    theta_cutoff: float = 1.8  # barrier cutoff (m)
    bias: float = 0.75  # robot-size buffer subtracted from distances (m)
    lambda_c: float = 3.0  # consistency slope factor
    lambda_s: float = 2.0  # stationarity bias factor, > 1

    def __post_init__(self):
        vals = (self.theta_z, self.theta_zero, self.theta_cutoff, self.bias, self.lambda_c, self.lambda_s)
        if min(vals) <= 0.0:
            raise ValueError("all barrier parameters must be positive")
        if self.lambda_s <= 1.0:
            raise ValueError("lambda_s must exceed 1")

    def bias_for(self, stationarity: int) -> float:
        return (self.lambda_s * (1 - stationarity) + stationarity) * self.bias


@dataclass(frozen=True)
class ControllerParams:
    horizon: int = 10
    dt: float = 0.2
    gamma_bar: float = 0.03  # barrier decay rate, in (0, 1]
    q_diag: tuple[float, float, float] = (1.0, 1.0, 0.1)
    r_diag: tuple[float, float, float] = (0.1, 0.1, 0.1)
    p_diag: tuple[float, float, float] = (10.0, 10.0, 1.0)
    v_max: float = 0.5
    omega_max: float = 1.0
    rho_slack: float = 1.0e4
    classic_epsilon: float = 1.0e-3

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        for name in ("dt", "v_max", "omega_max", "rho_slack"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.gamma_bar <= 1.0:
            raise ValueError("gamma_bar must lie in (0, 1]")
        if min(self.r_diag) <= 0.0 or min(self.q_diag) < 0.0 or min(self.p_diag) < 0.0:
            raise ValueError("R must be positive definite, Q and P positive semidefinite")
        if self.classic_epsilon < 0.0:  # a negative margin lets classic mode's hard rows admit h < 0
            raise ValueError("classic_epsilon must be >= 0")

    @property
    def input_bounds(self) -> np.ndarray:
        return np.array([self.v_max, self.v_max, self.omega_max])


@dataclass
class Scenario:
    name: str
    workspace: tuple[float, float, float, float]  # xmin, ymin, xmax, ymax
    start: tuple[float, float, float]
    goal: tuple[float, float, float]
    objects: list[WorldObject]
    events: list[SceneEvent] = dc_field(default_factory=list)
    mode: str = MODE_SEMANTIC
    duration: float = 30.0
    seed: int = 0
    goal_tolerance: float = 0.1
    pose_noise_xy: float = 0.0
    pose_noise_theta: float = 0.0
    camera: DepthCamera = dc_field(default_factory=DepthCamera)
    map_params: MapParams = dc_field(default_factory=MapParams)
    cbf: CbfParams = dc_field(default_factory=CbfParams)
    controller: ControllerParams = dc_field(default_factory=ControllerParams)
    consistency: ConsistencyParams = dc_field(default_factory=ConsistencyParams)
    snapshot_ticks: tuple[int, ...] = ()

    def __post_init__(self):
        if self.mode not in MODES:
            raise ScenarioError(f"mode: must be one of {MODES}, got {self.mode!r}")
        xmin, ymin, xmax, ymax = self.workspace
        if xmin >= xmax or ymin >= ymax:
            raise ScenarioError("workspace: min bound must be below max bound")
        for label, pose in (("start", self.start), ("goal", self.goal)):
            if not (xmin <= pose[0] <= xmax and ymin <= pose[1] <= ymax):
                raise ScenarioError(f"robot.{label}: pose lies outside the workspace")
        ids = [o.id for o in self.objects]
        if len(ids) != len(set(ids)):
            raise ScenarioError("objects: duplicate object ids")
        for i, ev in enumerate(self.events):
            if ev.object_id not in ids:
                raise ScenarioError(f"events[{i}].object_id: no object has id {ev.object_id}")
        if self.duration <= 0.0:
            raise ScenarioError("duration: must be positive")
        # replay the events as the runner does, at ticks k * dt for k < duration / dt;
        # the neighbours of ceil(time / dt) absorb its rounding, no other tick applies one
        dt, world, applied = self.controller.dt, list(self.objects), set()
        steps = [ev.trigger_time / dt for ev in self.events]
        ticks = {math.ceil(q) + j for q in steps if q < math.inf for j in (-1, 0, 1)}
        for k in sorted(k for k in ticks if 0 <= k < self.duration / dt):
            try:
                world = apply_scene_events(world, self.events, applied, k * dt)
            except ValueError as exc:
                raise ScenarioError(str(exc)) from exc
        if self.cbf.theta_z < 0.5 * self.map_params.resolution:  # project_2p5d's lowest layer centre
            raise ScenarioError("cbf.theta_z: must be at least half of map.resolution")
        if self.seed < 0:
            raise ScenarioError("seed: must be >= 0")
        if not all(0 <= k < self.duration / dt for k in self.snapshot_ticks):  # ticks k of the run, as above
            raise ScenarioError("snapshot_ticks: every tick must be >= 0 and below duration / controller.dt")
        for key, v in (("goal_tolerance", self.goal_tolerance), ("pose_noise.sigma_xy", self.pose_noise_xy),
                       ("pose_noise.sigma_theta", self.pose_noise_theta)):
            if v < 0.0:
                raise ScenarioError(f"{key}: must be >= 0")
        if math.hypot(self.start[0] - self.goal[0], self.start[1] - self.goal[1]) <= self.goal_tolerance:
            raise ScenarioError("robot.goal: lies within goal_tolerance of robot.start, so the run has no tick")
        res = self.map_params.resolution  # products of floats: a tiny resolution gives inf, where ** would raise
        workspace_voxels = math.prod(s / res + 1.0 for s in (xmax - xmin, ymax - ymin, self.cbf.theta_z))
        object_voxels = math.prod([2.0 * self.map_params.pad / res] * 3)
        for key, what, voxels in (("map.resolution", "the workspace grid up to cbf.theta_z", workspace_voxels),
                                  ("map.truncation", "an object's first grid", object_voxels)):
            if voxels > MAX_GRID_VOXELS:
                raise ScenarioError(f"{key}: {what} would span {voxels:.3g} voxels, "
                                    f"above the {MAX_GRID_VOXELS} a grid may span")
        if self.cbf.theta_zero >= self.map_params.truncation:  # never-observed voxels hold the truncation
            raise ScenarioError("cbf.theta_zero: must be below map.truncation")


# JSON key -> (kind, default). A kind is "int" (an integer, not a bool), "num" (a finite
# number), "str", "ints" (a list of integers), n (a list of n finite numbers), a nested
# table, a dataclass, or [dataclass] for a list of them. _REQUIRED keys have no default;
# a default of None marks an optional value, which null also leaves absent.
_REQUIRED = object()
_ROBOT = {"start": (3, _REQUIRED), "goal": (3, _REQUIRED)}
_POSE_NOISE = {"sigma_xy": ("num", 0.0), "sigma_theta": ("num", 0.0)}
_OBJECT = {
    "id": ("int", _REQUIRED),
    "center": (2, _REQUIRED),
    "yaw": ("num", 0.0),
    "half_extents": (3, _REQUIRED),
    "class_id": ("int", 1),
    "stationarity": ("int", 1),
}
_EVENT = {
    "time": ("num", _REQUIRED),
    "object_id": ("int", _REQUIRED),
    "action": ("str", _REQUIRED),
    "center": (2, None),
    "yaw": ("num", None),
}
_ROOT = {
    "name": ("str", "unnamed"),
    "workspace": (4, _REQUIRED),
    "robot": (_ROBOT, _REQUIRED),
    "objects": ([WorldObject], []),
    "events": ([SceneEvent], []),
    "mode": ("str", MODE_SEMANTIC),
    "duration": ("num", 30.0),
    "seed": ("int", 0),
    "goal_tolerance": ("num", 0.1),
    "pose_noise": (_POSE_NOISE, {}),
    "camera": (DepthCamera, {}),
    "map": (MapParams, {}),
    "cbf": (CbfParams, {}),
    "controller": (ControllerParams, {}),
    "consistency": (ConsistencyParams, {}),
    "snapshot_ticks": ("ints", []),
}
_FIELDS = {SceneEvent: {"time": "trigger_time", "center": "new_center", "yaw": "new_yaw"}}  # JSON key -> field


def _shape(default):
    """The kind of a parameter-section value, read off its default."""
    return "int" if isinstance(default, int) else len(default) if isinstance(default, tuple) else "num"


_SECTIONS = (DepthCamera, MapParams, CbfParams, ControllerParams, ConsistencyParams)
_TABLES = {WorldObject: _OBJECT, SceneEvent: _EVENT}
_TABLES.update({cls: {f.name: (_shape(f.default), f.default) for f in fields(cls)} for cls in _SECTIONS})


def _table(kind) -> dict:
    return kind if isinstance(kind, dict) else _TABLES[kind]


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _finite(v) -> float | None:
    """The value as a float if it is a finite JSON number, else None."""
    return float(v) if (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max else None


_KINDS = {  # kind -> (what a value must be, the value as read or None if it is not one)
    "int": ("an integer", lambda v: v if _is_int(v) else None),
    "num": ("a finite number", _finite),
    "str": ("a string", lambda v: v if isinstance(v, str) else None),
    "ints": ("a list of integers", lambda v: tuple(v) if isinstance(v, list) and all(map(_is_int, v)) else None),
}


def _value(v, kind, path: str):
    """One value checked against its kind; lists of numbers become tuples, objects dicts or dataclasses."""
    if isinstance(kind, (dict, type)):
        values = _read(v, _table(kind), path)
        return values if isinstance(kind, dict) else _build(kind, values, path)
    if isinstance(kind, list):
        if not isinstance(v, list):
            raise ScenarioError(f"{path}: expected a list")
        return [_value(item, kind[0], f"{path}[{i}]") for i, item in enumerate(v)]
    if isinstance(kind, int):
        vec = tuple(map(_finite, v)) if isinstance(v, (list, tuple)) else ()
        expected, out = f"a list of {kind} finite numbers", vec if len(vec) == kind and None not in vec else None
    else:
        expected, out = _KINDS[kind][0], _KINDS[kind][1](v)
    if out is None:
        raise ScenarioError(f"{path}: expected {expected}, got {v!r:.40}")
    return out


def _read(obj, table: dict, path: str) -> dict:
    """Values of a JSON object by key: no unknown keys, defaults filled in, each of its kind."""
    where = path or "root"
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object")
    unknown = set(obj) - set(table)
    if unknown:
        raise ScenarioError(f"{where}: unknown key(s) {sorted(unknown)}")
    out = {}
    for key, (kind, default) in table.items():
        at = f"{path}.{key}" if path else key
        v = obj.get(key, default)
        if v is _REQUIRED:
            raise ScenarioError(f"{at}: required")
        out[key] = None if v is None and default is None else _value(v, kind, at)
    return out


def _build(cls, values: dict, path: str):
    """Construct cls from read values; a ValueError that starts with a field name is reported at path.key."""
    keys = _FIELDS.get(cls, {})
    try:
        return cls(**{keys.get(k, k): v for k, v in values.items()})
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        key = {keys.get(k, k): k for k in values}.get(name)
        raise ScenarioError(f"{path}.{key}: {rest}" if key else f"{path}: {exc}") from exc


def scenario_from_dict(data: dict) -> Scenario:
    v = _read(data, _ROOT, "")
    robot, noise = v.pop("robot"), v.pop("pose_noise")
    v["map_params"] = v.pop("map")
    return Scenario(start=robot["start"], goal=robot["goal"], pose_noise_xy=noise["sigma_xy"],
                    pose_noise_theta=noise["sigma_theta"], **v)


def _write(obj, table: dict) -> dict:
    """The JSON object of a dataclass or of read values, keys in table order."""
    if not isinstance(obj, dict):
        keys = _FIELDS.get(type(obj), {})
        obj = {k: getattr(obj, keys.get(k, k)) for k in table}
    out = {}
    for key, (kind, _) in table.items():
        v = obj[key]
        if isinstance(kind, (dict, type)):
            v = _write(v, _table(kind))
        elif isinstance(kind, list):  # list items leave out absent optional values
            v = [{k: x for k, x in _write(item, _table(kind[0])).items() if x is not None} for item in v]
        elif isinstance(v, tuple):
            v = list(v)
        out[key] = v
    return out


def scenario_to_dict(sc: Scenario) -> dict:
    values = {f.name: getattr(sc, f.name) for f in fields(sc)}
    values.update(robot={"start": sc.start, "goal": sc.goal}, map=sc.map_params,
                  pose_noise={"sigma_xy": sc.pose_noise_xy, "sigma_theta": sc.pose_noise_theta})
    return _write(values, _ROOT)


def load_scenario(path: str | Path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: invalid JSON ({exc})") from exc
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"{path}: not UTF-8 text ({exc})") from exc
    return scenario_from_dict(data)


def save_scenario(sc: Scenario, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(sc), fh, indent=2)
        fh.write("\n")

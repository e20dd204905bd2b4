"""Scenario schema: world layout, scripted events, tuning, and JSON round-trip.

Scenarios are plain JSON with full defaulting; unknown keys are rejected with
the offending field path so typos fail loudly rather than silently running
with defaults.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field as dc_field, fields
from pathlib import Path

from .barrier import CbfParams
from .consistency import ConsistencyParams
from .mapping import MapParams
from .mpc import ControllerParams
from .world import DepthCamera, SceneEvent, WorldObject

MODE_SEMANTIC = "semantic_mpc_cbf"
MODE_NONSEMANTIC = "nonsemantic_mpc_cbf"
MODE_CLASSIC = "classic_mpc"
MODES = (MODE_SEMANTIC, MODE_NONSEMANTIC, MODE_CLASSIC)


class ScenarioError(ValueError):
    """Scenario file violates the schema; message carries the field path."""


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
    consistency_override: float | None = None
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


def _expect_keys(obj: dict, allowed: set[str], path: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"{path}: unknown key(s) {sorted(unknown)}")


def _finite(v) -> float | None:
    """The value as a float if it is a finite JSON number, else None."""
    ok = isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max
    return float(v) if ok else None


def _get_num(obj: dict, key: str, path: str, default=None, minimum=None):
    if key not in obj:
        if default is None:
            raise ScenarioError(f"{path}.{key}: required")
        return default
    v = _finite(obj[key])
    if v is None:
        raise ScenarioError(f"{path}.{key}: expected a finite number, got {obj[key]!r:.40}")
    if minimum is not None and v < minimum:
        raise ScenarioError(f"{path}.{key}: must be >= {minimum}")
    return v


def _get_vec(obj: dict, key: str, n: int, path: str, default=None):
    if key not in obj:
        if default is None:
            raise ScenarioError(f"{path}.{key}: required")
        return default
    v = obj[key]
    vec = tuple(_finite(e) for e in v) if isinstance(v, list) else ()
    if len(vec) != n or None in vec:
        raise ScenarioError(f"{path}.{key}: expected a list of {n} finite numbers")
    return vec


def _parse_object(obj: dict, i: int) -> WorldObject:
    path = f"objects[{i}]"
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    _expect_keys(obj, {"id", "center", "yaw", "half_extents", "class_id", "stationarity"}, path)
    if "id" not in obj or not isinstance(obj["id"], int):
        raise ScenarioError(f"{path}.id: required integer")
    st = obj.get("stationarity", 1)
    if st not in (0, 1):
        raise ScenarioError(f"{path}.stationarity: must be 0 or 1")
    try:
        return WorldObject(
            id=obj["id"],
            center=_get_vec(obj, "center", 2, path),
            yaw=_get_num(obj, "yaw", path, default=0.0),
            half_extents=_get_vec(obj, "half_extents", 3, path),
            class_id=int(_get_num(obj, "class_id", path, default=1.0)),
            stationarity=int(st),
        )
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _parse_event(ev: dict, i: int) -> SceneEvent:
    path = f"events[{i}]"
    if not isinstance(ev, dict):
        raise ScenarioError(f"{path}: expected an object")
    _expect_keys(ev, {"time", "object_id", "action", "center", "yaw"}, path)
    t = _get_num(ev, "time", path)
    if t < 0.0:
        raise ScenarioError(f"{path}.time: must be >= 0")
    action = ev.get("action")
    if action not in ("teleport", "remove"):
        raise ScenarioError(f"{path}.action: must be 'teleport' or 'remove'")
    if "object_id" not in ev or not isinstance(ev["object_id"], int):
        raise ScenarioError(f"{path}.object_id: required integer")
    center = _get_vec(ev, "center", 2, path, default=()) or None
    if action == "teleport" and center is None:
        raise ScenarioError(f"{path}.center: required for teleport")
    yaw = ev.get("yaw")
    if yaw is not None:
        yaw = _get_num(ev, "yaw", path)
    return SceneEvent(trigger_time=t, object_id=ev["object_id"], action=action, new_center=center, new_yaw=yaw)


_TOP_KEYS = {
    "name",
    "workspace",
    "robot",
    "objects",
    "events",
    "mode",
    "duration",
    "seed",
    "goal_tolerance",
    "pose_noise",
    "camera",
    "map",
    "cbf",
    "controller",
    "consistency",
    "consistency_override",
    "snapshot_ticks",
}


def _parse_section(data: dict, key: str, cls):
    """Build a parameter dataclass from a JSON object, each value shaped like the field's default.

    The keys are the dataclass fields. An int default takes an integer, a
    tuple default a list of as many finite numbers, any other default one
    finite number.
    """
    sec = data.get(key, {})
    if not isinstance(sec, dict):
        raise ScenarioError(f"{key}: expected an object")
    defaults = {f.name: f.default for f in fields(cls)}
    _expect_keys(sec, set(defaults), key)
    kwargs = {}
    for k, v in sec.items():
        if isinstance(defaults[k], int):
            if isinstance(v, bool) or not isinstance(v, int):
                raise ScenarioError(f"{key}.{k}: expected an integer")
            kwargs[k] = v
        elif isinstance(defaults[k], tuple):
            kwargs[k] = _get_vec(sec, k, len(defaults[k]), key)
        else:
            kwargs[k] = _get_num(sec, k, key)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        # parameter checks start their message with the field name ("horizon must be >= 1")
        name, _, rest = str(exc).partition(" ")
        if name in defaults:
            raise ScenarioError(f"{key}.{name}: {rest}") from exc
        raise ScenarioError(f"{key}: {exc}") from exc


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("root: expected a JSON object")
    _expect_keys(data, _TOP_KEYS, "root")

    robot = data.get("robot")
    if not isinstance(robot, dict):
        raise ScenarioError("robot: required object with start and goal")
    _expect_keys(robot, {"start", "goal"}, "robot")

    pose_noise = data.get("pose_noise", {})
    if not isinstance(pose_noise, dict):
        raise ScenarioError("pose_noise: expected an object")
    _expect_keys(pose_noise, {"sigma_xy", "sigma_theta"}, "pose_noise")

    objects_raw = data.get("objects", [])
    if not isinstance(objects_raw, list):
        raise ScenarioError("objects: expected a list")
    events_raw = data.get("events", [])
    if not isinstance(events_raw, list):
        raise ScenarioError("events: expected a list")

    override = data.get("consistency_override")
    if override is not None:
        override = _get_num(data, "consistency_override", "root")

    snap = data.get("snapshot_ticks", [])
    if not isinstance(snap, list) or any(isinstance(t, bool) or not isinstance(t, int) for t in snap):
        raise ScenarioError("snapshot_ticks: expected a list of integers")

    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ScenarioError("seed: expected an integer")

    camera = _parse_section(data, "camera", DepthCamera)
    map_params = _parse_section(data, "map", MapParams)
    cbf = _parse_section(data, "cbf", CbfParams)
    controller = _parse_section(data, "controller", ControllerParams)
    consistency = _parse_section(data, "consistency", ConsistencyParams)

    try:
        return Scenario(
            name=str(data.get("name", "unnamed")),
            workspace=_get_vec(data, "workspace", 4, "root"),
            start=_get_vec(robot, "start", 3, "robot"),
            goal=_get_vec(robot, "goal", 3, "robot"),
            objects=[_parse_object(o, i) for i, o in enumerate(objects_raw)],
            events=[_parse_event(e, i) for i, e in enumerate(events_raw)],
            mode=data.get("mode", MODE_SEMANTIC),
            duration=_get_num(data, "duration", "root", default=30.0, minimum=1e-9),
            seed=seed,
            goal_tolerance=_get_num(data, "goal_tolerance", "root", default=0.1, minimum=0.0),
            pose_noise_xy=_get_num(pose_noise, "sigma_xy", "pose_noise", default=0.0, minimum=0.0),
            pose_noise_theta=_get_num(pose_noise, "sigma_theta", "pose_noise", default=0.0, minimum=0.0),
            camera=camera,
            map_params=map_params,
            cbf=cbf,
            controller=controller,
            consistency=consistency,
            consistency_override=override,
            snapshot_ticks=tuple(snap),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def scenario_to_dict(sc: Scenario) -> dict:
    return {
        "name": sc.name,
        "workspace": list(sc.workspace),
        "robot": {"start": list(sc.start), "goal": list(sc.goal)},
        "objects": [
            {
                "id": o.id,
                "center": list(o.center),
                "yaw": o.yaw,
                "half_extents": list(o.half_extents),
                "class_id": o.class_id,
                "stationarity": o.stationarity,
            }
            for o in sc.objects
        ],
        "events": [
            {
                "time": e.trigger_time,
                "object_id": e.object_id,
                "action": e.action,
                **({"center": list(e.new_center)} if e.new_center is not None else {}),
                **({"yaw": e.new_yaw} if e.new_yaw is not None else {}),
            }
            for e in sc.events
        ],
        "mode": sc.mode,
        "duration": sc.duration,
        "seed": sc.seed,
        "goal_tolerance": sc.goal_tolerance,
        "pose_noise": {"sigma_xy": sc.pose_noise_xy, "sigma_theta": sc.pose_noise_theta},
        "camera": asdict(sc.camera),
        "map": asdict(sc.map_params),
        "cbf": asdict(sc.cbf),
        "controller": {k: (list(v) if isinstance(v, tuple) else v) for k, v in asdict(sc.controller).items()},
        "consistency": {k: (list(v) if isinstance(v, tuple) else v) for k, v in asdict(sc.consistency).items()},
        "consistency_override": sc.consistency_override,
        "snapshot_ticks": list(sc.snapshot_ticks),
    }


def load_scenario(path: str | Path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: invalid JSON ({exc})") from exc
    return scenario_from_dict(data)


def save_scenario(sc: Scenario, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(sc), fh, indent=2)
        fh.write("\n")

"""Ground-truth desk-scale world: box obstacles, scripted changes, depth sensing.

The simulated robot is a planar single integrator commanded in the world frame.
A fan-style depth camera ray-casts against oriented boxes and returns a
semantically labelled point cloud; scripted events teleport or remove objects
to emulate a semi-static scene.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import ray_box_intersect, wrap_angle


@dataclass(frozen=True)
class RobotState:
    """Planar pose [x, y, theta] with theta wrapped to (-pi, pi]."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.theta)):
            raise ValueError("robot state must be finite")
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))

    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.theta])


@dataclass(frozen=True)
class ControlInput:
    """World-frame velocity command [vx, vy, omega]."""

    vx: float
    vy: float
    omega: float

    def __post_init__(self):
        if not (math.isfinite(self.vx) and math.isfinite(self.vy) and math.isfinite(self.omega)):
            raise ValueError("control input must be finite")
        object.__setattr__(self, "vx", float(self.vx))
        object.__setattr__(self, "vy", float(self.vy))
        object.__setattr__(self, "omega", float(self.omega))


LIKELY_STATIC = 1
LIKELY_DYNAMIC = 0


@dataclass
class WorldObject:
    """Oriented ground-supported box with semantic and stationarity labels.

    ``half_extents`` are half sizes (hx, hy, hz); the box occupies z in
    [0, 2*hz]. Rotation is about z only.
    """

    id: int
    center: tuple[float, float]
    yaw: float
    half_extents: tuple[float, float, float]
    class_id: int
    stationarity: int

    def __post_init__(self):
        if min(self.half_extents) <= 0.0:
            raise ValueError("half_extents must be positive")
        if self.stationarity not in (LIKELY_STATIC, LIKELY_DYNAMIC):
            raise ValueError("stationarity must be 0 or 1")

    @property
    def center3(self) -> np.ndarray:
        return np.array([self.center[0], self.center[1], self.half_extents[2]])


@dataclass(frozen=True)
class SceneEvent:
    """One scripted scene change: teleport an object or remove it."""

    trigger_time: float
    object_id: int
    action: str  # "teleport" | "remove"
    new_center: tuple[float, float] | None = None
    new_yaw: float | None = None

    def __post_init__(self):
        if self.trigger_time < 0.0:
            raise ValueError("trigger_time must be >= 0")
        if self.action not in ("teleport", "remove"):
            raise ValueError(f"action must be 'teleport' or 'remove', got {self.action!r}")
        if self.action == "teleport" and self.new_center is None:
            raise ValueError("new_center is required for a teleport")


@dataclass(frozen=True)
class DepthCamera:
    """Fan depth camera: a horizontal ray fan repeated at a few pitch levels."""

    horizontal_fov: float = math.radians(87.0)
    rays_per_scan: int = 160
    vertical_levels: int = 5
    vertical_fov: float = math.radians(45.0)
    max_range: float = 5.0
    depth_noise_sigma: float = 0.01
    mount_height: float = 0.3

    def __post_init__(self):
        if self.rays_per_scan < 2:
            raise ValueError("rays_per_scan must be >= 2")
        if self.vertical_levels < 1:
            raise ValueError("vertical_levels must be >= 1")
        if self.max_range <= 0.0:
            raise ValueError("max_range must be positive")
        if self.depth_noise_sigma < 0.0:
            raise ValueError("depth_noise_sigma must be >= 0")

    def ray_directions(self, theta: float) -> np.ndarray:
        """Unit ray directions in the world frame for a robot heading theta."""
        az = theta + np.linspace(-self.horizontal_fov / 2.0, self.horizontal_fov / 2.0, self.rays_per_scan)
        if self.vertical_levels == 1:
            pitch = np.array([0.0])
        else:
            pitch = np.linspace(-self.vertical_fov / 2.0, self.vertical_fov / 2.0, self.vertical_levels)
        az_g, pitch_g = np.meshgrid(az, pitch)
        az_g = az_g.ravel()
        pitch_g = pitch_g.ravel()
        cp = np.cos(pitch_g)
        return np.stack([cp * np.cos(az_g), cp * np.sin(az_g), np.sin(pitch_g)], axis=1)


@dataclass
class SemanticPointCloud:
    """Labelled world-frame surface points from one depth scan."""

    points: np.ndarray  # (N, 3)
    instance_ids: np.ndarray  # (N,) int
    class_ids: np.ndarray  # (N,) int
    stationarity: np.ndarray  # (N,) int

    @classmethod
    def empty(cls) -> "SemanticPointCloud":
        return cls(
            points=np.zeros((0, 3)),
            instance_ids=np.zeros(0, dtype=int),
            class_ids=np.zeros(0, dtype=int),
            stationarity=np.zeros(0, dtype=int),
        )

    def __len__(self) -> int:
        return self.points.shape[0]


def step_dynamics(state: RobotState, u: ControlInput, dt: float) -> RobotState:
    """Single-integrator step: positions integrate the command, heading wraps."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    return RobotState(
        x=state.x + dt * u.vx,
        y=state.y + dt * u.vy,
        theta=wrap_angle(state.theta + dt * u.omega),
    )


def render_depth(
    world: list[WorldObject],
    pose: RobotState,
    camera: DepthCamera,
    rng_seed: int,
) -> SemanticPointCloud:
    """Ray-cast the world from the robot pose and return labelled hit points.

    Each ray keeps the nearest box intersection within max_range; the hit
    distance is perturbed along the ray by Gaussian noise of the camera's
    sigma. Rays with no hit contribute no point. Deterministic per seed.
    """
    if not world:
        return SemanticPointCloud.empty()

    origin = np.array([pose.x, pose.y, camera.mount_height])
    dirs = camera.ray_directions(pose.theta)
    t = ray_box_intersect(origin, dirs, np.array([o.center3 for o in world]), [o.yaw for o in world],
                          np.array([o.half_extents for o in world], dtype=float))
    # argmin keeps the first of equal hits, so the earlier box in the list wins
    best_obj = t.argmin(axis=0)
    best_t = t[best_obj, np.arange(dirs.shape[0])]

    hit = np.isfinite(best_t) & (best_t <= camera.max_range) & (best_t > 0.0)
    t_hit = best_t[hit]
    if camera.depth_noise_sigma > 0.0:
        rng = np.random.default_rng(rng_seed)
        t_hit = t_hit + rng.normal(0.0, camera.depth_noise_sigma, size=t_hit.shape)
        t_hit = np.clip(t_hit, 1e-6, camera.max_range)

    points = origin[None, :] + t_hit[:, None] * dirs[hit]
    labels = np.array([(o.id, o.class_id, o.stationarity) for o in world], dtype=int)[best_obj[hit]]
    return SemanticPointCloud(
        points=points, instance_ids=labels[:, 0], class_ids=labels[:, 1], stationarity=labels[:, 2]
    )


def apply_scene_events(
    world: list[WorldObject],
    events: list[SceneEvent],
    applied: set[int],
    t_now: float,
) -> list[WorldObject]:
    """Apply all not-yet-applied events with trigger_time <= t_now, in list order.

    ``applied`` collects indices of consumed events and is updated in place.
    Returns the new world list; the input list is not mutated.
    """
    new_world = list(world)
    for i, ev in enumerate(events):
        if i in applied or ev.trigger_time > t_now:
            continue
        ids = [o.id for o in new_world]
        if ev.object_id not in ids:
            raise ValueError(f"events[{i}].object_id: unknown object id {ev.object_id} in the scene at t = {t_now:g}")
        j = ids.index(ev.object_id)
        if ev.action == "remove":
            new_world.pop(j)
        else:
            obj = new_world[j]
            new_world[j] = replace(
                obj,
                center=tuple(ev.new_center),
                yaw=obj.yaw if ev.new_yaw is None else ev.new_yaw,
            )
        applied.add(i)
    return new_world


def estimate_pose(
    true_pose: RobotState,
    noise_sigma: tuple[float, float],
    rng_seed: int,
) -> RobotState:
    """True pose plus zero-mean Gaussian noise (sigma_xy on x and y, sigma_theta on theta)."""
    sigma_xy, sigma_theta = noise_sigma
    if sigma_xy < 0.0 or sigma_theta < 0.0:
        raise ValueError("noise sigmas must be >= 0")
    if sigma_xy == 0.0 and sigma_theta == 0.0:
        return true_pose
    rng = np.random.default_rng(rng_seed)
    dx, dy = rng.normal(0.0, sigma_xy, size=2) if sigma_xy > 0.0 else (0.0, 0.0)
    dth = rng.normal(0.0, sigma_theta) if sigma_theta > 0.0 else 0.0
    return RobotState(true_pose.x + dx, true_pose.y + dy, wrap_angle(true_pose.theta + dth))

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semnav.geometry import point_box_distance, ray_box_intersect, wrap_angle
from semnav.world import (
    ControlInput,
    DepthCamera,
    RobotState,
    SceneEvent,
    SemanticPointCloud,
    WorldObject,
    apply_scene_events,
    estimate_pose,
    render_depth,
    step_dynamics,
)


def reference_wrap(a: float) -> float:
    # independent wrap: subtract full turns, then fix the boundary convention
    w = a - 2.0 * math.pi * math.floor((a + math.pi) / (2.0 * math.pi))
    if w <= -math.pi:
        w += 2.0 * math.pi
    return w


def box_gap(p, obj) -> float:
    """0 inside the box, positive outside: the planar footprint distance or the z overshoot."""
    hx, hy, hz = obj.half_extents
    return max(point_box_distance(p[0], p[1], obj.center, obj.yaw, hx, hy), -p[2], p[2] - 2.0 * hz)


def first_entry(origin, direction, obj, t_max: float) -> float:
    """Smallest t in [0, t_max] with the ray point inside the box, +inf if none.

    The gap is convex along a line, so a ternary search finds a point of its
    minimum; if that is inside, bisection between the (outside) origin and it
    finds the entry.
    """
    def gap(t):
        return box_gap([o + t * d for o, d in zip(origin, direction)], obj)

    lo, hi = 0.0, t_max
    for _ in range(100):
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if gap(m1) <= gap(m2):
            hi = m2
        else:
            lo = m1
    if gap(hi) > 0.0:
        return math.inf
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def ray_box_intersect_oracle(origins, directions, center, yaw, half_extents):
    """Nearest-hit parameters for rays against one oriented box, +inf on a miss.

    The slab test for one box, with the arithmetic ``ray_box_intersect`` runs
    for all boxes at once, but with the three axes as one (n_rays, 3) array
    reduced by ``max`` and ``min``.
    """
    origins = np.atleast_2d(origins)
    directions = np.atleast_2d(directions)
    c, s = math.cos(yaw), math.sin(yaw)
    rel = origins - center[None, :]
    o = np.stack([c * rel[:, 0] + s * rel[:, 1], -s * rel[:, 0] + c * rel[:, 1], rel[:, 2]], axis=1)
    d = np.stack([c * directions[:, 0] + s * directions[:, 1], -s * directions[:, 0] + c * directions[:, 1],
                  directions[:, 2]], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / d
        t1 = (-half_extents[None, :] - o) * inv
        t2 = (half_extents[None, :] - o) * inv
    parallel = d == 0.0
    inside = np.abs(o) <= half_extents[None, :]
    t_lo = np.where(parallel, np.where(inside, -np.inf, np.inf), np.minimum(t1, t2))
    t_hi = np.where(parallel, np.where(inside, np.inf, -np.inf), np.maximum(t1, t2))
    t_near = t_lo.max(axis=1)
    t_far = t_hi.min(axis=1)
    hit = (t_near <= t_far) & (t_far >= 0.0)
    return np.where(hit, np.where(t_near >= 0.0, t_near, t_far), np.inf)


def render_depth_oracle(world, pose, camera, rng_seed):
    """``render_depth`` with one ray cast per box, a nearer hit kept only when strictly nearer."""
    if not world:
        return SemanticPointCloud.empty()
    origin = np.array([pose.x, pose.y, camera.mount_height])
    dirs = camera.ray_directions(pose.theta)
    origins = np.broadcast_to(origin, dirs.shape)
    best_t = np.full(dirs.shape[0], np.inf)
    best_obj = np.full(dirs.shape[0], -1, dtype=int)
    for idx, obj in enumerate(world):
        t = ray_box_intersect_oracle(origins, dirs, obj.center3, obj.yaw, np.asarray(obj.half_extents, dtype=float))
        closer = t < best_t
        best_t = np.where(closer, t, best_t)
        best_obj = np.where(closer, idx, best_obj)
    hit = np.isfinite(best_t) & (best_t <= camera.max_range) & (best_t > 0.0)
    if not hit.any():
        return SemanticPointCloud.empty()
    t_hit = best_t[hit]
    if camera.depth_noise_sigma > 0.0:
        rng = np.random.default_rng(rng_seed)
        t_hit = np.clip(t_hit + rng.normal(0.0, camera.depth_noise_sigma, size=t_hit.shape), 1e-6, camera.max_range)
    points = origin[None, :] + t_hit[:, None] * dirs[hit]
    labels = np.array([(o.id, o.class_id, o.stationarity) for o in world], dtype=int)[best_obj[hit]]
    return SemanticPointCloud(points=points, instance_ids=labels[:, 0], class_ids=labels[:, 1],
                              stationarity=labels[:, 2])


class TestStepDynamics:
    def test_zero_input_fixed_point(self):
        s = step_dynamics(RobotState(0, 0, 0), ControlInput(0, 0, 0), 0.2)
        assert (s.x, s.y, s.theta) == (0.0, 0.0, 0.0)

    def test_axis_aligned_integration(self):
        s = step_dynamics(RobotState(1, 2, 0), ControlInput(0.5, 0, 0), 0.2)
        assert s.x == pytest.approx(1.1) and s.y == 2.0 and s.theta == 0.0

    def test_heading_wraps(self):
        s = step_dynamics(RobotState(0, 0, 3.0), ControlInput(0, 0, 1.0), 0.2)
        assert s.theta == pytest.approx(reference_wrap(3.2), abs=1e-12)
        assert s.theta == pytest.approx(3.2 - 2 * math.pi, abs=1e-12)

    def test_position_superposition(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x0 = RobotState(*rng.normal(size=3))
            ua, ub = rng.normal(size=3), rng.normal(size=3)
            s_sum = step_dynamics(x0, ControlInput(*(ua + ub)), 0.2)
            s_a = step_dynamics(x0, ControlInput(*ua), 0.2)
            assert s_sum.x == pytest.approx(s_a.x + 0.2 * ub[0], abs=1e-12)
            assert s_sum.y == pytest.approx(s_a.y + 0.2 * ub[1], abs=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            step_dynamics(RobotState(0, 0, 0), ControlInput(0, 0, 0), 0.0)
        with pytest.raises(ValueError):
            ControlInput(float("nan"), 0, 0)
        with pytest.raises(ValueError):
            RobotState(float("inf"), 0, 0)


class TestRenderDepth:
    def test_empty_world(self):
        cloud = render_depth([], RobotState(0, 0, 0), DepthCamera(), 0)
        assert len(cloud) == 0

    def test_wall_matches_analytic_plane_intersection(self):
        # axis-aligned wall 2 m ahead, zero noise: every hit lies on the front
        # face, whose ray intersection has the closed form t = x_face / dir_x
        cam = DepthCamera(depth_noise_sigma=0.0)
        wall = WorldObject(id=0, center=(2.0, 0.0), yaw=0.0, half_extents=(0.05, 2.0, 0.5), class_id=1, stationarity=1)
        pose = RobotState(0, 0, 0)
        cloud = render_depth([wall], pose, cam, 0)
        assert len(cloud) > 0

        origin = np.array([0.0, 0.0, cam.mount_height])
        x_face = wall.center[0] - wall.half_extents[0]
        rel = cloud.points - origin
        t_actual = np.linalg.norm(rel, axis=1)
        dirs = rel / t_actual[:, None]
        in_face = (np.abs(cloud.points[:, 1]) <= wall.half_extents[1] + 1e-9) & (
            (cloud.points[:, 2] >= -1e-9) & (cloud.points[:, 2] <= 2 * wall.half_extents[2] + 1e-9)
        )
        assert in_face.all()
        np.testing.assert_allclose(cloud.points[:, 0], x_face, atol=1e-9)
        np.testing.assert_allclose(t_actual, x_face / dirs[:, 0], atol=1e-9)
        assert np.all(cloud.instance_ids == 0)

        # zero-noise rendering is deterministic regardless of the seed
        again = render_depth([wall], pose, cam, 12345)
        np.testing.assert_array_equal(cloud.points, again.points)

    def test_noise_reproducible_under_seed(self):
        cam = DepthCamera(depth_noise_sigma=0.01)
        wall = WorldObject(id=0, center=(2.0, 0.0), yaw=0.0, half_extents=(0.05, 2.0, 0.5), class_id=1, stationarity=1)
        a = render_depth([wall], RobotState(0, 0, 0), cam, 42)
        b = render_depth([wall], RobotState(0, 0, 0), cam, 42)
        np.testing.assert_array_equal(a.points, b.points)
        c = render_depth([wall], RobotState(0, 0, 0), cam, 43)
        assert not np.array_equal(a.points, c.points)

    def test_points_lie_on_labelled_object(self):
        # noisy points stay within 4 sigma of the true surface along the ray
        cam = DepthCamera(depth_noise_sigma=0.01)
        rng = np.random.default_rng(7)
        objs = [
            WorldObject(id=k, center=tuple(rng.uniform(1.5, 4.0, 2)), yaw=rng.uniform(-3, 3),
                        half_extents=(0.2, 0.4, 0.4), class_id=1 + k % 2, stationarity=k % 2)
            for k in range(3)
        ]
        cloud = render_depth(objs, RobotState(0, 0, 0.3), cam, 5)
        origin = np.array([0.0, 0.0, cam.mount_height])
        for p, inst in zip(cloud.points, cloud.instance_ids):
            obj = objs[inst]
            d = p - origin
            t_noisy = np.linalg.norm(d)
            t_true = ray_box_intersect(origin, d / t_noisy, obj.center3[None, :], [obj.yaw],
                                       np.array([obj.half_extents]))[0, 0]
            assert abs(t_noisy - t_true) <= 4 * cam.depth_noise_sigma
            assert t_noisy <= cam.max_range + 1e-12

    @settings(max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1), n_boxes=st.integers(1, 4), rays=st.integers(2, 24),
           levels=st.integers(1, 4), max_range=st.floats(1.5, 5.0))
    def test_hits_match_per_ray_oracle(self, seed, n_boxes, rays, levels, max_range):
        # random boxes around a random pose (never over the camera), some
        # lower than the camera, some overlapping, some out of range
        rng = np.random.default_rng(seed)
        pose = RobotState(*rng.uniform(-1.0, 1.0, size=2), rng.uniform(-math.pi, math.pi))
        cam = DepthCamera(horizontal_fov=rng.uniform(0.3, 2.5), rays_per_scan=rays, vertical_levels=levels,
                          vertical_fov=rng.uniform(0.1, 1.2), max_range=max_range, depth_noise_sigma=0.0)
        world = []
        for k in range(n_boxes):
            hx, hy, hz = rng.uniform(0.05, 0.8, size=3)
            r = rng.uniform(math.hypot(hx, hy) + 0.05, 3.0)
            phi = pose.theta + rng.uniform(-0.6, 0.6) * cam.horizontal_fov
            world.append(WorldObject(id=10 + k, center=(pose.x + r * math.cos(phi), pose.y + r * math.sin(phi)),
                                     yaw=rng.uniform(-math.pi, math.pi), half_extents=(hx, hy, hz),
                                     class_id=int(rng.integers(1, 4)), stationarity=int(rng.integers(0, 2))))
        cloud = render_depth(world, pose, cam, 0)

        origin = (pose.x, pose.y, cam.mount_height)
        expected = []  # (t, direction, object) per hit ray, in ray order
        for j in range(levels):
            pitch = 0.0 if levels == 1 else -cam.vertical_fov / 2 + j * cam.vertical_fov / (levels - 1)
            for i in range(rays):
                az = pose.theta - cam.horizontal_fov / 2 + i * cam.horizontal_fov / (rays - 1)
                d = (math.cos(pitch) * math.cos(az), math.cos(pitch) * math.sin(az), math.sin(pitch))
                t, obj = min((first_entry(origin, d, o, max_range), k) for k, o in enumerate(world))
                if t <= max_range:
                    expected.append((t, d, world[obj]))
        assert len(cloud) == len(expected)
        for p, inst, cls, stat, (t, d, obj) in zip(cloud.points, cloud.instance_ids, cloud.class_ids,
                                                   cloud.stationarity, expected):
            np.testing.assert_allclose(p, np.array(origin) + t * np.array(d), rtol=0.0, atol=1e-9)
            assert (inst, cls, stat) == (obj.id, obj.class_id, obj.stationarity)

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), layout=st.sampled_from(["scattered", "twins", "inside", "corner", "behind"]),
           n_boxes=st.integers(1, 6), lattice=st.booleans(), noise=st.sampled_from([0.0, 0.01]))
    def test_batched_cast_matches_per_box_loop(self, seed, layout, n_boxes, lattice, noise):
        # on a quarter-metre lattice a sensor on a box edge sees entry and exit
        # parameters of +0.0 on one axis and -0.0 on the other, which only the
        # x, y, z reduction order keeps bit for bit; yaws of 0 and +-pi/2 and
        # level or straight-ahead rays make direction components exactly 0 in a
        # box frame, so the parallel branch runs
        rng = np.random.default_rng(seed)
        snap = (lambda x: np.round(np.asarray(x) * 4) / 4) if lattice else np.asarray
        pick_yaw = lambda: float(rng.choice([0.0, math.pi / 2, -math.pi / 2, rng.uniform(-math.pi, math.pi)]))
        pose = RobotState(*snap(rng.uniform(-1.0, 1.0, 2)), pick_yaw())
        cam = DepthCamera(horizontal_fov=rng.uniform(0.3, 2.5), rays_per_scan=int(rng.integers(2, 40)),
                          vertical_levels=int(rng.integers(1, 6)), vertical_fov=rng.uniform(0.1, 1.2),
                          max_range=rng.uniform(0.5, 5.0), depth_noise_sigma=noise)
        world = []
        for k in range(n_boxes):
            yaw = pick_yaw()
            half = tuple(float(h) for h in snap(rng.uniform(0.05, 0.8, 3)) + (0.25 if lattice else 0.0))
            if layout == "behind":  # every box wholly behind the camera: zero hits
                r = rng.uniform(math.hypot(half[0], half[1]) + 0.05, 3.0)
                phi = pose.theta + math.pi + rng.uniform(-0.3, 0.3)
                center = (pose.x + r * math.cos(phi), pose.y + r * math.sin(phi))
            elif layout == "inside" and k == 0:  # the sensor inside the first box
                center, half = (pose.x, pose.y), (half[0], half[1], 0.5)
            elif layout == "corner" and k == 0:  # the sensor on a vertical edge of an unrotated box
                sx, sy = rng.choice([-1.0, 1.0], 2)
                center, yaw = (pose.x + sx * half[0], pose.y + sy * half[1]), 0.0
            else:
                center = tuple(float(x) for x in snap(rng.uniform(-3.0, 3.0, 2)))
            world.append(WorldObject(id=10 + k, center=center, yaw=yaw, half_extents=half,
                                     class_id=int(rng.integers(1, 4)), stationarity=int(rng.integers(0, 2))))
            if layout == "twins":  # the same box under the next id: every hit ties exactly
                world.append(replace(world[-1], id=20 + k, class_id=int(rng.integers(1, 4)),
                                     stationarity=int(rng.integers(0, 2))))

        origin = np.array([pose.x, pose.y, cam.mount_height])
        dirs = cam.ray_directions(pose.theta)
        t = ray_box_intersect(origin, dirs, np.array([o.center3 for o in world]), [o.yaw for o in world],
                              np.array([o.half_extents for o in world], dtype=float))
        ref = np.stack([ray_box_intersect_oracle(np.broadcast_to(origin, dirs.shape), dirs, o.center3, o.yaw,
                                                 np.asarray(o.half_extents, dtype=float)) for o in world])
        assert t.shape == ref.shape and t.tobytes() == ref.tobytes()

        got, want = render_depth(world, pose, cam, seed), render_depth_oracle(world, pose, cam, seed)
        for field in ("points", "instance_ids", "class_ids", "stationarity"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), field
        if layout == "behind":
            assert len(got) == 0

    def test_max_range_respected(self):
        cam = DepthCamera(depth_noise_sigma=0.0, max_range=1.0)
        wall = WorldObject(id=0, center=(2.0, 0.0), yaw=0.0, half_extents=(0.05, 2.0, 0.5), class_id=1, stationarity=1)
        cloud = render_depth([wall], RobotState(0, 0, 0), cam, 0)
        assert len(cloud) == 0


class TestSceneEvents:
    def _world(self):
        return [
            WorldObject(id=3, center=(1.0, 0.0), yaw=0.0, half_extents=(0.1, 0.1, 0.1), class_id=1, stationarity=1),
            WorldObject(id=4, center=(2.0, 0.0), yaw=0.0, half_extents=(0.1, 0.1, 0.1), class_id=1, stationarity=1),
        ]

    def test_no_due_events(self):
        world = self._world()
        applied = set()
        out = apply_scene_events(world, [SceneEvent(5.0, 3, "teleport", (1.5, 0.0))], applied, 1.0)
        assert out == world and not applied

    def test_teleport_applies_once(self):
        applied = set()
        ev = [SceneEvent(5.0, 3, "teleport", (1.5, 0.0))]
        out = apply_scene_events(self._world(), ev, applied, 5.0)
        assert out[0].center == (1.5, 0.0)
        assert applied == {0}
        out2 = apply_scene_events(out, ev, applied, 6.0)
        assert out2 == out

    def test_remove(self):
        out = apply_scene_events(self._world(), [SceneEvent(0.0, 4, "remove")], set(), 0.0)
        assert [o.id for o in out] == [3]
        cloud = render_depth(out, RobotState(0, 0, 0), DepthCamera(depth_noise_sigma=0.0), 0)
        assert set(cloud.instance_ids) <= {3}

    def test_unknown_object_errors(self):
        with pytest.raises(ValueError, match="unknown object"):
            apply_scene_events(self._world(), [SceneEvent(0.0, 9, "remove")], set(), 0.0)

    def test_distinct_ids_order_independent(self):
        e1 = SceneEvent(1.0, 3, "teleport", (0.5, 0.5))
        e2 = SceneEvent(1.0, 4, "teleport", (2.5, 0.5))
        a = apply_scene_events(self._world(), [e1, e2], set(), 1.0)
        b = apply_scene_events(self._world(), [e2, e1], set(), 1.0)
        assert sorted((o.id, o.center) for o in a) == sorted((o.id, o.center) for o in b)

    def test_same_object_ties_in_listed_order(self):
        e1 = SceneEvent(1.0, 3, "teleport", (0.5, 0.5))
        e2 = SceneEvent(1.0, 3, "teleport", (0.9, 0.9))
        out = apply_scene_events(self._world(), [e1, e2], set(), 1.0)
        assert out[0].center == (0.9, 0.9)


class TestEstimatePose:
    def test_zero_noise_identity(self):
        p = RobotState(1.0, 2.0, 0.5)
        assert estimate_pose(p, (0.0, 0.0), 1) is p

    def test_seeded_reproducibility(self):
        p = RobotState(1.0, 2.0, 0.5)
        a = estimate_pose(p, (0.01, 0.005), 9)
        b = estimate_pose(p, (0.01, 0.005), 9)
        assert (a.x, a.y, a.theta) == (b.x, b.y, b.theta)
        assert (a.x, a.y) != (p.x, p.y)

    def test_sample_std(self):
        p = RobotState(0.0, 0.0, 0.0)
        xs = np.array([estimate_pose(p, (0.01, 0.0), seed).x for seed in range(10_000)])
        assert abs(xs.std() - 0.01) < 0.001

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            estimate_pose(RobotState(0, 0, 0), (-0.1, 0.0), 0)


def test_wrap_angle_against_reference():
    for a in np.linspace(-25, 25, 2001):
        assert wrap_angle(float(a)) == pytest.approx(reference_wrap(float(a)), abs=1e-12)
        assert -math.pi < wrap_angle(float(a)) <= math.pi


@settings(max_examples=2000)
@given(theta=st.floats(-1e6, 1e6))
@example(theta=-math.pi)
@example(theta=math.pi)
@example(theta=3 * math.pi)
@example(theta=-0.0)
def test_wrap_angle_range_and_congruence(theta):
    w = wrap_angle(theta)
    assert -math.pi < w <= math.pi
    # theta - w is a whole number of turns, up to a few ulps of |theta| <= 1e6 (ulp 1.2e-10)
    assert abs(math.remainder(theta - w, 2.0 * math.pi)) <= 1e-9

"""Shared planar/3D geometry helpers: angle wrapping, yaw rotations, ray-box tests."""

from __future__ import annotations

import math

import numpy as np


def wrap_angle(theta: float) -> float:
    """Wrap an angle to the half-open interval (-pi, pi]."""
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def rot2d(yaw: float) -> np.ndarray:
    """2x2 rotation matrix for a z-axis rotation."""
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s], [s, c]])


def ray_box_intersect(
    origins: np.ndarray,
    directions: np.ndarray,
    centers: np.ndarray,
    yaws: list[float],
    half_extents: np.ndarray,
) -> np.ndarray:
    """Nearest-hit parameters for rays against oriented boxes: (n_boxes, n_rays).

    Box k is axis-aligned in its own frame, rotated about z by ``yaws[k]`` and
    centred at ``centers[k]`` (z component included), with half sizes
    ``half_extents[k]``. Entries are parameters t >= 0, +inf where the ray
    misses. Directions must be unit length for t to be metric distance;
    ``origins`` is one row per ray or a single row shared by all.
    """
    # libm per box: NumPy's vectorized cos and sin may round differently on some CPUs
    c = np.array([math.cos(y) for y in yaws])[:, None]
    s = np.array([math.sin(y) for y in yaws])[:, None]
    rel = np.atleast_2d(origins)[None, :, :] - np.asarray(centers)[:, None, :]
    half_extents = np.asarray(half_extents)
    w = np.atleast_2d(directions)
    # rotate into each box frame (inverse yaw); z unchanged
    o = (c * rel[..., 0] + s * rel[..., 1], -s * rel[..., 0] + c * rel[..., 1], rel[..., 2])
    d = (c * w[:, 0] + s * w[:, 1], -s * w[:, 0] + c * w[:, 1], w[None, :, 2])

    # slab test one axis at a time, divide-by-zero handled via inf arithmetic;
    # the axes combine in x, y, z order, which fixes the sign of a zero t
    for a in range(3):
        h = half_extents[:, a, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / d[a]
            t1 = (-h - o[a]) * inv
            t2 = (h - o[a]) * inv
        # parallel rays: inside slab -> (-inf, inf), outside -> empty
        parallel = d[a] == 0.0
        inside = np.abs(o[a]) <= h
        lo = np.where(parallel, np.where(inside, -np.inf, np.inf), np.minimum(t1, t2))
        hi = np.where(parallel, np.where(inside, np.inf, -np.inf), np.maximum(t1, t2))
        t_near, t_far = (lo, hi) if a == 0 else (np.maximum(t_near, lo), np.minimum(t_far, hi))
    hit = (t_near <= t_far) & (t_far >= 0.0)
    t = np.where(t_near >= 0.0, t_near, t_far)  # origin inside box -> exit point
    return np.where(hit, t, np.inf)


def point_box_distance(px: float, py: float, center, yaw: float, hx: float, hy: float) -> float:
    """Planar Euclidean distance from a point to an oriented box footprint (0 inside)."""
    c, s = math.cos(yaw), math.sin(yaw)
    rx = c * (px - center[0]) + s * (py - center[1])
    ry = -s * (px - center[0]) + c * (py - center[1])
    ex = max(abs(rx) - hx, 0.0)
    ey = max(abs(ry) - hy, 0.0)
    return math.hypot(ex, ey)

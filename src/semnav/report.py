"""Run artifacts: trajectory CSV, metrics text, field snapshots, and an SVG map.

The SVG shows object footprints, the zero and cutoff contours of the final
barrier field (marching squares over cell centers), and the driven path as a
single polyline.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from .barrier import CbfField
from .geometry import rot2d
from .runner import Metrics, RunRecord, compute_metrics

SVG_SCALE = 80.0  # pixels per metre
SVG_MARGIN = 10.0  # pixels


def trajectory_csv_lines(record: RunRecord) -> list[str]:
    obj_ids = sorted({oid for row in record.rows for oid in row.object_ev})
    header = "t,x,y,theta,vx,vy,omega,h,solver_status,max_slack" + "".join(f",obj{oid}_ev" for oid in obj_ids)
    lines = [header]
    for row in record.rows:
        cells = [
            repr(row.t),
            repr(row.true_pose.x),
            repr(row.true_pose.y),
            repr(row.true_pose.theta),
            repr(row.input.vx),
            repr(row.input.vy),
            repr(row.input.omega),
            repr(row.h),
            row.plan.status,
            repr(row.plan.max_slack),
        ]
        for oid in obj_ids:
            ev = row.object_ev.get(oid)
            cells.append("" if ev is None else repr(ev))
        lines.append(",".join(cells))
    return lines


def write_trajectory_csv(record: RunRecord, path: str | Path) -> None:
    Path(path).write_text("\n".join(trajectory_csv_lines(record)) + "\n", encoding="utf-8")


def write_metrics(metrics: Metrics, path: str | Path) -> None:
    lines = [
        f"goal_reached: {metrics.goal_reached}",
        f"time_to_goal: {metrics.time_to_goal if metrics.time_to_goal is not None else 'n/a'}",
        f"path_length: {metrics.path_length:.4f}",
        f"min_h: {metrics.min_h:.4f}",
        f"ticks_h_negative: {metrics.ticks_h_negative}",
        f"degraded_ticks: {metrics.degraded_ticks}",
        f"collision_ticks: {metrics.collision_ticks}",
        f"mean_solve_time_s: {metrics.mean_solve_time:.6f}",
        f"mean_tick_time_s: {metrics.mean_tick_time:.6f}",
        f"max_slack: {metrics.max_slack:.6g}",
    ]
    for oid in sorted(metrics.object_ev_min):
        lines.append(f"obj{oid}_ev_range: [{metrics.object_ev_min[oid]:.4f}, {metrics.object_ev_max[oid]:.4f}]")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_field_csv(field: CbfField, path: str | Path) -> None:
    """One line per cell, written a grid row at a time."""
    xs, ys = field.grid.cell_centers()
    y_reprs = [repr(y) for y in ys.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ix,iy,x,y,h\n")
        for ix, (x, row) in enumerate(zip(xs.tolist(), field.grid.values)):
            x_repr = repr(x)
            cells = enumerate(zip(y_reprs, row.tolist()))
            fh.write("".join(f"{ix},{iy},{x_repr},{y_repr},{h!r}\n" for iy, (y_repr, h) in cells))


# Corner a = 0..3 of the lattice square at (i, j) is (i + _DI[a], j + _DJ[a]);
# edge a runs from corner a to corner (a + 1) % 4.
_DI = np.array([0, 1, 1, 0])
_DJ = np.array([0, 0, 1, 1])


def marching_squares(field: CbfField, level: float) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """Level-set segments of the bilinear field, one or two per crossing cell.

    Works on the cell-center lattice; each lattice square contributes
    linearly interpolated edge crossings joined into segments. A square has
    0, 2 or 4 crossing edges, so with the crossings taken in (i, j, edge)
    order each consecutive pair is one segment; a saddle pairs its edges in
    order.
    """
    values = field.grid.values - level
    xs, ys = field.grid.cell_centers()
    nx, ny = values.shape
    neg = values < 0.0
    corners = [neg[di : di + nx - 1, dj : dj + ny - 1] for di, dj in zip(_DI, _DJ)]
    crossing = np.stack([corners[a] != corners[(a + 1) % 4] for a in range(4)], axis=-1)
    i, j, a = np.nonzero(crossing)
    b = (a + 1) % 4
    i0, j0, i1, j1 = i + _DI[a], j + _DJ[a], i + _DI[b], j + _DJ[b]
    v0, v1 = values[i0, j0], values[i1, j1]
    t = v0 / (v0 - v1)
    px = xs[i0] + t * (xs[i1] - xs[i0])
    py = ys[j0] + t * (ys[j1] - ys[j0])
    quads = np.stack([px, py], axis=-1).reshape(-1, 4).tolist()
    return [((x0, y0), (x1, y1)) for x0, y0, x1, y1 in quads]


def _svg_coords(x: float, y: float, workspace) -> tuple[float, float]:
    xmin, ymin, _, ymax = workspace
    return SVG_MARGIN + (x - xmin) * SVG_SCALE, SVG_MARGIN + (ymax - y) * SVG_SCALE


def write_run_svg(record: RunRecord, path: str | Path) -> None:
    """Render footprints, barrier contours, and the trajectory to an SVG file."""
    scenario = record.scenario
    workspace = scenario.workspace
    width = (workspace[2] - workspace[0]) * SVG_SCALE + 2 * SVG_MARGIN
    height = (workspace[3] - workspace[1]) * SVG_SCALE + 2 * SVG_MARGIN

    svg = ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        width=f"{width:.0f}",
        height=f"{height:.0f}",
        viewBox=f"0 0 {width:.0f} {height:.0f}",
    )
    ET.SubElement(svg, "rect", x="0", y="0", width=f"{width:.0f}", height=f"{height:.0f}", fill="white")

    def pt(x, y, sep=","):
        px, py = _svg_coords(x, y, workspace)
        return f"{px:.2f}{sep}{py:.2f}"

    # object footprints as the run's last tick left them
    for obj in record.final_world:
        rot = rot2d(obj.yaw)
        hx, hy = obj.half_extents[0], obj.half_extents[1]
        corners = [rot @ np.array(c) + np.array(obj.center) for c in ((-hx, -hy), (hx, -hy), (hx, hy), (-hx, hy))]
        points = " ".join(pt(c[0], c[1]) for c in corners)
        fill = "#9aa5b1" if obj.stationarity == 1 else "#d9a66c"
        ET.SubElement(svg, "polygon", points=points, fill=fill, stroke="#333333")

    # barrier contours from the final field: zero level and cutoff level
    if record.final_field is not None:
        cutoff = record.final_field.params.theta_cutoff
        for level, color in ((0.0, "#e64980"), (cutoff - 1e-6, "#f59f00")):
            parts = []
            for (x0, y0), (x1, y1) in marching_squares(record.final_field, level):
                parts.append(f"M {pt(x0, y0, ' ')} L {pt(x1, y1, ' ')}")
            if parts:
                ET.SubElement(svg, "path", d=" ".join(parts), stroke=color, fill="none")

    # one trajectory polyline per run
    pts = [pt(r.true_pose.x, r.true_pose.y) for r in record.rows]
    if record.final_pose is not None:
        pts.append(pt(record.final_pose.x, record.final_pose.y))
    if pts:
        ET.SubElement(svg, "polyline", points=" ".join(pts), fill="none", stroke="#1864ab")

    for pose, color in ((scenario.start, "#2b8a3e"), (scenario.goal, "#c92a2a")):
        px, py = _svg_coords(pose[0], pose[1], workspace)
        ET.SubElement(svg, "circle", cx=f"{px:.2f}", cy=f"{py:.2f}", r="4", fill=color)

    ET.ElementTree(svg).write(path, encoding="utf-8", xml_declaration=True)


def emit_outputs(record: RunRecord, out_dir: str | Path) -> Metrics:
    """Write the standard artifact set for one run and return its metrics."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics = compute_metrics(record)
    write_trajectory_csv(record, out / "trajectory.csv")
    write_metrics(metrics, out / "metrics.txt")
    for tick, snapshot in sorted(record.field_snapshots.items()):
        write_field_csv(snapshot, out / f"field_t{tick:04d}.csv")
    if record.final_field is not None:
        write_field_csv(record.final_field, out / "field_final.csv")
    write_run_svg(record, out / "run.svg")
    return metrics

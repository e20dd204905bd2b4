import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semnav.barrier import CbfField, CbfParams, build_cbf_field
from semnav.grids import Grid2D
from semnav.report import (
    SVG_MARGIN,
    SVG_SCALE,
    emit_outputs,
    marching_squares,
    trajectory_csv_lines,
    write_field_csv,
    write_run_svg,
    write_trajectory_csv,
)
from semnav.runner import run_closed_loop
from semnav.scenario import Scenario, load_scenario
from semnav.world import SceneEvent, WorldObject

from conftest import plain_edf


def small_run(**kw):
    defaults = dict(
        name="small", workspace=(-1.0, -2.0, 4.0, 2.0), start=(0, 0, 0), goal=(2, 0, 0),
        objects=[WorldObject(id=0, center=(2.0, 1.2), yaw=0.1, half_extents=(0.2, 0.3, 0.3),
                             class_id=1, stationarity=1)],
        duration=6.0, seed=2,
    )
    defaults.update(kw)
    return run_closed_loop(Scenario(**defaults))


class TestTrajectoryCsv:
    def test_header_contract(self):
        rec = small_run()
        lines = trajectory_csv_lines(rec)
        assert lines[0].startswith("t,x,y,theta,vx,vy,omega,h,solver_status,max_slack")
        extra = lines[0].split(",")[10:]
        assert all(col.startswith("obj") and col.endswith("_ev") for col in extra)
        assert len(lines) == len(rec.rows) + 1

    def test_deterministic_bytes(self, tmp_path):
        sc = dict(duration=4.0, seed=9)
        a, b = small_run(**sc), small_run(**sc)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(a, pa)
        write_trajectory_csv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_row_parses(self):
        rec = small_run()
        lines = trajectory_csv_lines(rec)
        header = lines[0].split(",")
        row = lines[1].split(",")
        assert len(row) == len(header)
        float(row[0]); float(row[1]); float(row[7])
        assert row[8] in ("ok", "degraded", "hold")


def marching_squares_oracle(field: CbfField, level: float):
    """Per-square marching squares: the reference the vectorized version must equal."""
    values = field.grid.values - level
    xs, ys = field.grid.cell_centers()
    nx, ny = values.shape
    segments = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            corners = (
                (values[i, j], xs[i], ys[j]),
                (values[i + 1, j], xs[i + 1], ys[j]),
                (values[i + 1, j + 1], xs[i + 1], ys[j + 1]),
                (values[i, j + 1], xs[i], ys[j + 1]),
            )
            crossings = []
            for a in range(4):
                v0, x0, y0 = corners[a]
                v1, x1, y1 = corners[(a + 1) % 4]
                if (v0 < 0.0) != (v1 < 0.0):
                    t = v0 / (v0 - v1)
                    crossings.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
            if len(crossings) == 2:
                segments.append((crossings[0], crossings[1]))
            elif len(crossings) == 4:  # saddle: pair edge crossings in order
                segments.append((crossings[0], crossings[1]))
                segments.append((crossings[2], crossings[3]))
    return segments


# special values give saddles and exact zeros at both SVG levels (0 and cutoff - 1e-6)
FIELD_VALUES = st.one_of(
    st.sampled_from([-1.0, -0.0, 0.0, 0.3, 1.8, 1.8 - 1e-6]),
    st.floats(-2.0, 3.0, allow_nan=False),
)


@st.composite
def lattice_fields(draw):
    nx = draw(st.integers(2, 12))
    ny = draw(st.integers(2, 12).filter(lambda n: n != nx))
    origin = np.array([draw(st.floats(-5.0, 5.0).filter(bool)), draw(st.floats(-5.0, 5.0).filter(bool))])
    resolution = draw(st.sampled_from([0.05, 0.1, 0.37]))
    values = np.array(draw(st.lists(FIELD_VALUES, min_size=nx * ny, max_size=nx * ny))).reshape(nx, ny)
    return CbfField(grid=Grid2D(origin=origin, resolution=resolution, values=values), params=CbfParams())


class TestMarchingSquares:
    @settings(max_examples=200)
    @given(field=lattice_fields(), level=st.sampled_from([0.0, 1.8 - 1e-6]))
    def test_matches_per_square_oracle(self, field, level):
        got = marching_squares(field, level)
        want = marching_squares_oracle(field, level)
        assert got == want
        # bitwise too: == cannot tell -0.0 from 0.0
        assert np.array(got, dtype=float).tobytes() == np.array(want, dtype=float).tobytes()

    def test_circle_radius_recovery(self):
        res = 0.05
        n = 128
        xs = (np.arange(n) + 0.5) * res
        cx = cy = n * res / 2
        vals = np.hypot(xs[:, None] - cx, xs[None, :] - cy) - 1.5  # circle of radius 1.5
        field = CbfField(grid=Grid2D(origin=np.zeros(2), resolution=res, values=vals), params=CbfParams())
        segs = marching_squares(field, 0.0)
        assert len(segs) > 50
        for (x0, y0), (x1, y1) in segs:
            for x, y in ((x0, y0), (x1, y1)):
                assert np.hypot(x - cx, y - cy) == pytest.approx(1.5, abs=res)

    def test_no_crossings_on_constant_field(self):
        field = CbfField(grid=Grid2D.full((0, 0), 0.05, (32, 32), 1.8), params=CbfParams())
        assert marching_squares(field, 0.0) == []


def footprint_centers(rec, tmp_path):
    """World centres of the footprint polygons in the record's run.svg."""
    write_run_svg(rec, tmp_path / "run.svg")
    xmin, _, _, ymax = rec.scenario.workspace
    centers = []
    for polygon in ET.parse(tmp_path / "run.svg").getroot().findall(".//{http://www.w3.org/2000/svg}polygon"):
        px, py = np.array([c.split(",") for c in polygon.get("points").split()], dtype=float).mean(axis=0)
        centers.append(((px - SVG_MARGIN) / SVG_SCALE + xmin, ymax - (py - SVG_MARGIN) / SVG_SCALE))
    return centers


class TestSvg:
    def test_well_formed_with_one_polyline(self, tmp_path):
        rec = small_run()
        path = tmp_path / "run.svg"
        write_run_svg(rec, path)
        tree = ET.parse(path)  # raises on malformed XML
        ns = {"svg": "http://www.w3.org/2000/svg"}
        polylines = tree.getroot().findall(".//svg:polyline", ns)
        assert len(polylines) == 1
        assert tree.getroot().findall(".//svg:polygon", ns)  # object footprints present

    def test_footprints_stop_at_the_last_recorded_tick(self, tmp_path):
        # the object moves at t = 0.5 and again at t = 1000, long after the run ends
        moves = [SceneEvent(trigger_time=0.5, object_id=0, action="teleport", new_center=(1.0, -1.5)),
                 SceneEvent(trigger_time=1000.0, object_id=0, action="teleport", new_center=(3.0, -1.0))]
        rec = small_run(events=moves)
        assert rec.rows[-1].t >= 0.5
        assert footprint_centers(rec, tmp_path) == [pytest.approx((1.0, -1.5), abs=0.01)]
        rec = small_run(events=moves, duration=0.4)  # ticks at t = 0 and 0.2: no event applied
        assert footprint_centers(rec, tmp_path) == [pytest.approx((2.0, 1.2), abs=0.01)]

    def test_footprints_follow_the_runs_event_order(self, scenario_dir, tmp_path):
        # listed out of time order: the run applies t = 0.1 at its tick 0.2 and t = 0.5 at its
        # tick 0.6, so the object ends at (3, 1); applying both at once in list order ends at (3, -1)
        moves = [SceneEvent(trigger_time=0.5, object_id=0, action="teleport", new_center=(3.0, 1.0)),
                 SceneEvent(trigger_time=0.1, object_id=0, action="teleport", new_center=(3.0, -1.0))]
        sweep = replace(load_scenario(scenario_dir / "wall_sweep.json"), duration=1.0, events=moves)
        rec = run_closed_loop(sweep)
        assert footprint_centers(rec, tmp_path) == [pytest.approx((3.0, 1.0), abs=0.01)]
        assert [o.center for o in rec.final_world] == [(3.0, 1.0)]


class TestFieldCsv:
    def test_format(self, tmp_path):
        m25 = Grid2D.full((0.0, 0.0), 0.05, (8, 8), 0.3)
        m25.values[4, 4] = 0.0
        field = build_cbf_field(plain_edf(m25, 0.15, CbfParams()), CbfParams())
        path = tmp_path / "field.csv"
        write_field_csv(field, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "ix,iy,x,y,h"
        assert len(lines) == 65
        ix, iy, x, y, h = lines[1].split(",")
        assert (int(ix), int(iy)) == (0, 0)
        assert float(x) == pytest.approx(0.025)

    def test_bytes_on_non_square_grid(self, tmp_path):
        # 5 x 3 at a non-zero origin: an ix/iy transposition changes the rows
        vals = np.array([
            [-0.0, 5e-324, 1e16],
            [1.8, 0.1, -2.5],
            [1e16, -0.0, 0.7],
            [5e-324, 1.8, 3.0],
            [0.0, -1e-7, 1.8],
        ])
        origin, res = (-1.3, 0.45), 0.1
        field = CbfField(grid=Grid2D(origin=np.array(origin), resolution=res, values=vals), params=CbfParams())
        path = tmp_path / "field.csv"
        write_field_csv(field, path)
        lines = ["ix,iy,x,y,h"]
        for ix in range(5):
            for iy in range(3):
                x = origin[0] + (ix + 0.5) * res
                y = origin[1] + (iy + 0.5) * res
                lines.append(f"{ix},{iy},{x!r},{y!r},{float(vals[ix, iy])!r}")
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_emit_outputs_writes_artifact_set(tmp_path):
    rec = small_run(snapshot_ticks=(0,))
    metrics = emit_outputs(rec, tmp_path)
    assert (tmp_path / "trajectory.csv").exists()
    assert (tmp_path / "metrics.txt").exists()
    assert (tmp_path / "run.svg").exists()
    assert (tmp_path / "field_t0000.csv").exists()
    assert (tmp_path / "field_final.csv").exists()
    text = (tmp_path / "metrics.txt").read_text()
    assert f"goal_reached: {metrics.goal_reached}" in text

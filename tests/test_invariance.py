"""Perturbations that must not move a run, or may move it only by rounding.

``pose_drift`` runs one episode as given and under one perturbation and
returns the largest pose difference with both trajectory CSVs. Object order
and BLAS thread count are exact, so these tests pin equal CSVs. A whole-cell
translation of the scene, a mirror in y, one ULP on every QP solution and
another BLAS kernel move the semantic drawer_gap path only by rounding: each
is bounded by ``ROUNDING_BOUND``. Every perturbation is applied here, by
``dataclasses.replace`` of the scenario, by monkeypatching or in the
environment of a child process, never in ``semnav``.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import semnav
import semnav.mpc
from semnav.qp import solve_qp
from semnav.report import trajectory_csv_lines
from semnav.runner import run_closed_loop
from semnav.scenario import MODE_CLASSIC, MODE_NONSEMANTIC, MODE_SEMANTIC, load_scenario

from conftest import SCENARIO_DIR

CHILD = """
import sys
from dataclasses import replace
from semnav.report import trajectory_csv_lines
from semnav.runner import run_closed_loop
from semnav.scenario import load_scenario
scenario = replace(load_scenario(sys.argv[1]), mode=sys.argv[2], seed=int(sys.argv[3]))
print("\\n".join(trajectory_csv_lines(run_closed_loop(scenario))))
"""
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# largest pose difference (m, rad) that rounding may grow to over a semantic drawer_gap episode; the
# largest measured was 4.1e-6, the mirror case (a one-ULP change grew to 1.6e-4 before the shifted plan)
ROUNDING_BOUND = 1e-5


def poses(lines: list[str]) -> np.ndarray:
    """(n, 3) true poses x, y, theta of a trajectory CSV."""
    return np.array([[float(v) for v in line.split(",")[1:4]] for line in lines[1:]]).reshape(-1, 3)


def largest_pose_difference(a: list[str], b: list[str], undo=None) -> float:
    """Largest difference of x, y or theta between two trajectory CSVs; inf if their lengths differ.

    ``undo`` maps the poses of ``b`` back into the frame of ``a``.
    """
    if len(a) != len(b):
        return float("inf")
    moved = poses(b) if undo is None else undo(poses(b))
    return float(np.abs(poses(a) - moved).max(initial=0.0))


def pose_drift(run, perturbation, undo=None):
    """Largest pose difference of ``run(perturbation)`` from ``run(None)``, and both trajectory CSVs.

    ``run`` runs one episode, under the perturbation it is given or none, and returns its CSV lines;
    ``undo`` maps the perturbed run's poses back into the frame of the unperturbed one.
    """
    base, moved = run(None), run(perturbation)
    return largest_pose_difference(base, moved, undo), base, moved


def in_process(scenario):
    return lambda perturb: trajectory_csv_lines(run_closed_loop(perturb(scenario) if perturb else scenario))


def in_child(path: Path, mode: str, seed: int):
    """Episodes in a child process that imports this semnav; ``env`` is set on the child only."""
    src = str(Path(semnav.__file__).resolve().parents[1])
    base_env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    base_env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(env):
        proc = subprocess.run([sys.executable, "-c", CHILD, str(path), mode, str(seed)],
                              env=dict(base_env, **(env or {})), capture_output=True, text=True, timeout=300, check=True)
        return proc.stdout.splitlines()

    return run


def reversed_objects(scenario):
    return replace(scenario, objects=scenario.objects[::-1])


def moved_scene(scenario, point, yaw):
    """The scene and the robot's start and goal mapped by ``point`` ((x, y) -> (x, y)) and ``yaw``."""
    assert not scenario.events, "events are not mapped"
    (x0, y0), (x1, y1) = point(*scenario.workspace[:2]), point(*scenario.workspace[2:])
    return replace(
        scenario,
        workspace=(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1)),
        start=(*point(*scenario.start[:2]), yaw(scenario.start[2])),
        goal=(*point(*scenario.goal[:2]), yaw(scenario.goal[2])),
        objects=[replace(o, center=point(*o.center), yaw=yaw(o.yaw)) for o in scenario.objects],
    )


SHIFT = (1.0, 0.5)  # whole cells of the 0.05 m map lattice


def translated(scenario):
    return moved_scene(scenario, lambda x, y: (x + SHIFT[0], y + SHIFT[1]), lambda t: t)


def untranslated(p):
    return p - [SHIFT[0], SHIFT[1], 0.0]


def mirrored(scenario):
    return moved_scene(scenario, lambda x, y: (x, -y), lambda t: -t)


def unmirrored(p):
    return p * [1.0, -1.0, -1.0]


def semantic_gap(seed: int):
    return replace(load_scenario(SCENARIO_DIR / "drawer_gap.json"), mode=MODE_SEMANTIC, seed=seed)


@pytest.mark.parametrize("name, mode", [
    ("drawer_gap.json", MODE_SEMANTIC),
    ("drawer_gap.json", MODE_NONSEMANTIC),
    ("drawer_gap.json", MODE_CLASSIC),
    ("drawer_shift.json", MODE_SEMANTIC),
])
def test_object_order_moves_no_bit(name, mode):
    scenario = replace(load_scenario(SCENARIO_DIR / name), mode=mode, seed=1)
    assert len(scenario.objects) > 1
    drift, base, moved = pose_drift(in_process(scenario), reversed_objects)
    assert moved == base, f"largest pose difference {drift} m"


def test_blas_thread_count_moves_no_bit():
    # the default child runs OpenBLAS's default thread count, one per core (two on a 2-core host)
    drift, base, moved = pose_drift(in_child(SCENARIO_DIR / "drawer_gap.json", MODE_SEMANTIC, 1),
                                    {"OPENBLAS_NUM_THREADS": "1"})
    assert len(base) > 1
    assert moved == base, f"largest pose difference {drift} m"


@pytest.mark.parametrize("seed", range(1, 6))
def test_whole_cell_translation_moves_a_path_only_by_rounding(seed):
    drift, base, _ = pose_drift(in_process(semantic_gap(seed)), translated, undo=untranslated)
    assert len(base) > 1
    assert drift <= ROUNDING_BOUND


@pytest.mark.parametrize("seed", range(1, 4))
def test_mirror_in_y_moves_a_path_only_by_rounding(seed):
    # depth noise is drawn in ray order, which a mirror reverses, so it is off on both sides
    scenario = semantic_gap(seed)
    scenario = replace(scenario, camera=replace(scenario.camera, depth_noise_sigma=0.0))
    drift, base, _ = pose_drift(in_process(scenario), mirrored, undo=unmirrored)
    assert len(base) > 1
    assert drift <= ROUNDING_BOUND


@pytest.mark.parametrize("seed", range(1, 6))
def test_one_ulp_on_every_qp_solution_moves_a_path_only_by_rounding(seed, monkeypatch):
    def run(ulp):
        with monkeypatch.context() as m:
            if ulp:
                m.setattr(semnav.mpc, "solve_qp", lambda qp: ulp(solve_qp(qp)))
            return trajectory_csv_lines(run_closed_loop(semantic_gap(seed)))

    drift, base, _ = pose_drift(run, lambda sol: replace(sol, x=np.nextafter(sol.x, np.inf)))
    assert len(base) > 1
    assert drift <= ROUNDING_BOUND


@pytest.mark.parametrize("seed", range(1, 6))
def test_blas_kernel_moves_a_path_only_by_rounding(seed):
    # OPENBLAS_CORETYPE picks OpenBLAS's kernel set: Prescott is an older x86-64 set than a current host's
    drift, base, _ = pose_drift(in_child(SCENARIO_DIR / "drawer_gap.json", MODE_SEMANTIC, seed),
                                {"OPENBLAS_CORETYPE": "Prescott"})
    assert len(base) > 1
    assert drift <= ROUNDING_BOUND

"""Perturbations that must not move a run by a single bit.

``pose_drift`` runs one episode as given and under one perturbation and
returns the largest pose difference with both trajectory CSVs. Object order
and BLAS thread count are exact today, so these tests pin equal CSVs.
Perturbations that move a path by rounding (translation, mirror, BLAS kernel)
get no bound here.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import semnav
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


def largest_pose_difference(a: list[str], b: list[str]) -> float:
    """Largest difference of x, y or theta between two trajectory CSVs; inf if their lengths differ."""
    if len(a) != len(b):
        return float("inf")
    poses = [np.array([[float(v) for v in line.split(",")[1:4]] for line in lines[1:]]) for lines in (a, b)]
    return float(np.abs(poses[0] - poses[1]).max(initial=0.0))


def pose_drift(run, perturbation):
    """Largest pose difference of ``run(perturbation)`` from ``run(None)``, and both trajectory CSVs.

    ``run`` runs one episode, under the perturbation it is given or none, and returns its CSV lines.
    """
    base, moved = run(None), run(perturbation)
    return largest_pose_difference(base, moved), base, moved


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

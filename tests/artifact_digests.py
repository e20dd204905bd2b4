"""Print digests of every artifact and every tick's plan over a fixed matrix of runs.

Usage: PYTHONPATH=<checkout>/src python tests/artifact_digests.py > digests.txt

``semnav`` comes from PYTHONPATH and the scenarios from this file's checkout, so
``cmp`` on the outputs of two checkouts shows whether a change kept every bit.
Run the newer checkout's script against both ``src`` trees, as in
``PYTHONPATH=<parent>/src python <change>/tests/artifact_digests.py``: an older
checkout's scenarios may hold a key the newer loader rejects (the shipped files
held ``"consistency_override": null`` until that key was removed).
Per run it prints the sha256 of ``trajectory.csv``, each ``field_*.csv``,
``run.svg`` and ``metrics.txt`` without its two wall-clock lines, then one line
per tick with the plan's status, max slack, objective, ``h_values`` and
iterations. It measures no time.

The directory ``semnav`` was imported from goes to stderr; when it is not under
the first PYTHONPATH entry (a mistyped path falls back to an installed
``semnav``), the script prints nothing to stdout and exits 2.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import semnav
from semnav.report import emit_outputs
from semnav.runner import run_closed_loop
from semnav.scenario import MODES, load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
WALL_CLOCK = ("mean_solve_time_s:", "mean_tick_time_s:")


def matrix():
    """(label, scenario) for the 54 runs: drawer_gap and drawer_shift over seeds, snapshot runs at seeds 0 and 7."""
    gap, shift = load_scenario(SCENARIO_DIR / "drawer_gap.json"), load_scenario(SCENARIO_DIR / "drawer_shift.json")
    for mode in MODES:
        for seed in range(1, 11):
            yield f"drawer_gap {mode} seed {seed}", replace(gap, mode=mode, seed=seed)
    for seed in range(1, 11):
        yield f"drawer_shift seed {seed}", replace(shift, seed=seed)
    sweep, open_goal = load_scenario(SCENARIO_DIR / "wall_sweep.json"), load_scenario(SCENARIO_DIR / "open_goal.json")
    for seed in (0, 7):
        runs = [(f"wall_sweep gamma_bar {g}", replace(sweep, controller=replace(sweep.controller, gamma_bar=g)))
                for g in (0.01, 0.03, 0.1, 0.5, 1.0)]
        runs += [("open_goal", open_goal), ("drawer_gap", gap)]
        for label, sc in runs:
            yield f"{label} seed {seed} snapshots", replace(sc, seed=seed, snapshot_ticks=(0, 5))


def artifact_digests(out: Path) -> list[tuple[str, str]]:
    digests = []
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "metrics.txt":
            data = b"".join(ln for ln in data.splitlines(keepends=True) if not ln.decode().startswith(WALL_CLOCK))
        digests.append((path.name, hashlib.sha256(data).hexdigest()))
    return digests


def imported_from_pythonpath() -> bool:
    """Write where ``semnav`` came from to stderr; whether that is under the first PYTHONPATH entry."""
    where = Path(semnav.__file__).resolve().parent
    print(f"semnav imported from {where}", file=sys.stderr)
    first = os.environ.get("PYTHONPATH", "").split(os.pathsep)[0]
    return bool(first) and where.is_relative_to(Path(first).resolve())


def main() -> None:
    if not imported_from_pythonpath():
        print("semnav is not under the first PYTHONPATH entry; set PYTHONPATH=<checkout>/src", file=sys.stderr)
        sys.exit(2)
    for label, sc in matrix():
        record = run_closed_loop(sc)
        with tempfile.TemporaryDirectory() as tmp:
            emit_outputs(record, tmp)
            for name, digest in artifact_digests(Path(tmp)):
                print(f"{label} | {name} {digest}")
        for i, row in enumerate(record.rows):
            plan = row.plan
            print(f"{label} | tick {i} {plan.status} {plan.max_slack!r} {float(plan.objective)!r} "
                  f"{[float(h) for h in plan.h_values]} {plan.iterations}")


if __name__ == "__main__":
    main()

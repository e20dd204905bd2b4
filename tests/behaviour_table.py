"""Print how each controller mode drives drawer_gap over scenario seeds 1-10.

Usage: PYTHONPATH=<checkout>/src python tests/behaviour_table.py

One row per mode, summed or averaged over the ten episodes:

- flips: command flips, a sign change of vx or vy between consecutive ticks
  with |v| > 0.9 v_max on both ticks (``flips``);
- ticks: control ticks run;
- path: mean path length of the true pose (m);
- clearance: mean over episodes of the smallest ground-truth distance from the
  true pose to any object (m);
- goals: episodes that reached the goal;
- degraded: ticks whose solve degraded;
- h<0: ticks with the barrier below zero at the true pose.

``semnav`` comes from PYTHONPATH and the scenario from this file's checkout, so
two checkouts' tables compare directly. It measures no time.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from semnav.geometry import point_box_distance
from semnav.runner import RunRecord, compute_metrics, run_closed_loop
from semnav.scenario import MODES, load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SEEDS = range(1, 11)
COLUMNS = ("mode", "flips", "ticks", "path", "clearance", "goals", "degraded", "h<0")


def flips(record: RunRecord) -> int:
    """Sign changes of vx or vy between consecutive ticks with |v| > 0.9 v_max on both ticks."""
    v = np.array([[r.input.vx, r.input.vy] for r in record.rows]).reshape(-1, 2)
    fast = np.abs(v) > 0.9 * record.scenario.controller.v_max
    return int(np.sum((v[1:] * v[:-1] < 0.0) & fast[1:] & fast[:-1]))


def true_clearance(record: RunRecord) -> float:
    """Smallest ground-truth distance from the true pose to any object of the scene as loaded (no events)."""
    return min(point_box_distance(r.true_pose.x, r.true_pose.y, o.center, o.yaw, *o.half_extents[:2])
               for r in record.rows for o in record.scenario.objects)


def drawer_gap_records(mode: str) -> list[RunRecord]:
    gap = load_scenario(SCENARIO_DIR / "drawer_gap.json")
    return [run_closed_loop(replace(gap, mode=mode, seed=seed)) for seed in SEEDS]


def table_row(mode: str, records: list[RunRecord]) -> tuple:
    metrics = [compute_metrics(r) for r in records]
    return (
        mode,
        sum(flips(r) for r in records),
        sum(len(r.rows) for r in records),
        f"{np.mean([m.path_length for m in metrics]):.2f}",
        f"{np.mean([true_clearance(r) for r in records]):.3f}",
        sum(m.goal_reached for m in metrics),
        sum(m.degraded_ticks for m in metrics),
        sum(m.ticks_h_negative for m in metrics),
    )


def main() -> None:
    print("| " + " | ".join(COLUMNS) + " |")
    print("|" + "---|" * len(COLUMNS))
    for mode in MODES:
        print("| " + " | ".join(map(str, table_row(mode, drawer_gap_records(mode)))) + " |", flush=True)


if __name__ == "__main__":
    main()

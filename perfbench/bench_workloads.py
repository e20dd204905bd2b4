"""Benchmark workloads: which scenarios each workload runs, derived from the seed.

A workload is an endless sequence of cycles. A cycle is the smallest mix of
episodes that has the workload's traffic shape (one episode, the five decay
rates of a sweep, or the two baseline modes), so a run that stops at a cycle
boundary always measures the same mix. Every episode's ``Scenario`` is made
here from a shipped file by ``dataclasses.replace``; the program only ever
receives scenarios.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from semnav.scenario import MODE_CLASSIC, MODE_NONSEMANTIC, MODE_SEMANTIC, Scenario, load_scenario

SWEEP_GAMMAS = (0.01, 0.03, 0.1, 0.5, 1.0)  # the decay rates of `semnav sweep` in the README


@dataclass(frozen=True)
class Workload:
    name: str
    scenario_file: str  # relative to the repository's scenarios/ directory
    why: str
    modes: tuple[str, ...] = (MODE_SEMANTIC,)
    gammas: tuple[float | None, ...] = (None,)  # None keeps the file's decay rate
    also_requires: tuple[str, ...] = ()  # spans this workload must record beyond the common set

    def variants(self) -> list[tuple[str, float | None]]:
        return [(mode, gamma) for mode in self.modes for gamma in self.gammas]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gap_semantic",
            scenario_file="drawer_gap.json",
            why="the paper's headline scene: 10 objects, every layer busy, mapping and barrier about 40% of a tick",
        ),
        Workload(
            name="shift_churn",
            scenario_file="drawer_shift.json",
            why="teleport, consistency collapse, removal and spawn: map writes beside reads, heaviest integration",
            also_requires=("mapping.remove",),
        ),
        Workload(
            name="sweep_control",
            scenario_file="wall_sweep.json",
            why="one object, five decay rates: MPC and QP dominate, short episodes make report emission a large share",
            gammas=SWEEP_GAMMAS,
        ),
        Workload(
            name="gap_baselines",
            scenario_file="drawer_gap.json",
            why="the only traffic for the plain EDF and the hard-constrained classic QP, which stalls for 250 ticks",
            modes=(MODE_NONSEMANTIC, MODE_CLASSIC),
        ),
    )
}


@dataclass(frozen=True)
class Episode:
    label: str
    scenario: Scenario

    @property
    def expect_goal(self) -> bool:
        # README: the classic hard-constrained baseline gets stuck at the rim
        return self.scenario.mode != MODE_CLASSIC


def load_base(workload: Workload, scenario_dir) -> Scenario:
    return load_scenario(scenario_dir / workload.scenario_file)


def episode_seed(workload_name: str, seed: int, cycle: int) -> int:
    """Scenario seed of one cycle: a fixed hash of (workload, seed, cycle)."""
    digest = hashlib.sha256(f"{workload_name}/{seed}/{cycle}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def cycle_episodes(workload: Workload, base: Scenario, seed: int, cycle: int) -> list[Episode]:
    """The episodes of one cycle. A pure function of its arguments."""
    scenario_seed = episode_seed(workload.name, seed, cycle)
    episodes = []
    for mode, gamma in workload.variants():
        scenario = replace(base, seed=scenario_seed, mode=mode)
        label = f"{workload.name}/c{cycle}/{mode}/seed{scenario_seed}"
        if gamma is not None:
            scenario = replace(scenario, controller=replace(scenario.controller, gamma_bar=gamma))
            label += f"/gamma{gamma:g}"
        episodes.append(Episode(label=label, scenario=scenario))
    return episodes

from dataclasses import replace
from pathlib import Path

from bench_workloads import SWEEP_GAMMAS, WORKLOADS, cycle_episodes, episode_seed, load_base
from semnav.scenario import MODE_CLASSIC

SCENARIOS = Path(__file__).resolve().parents[2] / "scenarios"


def test_episodes_are_a_pure_function_of_the_seed():
    for workload in WORKLOADS.values():
        base = load_base(workload, SCENARIOS)
        first = [cycle_episodes(workload, base, seed=7, cycle=c) for c in range(3)]
        again = [cycle_episodes(workload, load_base(workload, SCENARIOS), seed=7, cycle=c) for c in range(3)]
        assert first == again
        other = cycle_episodes(workload, base, seed=8, cycle=0)
        assert [e.scenario.seed for e in other] != [e.scenario.seed for e in first[0]]
        assert base == load_base(workload, SCENARIOS)  # the shipped scenario is not mutated


def test_episodes_differ_from_the_file_only_in_seed_mode_and_decay_rate():
    for workload in WORKLOADS.values():
        base = load_base(workload, SCENARIOS)
        for ep in cycle_episodes(workload, base, seed=3, cycle=1):
            restored = replace(
                ep.scenario, seed=base.seed, mode=base.mode, controller=base.controller
            )
            assert restored == base
            assert ep.scenario.controller == replace(base.controller, gamma_bar=ep.scenario.controller.gamma_bar)


def test_cycle_mix():
    sweep = WORKLOADS["sweep_control"]
    eps = cycle_episodes(sweep, load_base(sweep, SCENARIOS), seed=0, cycle=0)
    assert [e.scenario.controller.gamma_bar for e in eps] == list(SWEEP_GAMMAS)
    assert len({e.scenario.seed for e in eps}) == 1

    baselines = WORKLOADS["gap_baselines"]
    eps = cycle_episodes(baselines, load_base(baselines, SCENARIOS), seed=0, cycle=0)
    assert [e.expect_goal for e in eps] == [e.scenario.mode != MODE_CLASSIC for e in eps] == [True, False]


def test_episode_seed_is_stable_and_in_range():
    assert episode_seed("gap_semantic", 1, 0) == episode_seed("gap_semantic", 1, 0)
    seeds = {episode_seed(name, s, c) for name in WORKLOADS for s in range(5) for c in range(5)}
    assert len(seeds) == len(WORKLOADS) * 25
    assert all(0 <= s < 2**31 for s in seeds)

import pytest

from bench_metrics import EpisodeResult, failure_counts, tail_percentile
from run import mark_repeats


@pytest.mark.parametrize("n, want_p", [(200, 95.0), (1000, 95.0), (100, 90.0), (11, 100.0 * (1 - 10 / 11))])
def test_tail_percentile_keeps_ten_samples_beyond(n, want_p):
    values = [float(v) for v in range(n)]
    p, value = tail_percentile(values)
    assert p == pytest.approx(want_p)
    assert sum(v > value for v in values) >= 10


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 10)


def _episode(failed_flags, goal=True, expect_goal=True, collisions=0, identical=True, label="x", tick_ms=10.0):
    return EpisodeResult(
        label=label, cycle=0, traced=False, trace_id=0,
        tick_ms=[tick_ms] * len(failed_flags), tick_failed=failed_flags,
        degraded=sum(failed_flags), collisions=collisions,
        goal_reached=goal, expect_goal=expect_goal, ticks_to_goal=5,
        path_length=1.0, min_clearance=0.5, run_s=1.0, emit_s=0.1, cpu_s=1.0,
        trajectory_sha256="0", report_bytes=1, identical=identical,
    )


def test_failures_are_counted_against_attempted_ticks():
    eps = [
        _episode([False] * 8 + [True, True], label="a"),  # two failed ticks
        _episode([False] * 5, goal=False, label="b"),  # missed goal: every tick fails
        _episode([False] * 4, goal=False, expect_goal=False, label="c"),  # expected stall: fine
        _episode([False] * 3, identical=False, label="d"),  # not reproducible: every tick fails
        _episode([False] * 6, tick_ms=250.0, label="e"),  # mean tick over the budget: every tick fails
    ]
    attempted, failed = failure_counts(eps)
    assert attempted == 10 + 5 + 4 + 3 + 6
    assert failed == 2 + 5 + 0 + 3 + 6
    assert [ep.outcome_ok for ep in eps] == [True, False, True, False, False]


def test_replays_of_a_scenario_count_once():
    one = [_episode([False, True, False], label="a"), _episode([False] * 4, label="b")]
    replayed = one + [_episode([False, True, False], label="a") for _ in range(3)]
    assert failure_counts(one) == failure_counts(replayed) == (7, 1)
    # a play that fails its outcome check fails every tick of the scenario
    assert failure_counts(replayed + [_episode([False] * 3, goal=False, label="a")]) == (7, 3)


def test_a_slow_tick_is_a_timing_not_a_failure():
    ep = _episode([False] * 10)
    ep.tick_ms[3] = 900.0  # one stall of the host; the episode's mean stays within 200 ms
    assert ep.over_budget_ticks == 1 and ep.within_budget and ep.outcome_ok
    assert failure_counts([ep]) == (10, 0)


def test_runs_of_one_scenario_must_match_byte_for_byte():
    a, b, c = _episode([False]), _episode([False]), _episode([False])
    c.label = "other"
    b.trajectory_sha256 = "1"
    mark_repeats([a, b, c])
    assert [ep.identical for ep in (a, b, c)] == [False, False, True]
    assert failure_counts([a, b, c]) == (2, 1)  # the two plays of one scenario count once

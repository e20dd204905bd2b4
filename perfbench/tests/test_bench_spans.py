from dataclasses import replace
from pathlib import Path

import pytest

import semnav.runner
from bench_metrics import REQUIRED_SPANS, per_tick_table
from bench_spans import HookError, Patches, Recorder, install_layer_hooks, install_tick_hook, self_times
from semnav.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parents[2] / "scenarios"


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_spans_nest_and_self_time_is_non_negative():
    rec = Recorder(clock=FakeClock())
    rec.start_episode()
    for _ in range(2):
        rec.tick_boundary()
        outer = rec.open("mpc.step")
        inner = rec.open("qp.solve")
        rec.close(inner)
        rec.close(outer)
    rec.end_episode()

    names = [s.name for s in rec.spans]
    assert names == ["episode", "tick", "mpc.step", "qp.solve", "tick", "mpc.step", "qp.solve"]
    parents = [s.parent for s in rec.spans]
    assert parents == [-1, 0, 1, 2, 0, 4, 5]
    assert [(s.episode, s.tick) for s in rec.spans] == [(0, -1)] + [(0, 0)] * 3 + [(0, 1)] * 3
    selfs = self_times(rec.spans)
    assert all(v >= 0.0 for v in selfs)
    for tick in (1, 4):  # a tick's span self times add up to the tick
        members = [i for i, s in enumerate(rec.spans) if s.tick == rec.spans[tick].tick]
        assert sum(selfs[i] for i in members) == pytest.approx(rec.spans[tick].duration)
    assert selfs[0] == pytest.approx(rec.spans[0].duration - rec.spans[1].duration - rec.spans[4].duration)


def test_tick_boundary_inside_a_span_fails():
    rec = Recorder(clock=FakeClock())
    rec.start_episode()
    rec.tick_boundary()
    rec.open("mpc.step")
    with pytest.raises(HookError):
        rec.tick_boundary()


def test_missing_binding_fails_loudly(monkeypatch):
    monkeypatch.delattr(semnav.runner, "fuse_global_tsdf")
    patches = Patches()
    with pytest.raises(HookError, match="fuse_global_tsdf"):
        install_layer_hooks(patches, Recorder())
    patches.undo()


def test_hooks_record_every_layer_and_restore_bindings():
    original = semnav.runner.render_depth
    scenario = load_scenario(SCENARIOS / "wall_sweep.json")
    scenario = replace(scenario, duration=1.0)  # five ticks
    rec, patches = Recorder(), Patches()
    try:
        install_tick_hook(patches, rec)
        install_layer_hooks(patches, rec)
        rec.start_episode()
        record = semnav.runner.run_closed_loop(scenario)
        rec.end_episode()
    finally:
        patches.undo()
    assert semnav.runner.render_depth is original
    names = {s.name for s in rec.spans}
    assert set(REQUIRED_SPANS) - {"report.emit", "report.trajectory_csv", "report.field_csv", "report.svg"} <= names
    ticks, busy, own, counts = per_tick_table(rec.spans, {0})
    assert len(ticks) == len(record.rows) == 5
    assert all(v >= 0.0 for per in own.values() for v in per.values())
    assert all(counts[k][("barrier.edf", "edt_calls")] >= 1 for k in ticks)

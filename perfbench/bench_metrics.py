"""Metric definitions and the arithmetic that turns episodes and spans into them.

``END_TO_END`` and ``PER_LAYER`` are the metric tables; ``BENCHMARK.json``
must list the same names and units (a test checks this).
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from bench_spans import HookError, Span, self_times

TICK_BUDGET_MS = 200.0  # 5 Hz control rate: acceptance criterion 10 bounds the mean tick of an episode
TAIL_PERCENTILE = 95.0
TAIL_SAMPLES = 10  # samples that must lie beyond a reported tail percentile

# name, unit, better, bound (share of the parent's median a change may worsen it by)
END_TO_END = [
    ("tick_ms_p50", "ms", "lower", 0.25),
    ("tick_ms_p95", "ms", "lower", 0.25),
    ("cpu_ms_per_tick", "ms", "lower", 0.25),
    ("ticks_per_s", "1/s", "higher", 0.25),
    ("episode_s_p50", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_tick_ratio", "ratio", "higher", 0.03),
    ("goal_rate", "ratio", "higher", 0.05),
    ("time_to_goal_ticks", "ticks", "lower", 0.2),
    ("min_clearance_m", "m", "higher", 0.25),
    ("path_length_m", "m", "lower", 0.2),
]

# span names timed per tick; each yields <name>_ms_p50 and _p95 over the ticks that call it
TICK_STAGES = (
    "world.render", "mapping.segment", "mapping.associate", "mapping.integrate", "mapping.fuse",
    "consistency.delta", "consistency.update", "barrier.project", "barrier.edf", "barrier.cutoff",
    "barrier.query", "mpc.step", "qp.solve",
)
SELF_STAGES = [("mpc.step", "mpc.self_ms"), ("tick", "runner.self_ms")]

# per-tick means of counters: metric -> (span name, counter)
TICK_COUNTS = {
    "world.points": ("world.render", "points"),
    "mapping.integrations": ("mapping.integrate", "integrations"),
    "mapping.spawns": ("mapping.integrate", "spawns"),
    "mapping.removals": ("mapping.remove", "removals"),
    "mapping.objects": ("mapping.fuse", "objects"),
    "consistency.updates": ("consistency.update", None),
    "consistency.degenerate": ("consistency.update", "degenerate"),
    "barrier.boundary_cells": ("barrier.edf", "cells"),
    "barrier.edt_calls": ("barrier.edf", "edt_calls"),
    "barrier.queries": ("barrier.query", None),
    "barrier.clamped": ("barrier.query", "clamped"),
    "qp.degraded": ("qp.solve", "degraded"),
}

_STAGE_STEMS = [f"{name}_ms" for name in TICK_STAGES] + [stem for _, stem in SELF_STAGES]
PER_LAYER = (
    [(f"{stem}_{q}", "ms", "lower") for stem in _STAGE_STEMS for q in ("p50", "p95")]
    + [(name, "count", "lower") for name in TICK_COUNTS]
    + [
        ("mapping.integrated_ratio", "ratio", "higher"),
        ("qp.iterations_mean", "count", "lower"),
        ("qp.iterations_max", "count", "lower"),
        ("qp.kkt_max", "residual", "lower"),
        ("qp.vars", "count", "lower"),
        ("qp.eq_rows", "count", "lower"),
        ("qp.ineq_rows", "count", "lower"),
        ("report.emit_ms_p50", "ms", "lower"),
        ("report.svg_ms_p50", "ms", "lower"),
        ("report.field_csv_ms_p50", "ms", "lower"),
        ("report.trajectory_csv_ms_p50", "ms", "lower"),
        ("report.bytes", "B", "lower"),
        ("scenario.load_ms", "ms", "lower"),
        ("trace.tick_ms_p50", "ms", "lower"),
        ("trace.overhead_ms", "ms", "lower"),
    ]
)

# spans every workload must produce; each workload may require more
REQUIRED_SPANS = (
    "world.render", "mapping.segment", "mapping.associate", "mapping.integrate", "mapping.fuse",
    "consistency.delta", "consistency.update", "barrier.project", "barrier.edf", "barrier.cutoff",
    "barrier.query", "mpc.step", "qp.solve", "report.emit", "report.trajectory_csv",
    "report.field_csv", "report.svg",
)


@dataclass
class EpisodeResult:
    label: str
    cycle: int
    traced: bool
    trace_id: int  # the recorder's episode number, which labels this episode's spans
    tick_ms: list[float]
    tick_failed: list[bool]  # degraded or in collision
    degraded: int
    collisions: int
    goal_reached: bool
    expect_goal: bool
    ticks_to_goal: int | None  # control ticks before the goal, when reached
    path_length: float
    min_clearance: float
    run_s: float
    emit_s: float
    cpu_s: float
    trajectory_sha256: str
    report_bytes: int
    identical: bool = True  # trajectory bytes match an earlier run of the same scenario

    @property
    def over_budget_ticks(self) -> int:
        return sum(ms > TICK_BUDGET_MS for ms in self.tick_ms)

    @property
    def within_budget(self) -> bool:
        return statistics.fmean(self.tick_ms) <= TICK_BUDGET_MS

    @property
    def outcome_ok(self) -> bool:
        return (
            self.goal_reached == self.expect_goal
            and self.collisions == 0
            and self.identical
            and self.within_budget
        )


def tail_percentile(values, want: float = TAIL_PERCENTILE, beyond: int = TAIL_SAMPLES) -> tuple[float, float]:
    """The highest percentile up to ``want`` with at least ``beyond`` samples above it.

    Returns (percentile, value). With linear interpolation between order
    statistics, ``beyond`` samples lie above percentile 100 * (1 - beyond / n).
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")
    p = min(want, 100.0 * (1.0 - beyond / n))
    return p, float(np.percentile(values, p))


def failure_counts(episodes: list[EpisodeResult]) -> tuple[int, int]:
    """(attempted, failed) ticks of the distinct scenarios among ``episodes``.

    Plays of one scenario (same label) are one set of operations: a tick fails
    if it fails in any play, and every tick of a scenario fails if any play
    fails its outcome check. So the counts depend on the scenarios a run
    plays, not on how often the time limit let it replay them.
    """
    plays: dict[str, list[EpisodeResult]] = defaultdict(list)
    for ep in episodes:
        plays[ep.label].append(ep)
    attempted = failed = 0
    for group in plays.values():
        ticks = max(len(ep.tick_ms) for ep in group)
        attempted += ticks
        if all(ep.outcome_ok for ep in group):
            failed += max(sum(ep.tick_failed) for ep in group)
        else:
            failed += ticks
    return attempted, failed


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else float("nan")


def end_to_end(episodes: list[EpisodeResult], setup_s: list[float], peak_rss_mb: float) -> dict[str, float]:
    ticks = [t for ep in episodes for t in ep.tick_ms]
    attempted, failed = failure_counts(episodes)
    by_cycle: dict[int, list[float]] = defaultdict(list)
    for ep in episodes:
        by_cycle[ep.cycle].append(ep.run_s + ep.emit_s)
    # navigation is a property of the scenario: one play of each, however often replayed
    distinct = list({ep.label: ep for ep in episodes}.values())
    reached = [ep for ep in distinct if ep.goal_reached]
    return {
        "tick_ms_p50": statistics.median(ticks),
        "tick_ms_p95": tail_percentile(ticks)[1],
        "cpu_ms_per_tick": 1000.0 * sum(ep.cpu_s for ep in episodes) / len(ticks),
        "ticks_per_s": len(ticks) / sum(ep.run_s + ep.emit_s for ep in episodes),
        # a cycle holds one episode of each variant, so per-cycle means keep the mix fixed
        "episode_s_p50": statistics.median(_mean(v) for v in by_cycle.values()),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "ok_tick_ratio": 1.0 - failed / attempted,
        "goal_rate": len(reached) / len(distinct),
        "time_to_goal_ticks": _mean([ep.ticks_to_goal for ep in reached]),
        "min_clearance_m": _mean([ep.min_clearance for ep in distinct]),
        "path_length_m": _mean([ep.path_length for ep in reached]),
    }


def per_tick_table(spans: list[Span], episodes: set[int]):
    """Busy and self seconds and counters per (episode, tick) and span name, for the given episodes.

    Also checks that the self times of each tick's spans add up to the tick.
    """
    selfs = self_times(spans)
    busy: dict = defaultdict(lambda: defaultdict(float))
    own: dict = defaultdict(lambda: defaultdict(float))
    counts: dict = defaultdict(lambda: defaultdict(float))
    ticks: dict = {}
    for span, self_s in zip(spans, selfs):
        if span.tick < 0 or span.episode not in episodes:
            continue
        key = (span.episode, span.tick)
        if span.name == "tick":
            ticks[key] = span.duration
        busy[key][span.name] += span.duration
        own[key][span.name] += self_s
        counts[key][(span.name, None)] += 1
        for counter, value in (span.counts or {}).items():
            counts[key][(span.name, counter)] += value
    for key, tick_s in ticks.items():
        accounted = sum(own[key].values())
        if abs(accounted - tick_s) > 1e-9 + 1e-9 * tick_s:
            raise HookError(f"tick {key}: self times sum to {accounted!r} s, tick lasted {tick_s!r} s")
    return ticks, busy, own, counts


def per_layer(
    spans: list[Span],
    traced: list[EpisodeResult],
    untraced_tick_p50: float,
    load_ms: list[float],
    required: tuple[str, ...],
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics, and each stage's mean busy ms per tick (the form of the ROADMAP baseline table)."""
    traced_ids = {ep.trace_id for ep in traced}
    ticks, busy, own, counts = per_tick_table(spans, traced_ids)
    seen = {s.name for s in spans if s.episode in traced_ids}
    missing = sorted(set(required) - seen)
    if missing:
        raise HookError(f"no spans recorded for {missing}; the program no longer calls the hooked bindings")
    keys = sorted(ticks)
    out: dict[str, float] = {}

    def quantiles(stem, table, name) -> None:
        values = [1000.0 * table[k][name] for k in keys if name in table[k]]
        out[f"{stem}_p50"] = statistics.median(values)
        out[f"{stem}_p95"] = tail_percentile(values)[1] if len(values) > TAIL_SAMPLES else max(values)

    means = {}
    for name in TICK_STAGES:
        quantiles(f"{name}_ms", busy, name)
        means[name] = 1000.0 * sum(busy[k].get(name, 0.0) for k in keys) / len(keys)
    for name, stem in SELF_STAGES:
        quantiles(stem, own, name)
    for metric, key in TICK_COUNTS.items():
        out[metric] = _mean([counts[k].get(key, 0.0) for k in keys])

    def total(name, counter=None):
        return sum(counts[k].get((name, counter), 0.0) for k in keys)

    matched = total("mapping.associate", "matched")
    out["mapping.integrated_ratio"] = total("mapping.integrate", "integrations") / matched if matched else float("nan")
    solves = [s for s in spans if s.name == "qp.solve" and s.episode in traced_ids]
    out["qp.iterations_mean"] = _mean([s.counts["iterations"] for s in solves])
    out["qp.iterations_max"] = max(s.counts["iterations"] for s in solves)
    out["qp.kkt_max"] = max(s.counts["kkt"] for s in solves)
    for counter in ("vars", "eq_rows", "ineq_rows"):
        out[f"qp.{counter}"] = _mean([s.counts[counter] for s in solves])

    per_episode: dict = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s.episode in traced_ids and s.name.startswith("report."):
            per_episode[s.episode][s.name] += s.duration
    for name in ("emit", "svg", "field_csv", "trajectory_csv"):
        out[f"report.{name}_ms_p50"] = 1000.0 * statistics.median(v[f"report.{name}"] for v in per_episode.values())
    out["report.bytes"] = _mean([ep.report_bytes for ep in traced])
    out["scenario.load_ms"] = statistics.median(load_ms)
    out["trace.tick_ms_p50"] = 1000.0 * statistics.median(ticks.values())
    out["trace.overhead_ms"] = out["trace.tick_ms_p50"] - untraced_tick_p50
    means["tick"] = 1000.0 * _mean(list(ticks.values()))
    return out, means

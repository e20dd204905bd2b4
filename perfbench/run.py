#!/usr/bin/env python3
"""Closed-loop tick benchmark of semnav.

Runs one workload as a closed loop in this process: each episode is
``run_closed_loop`` followed by ``emit_outputs``, which is what ``semnav run``
does, and each tick starts when the previous one returns (one client, no
pacing; 5 Hz is simulated time). Checks every episode's outcome and prints
the metrics by name and unit; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload gap_semantic --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` plays each cycle
untraced and then traced, and reports the per-layer metrics, including the
tracing overhead. Run artefacts (result JSON, spans) go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
OUT = ROOT / ".perfbench_out"
# ticks in the run's distinct scenarios: at least 200, so that ten lie beyond p95, and
# enough episodes that the navigation means do not hang on two or three scenarios
PASS_TICKS = 400

SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import semnav
from semnav.scenario import load_scenario
t1 = time.perf_counter()
for path in sys.argv[2:]:
    load_scenario(path)
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1]))
"""


def measure_setup(files: list[Path], setup_s: list[float], load_ms: list[float]) -> None:
    """One fresh-interpreter import of semnav plus loading the scenario files; appends the times."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), *map(str, files)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    import_s, load_s = json.loads(proc.stdout.splitlines()[-1])
    setup_s.append(import_s + load_s)
    load_ms.append(1000.0 * load_s)


def min_clearance(scenario, rows) -> float:
    """Smallest ground-truth distance from the robot to any object over the episode."""
    from semnav.geometry import point_box_distance
    from semnav.world import apply_scene_events

    world, applied, best = list(scenario.objects), set(), float("inf")
    for row in rows:
        world = apply_scene_events(world, scenario.events, applied, row.t)
        for o in world:
            d = point_box_distance(row.true_pose.x, row.true_pose.y, o.center, o.yaw, o.half_extents[0], o.half_extents[1])
            best = min(best, d)
    return best


def run_episode(episode, cycle: int, traced: bool, rec, out_dir: Path):
    import semnav.report
    import semnav.runner
    from bench_metrics import EpisodeResult
    from bench_spans import HookError

    first_span = len(rec.spans)
    rec.start_episode()
    trace_id = rec.episode
    cpu0, t0 = time.process_time(), time.perf_counter()
    record = semnav.runner.run_closed_loop(episode.scenario)
    t1, cpu1 = time.perf_counter(), time.process_time()
    rec.close_tick()
    emit = rec.open("report.emit")
    metrics = semnav.report.emit_outputs(record, out_dir)
    rec.close(emit)
    t2 = time.perf_counter()
    rec.end_episode()

    tick_ms = [1000.0 * s.duration for s in rec.spans[first_span:] if s.name == "tick"]
    if len(tick_ms) != len(record.rows):
        raise HookError(f"{len(tick_ms)} tick boundaries for {len(record.rows)} ticks: the tick hook no longer fires once per tick")
    traj = (out_dir / "trajectory.csv").read_bytes()
    report_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
    shutil.rmtree(out_dir)
    return EpisodeResult(
        label=episode.label,
        cycle=cycle,
        traced=traced,
        trace_id=trace_id,
        tick_ms=tick_ms,
        tick_failed=[r.degraded or r.collision for r in record.rows],
        degraded=metrics.degraded_ticks,
        collisions=metrics.collision_ticks,
        goal_reached=metrics.goal_reached,
        expect_goal=episode.expect_goal,
        ticks_to_goal=len(record.rows) if metrics.goal_reached else None,
        path_length=metrics.path_length,
        min_clearance=min_clearance(episode.scenario, record.rows),
        run_s=t1 - t0,
        emit_s=t2 - t1,
        cpu_s=cpu1 - cpu0,
        trajectory_sha256=hashlib.sha256(traj).hexdigest(),
        report_bytes=report_bytes,
    )


def mark_repeats(episodes) -> None:
    """Runs of the same scenario must write byte-identical trajectories."""
    digests: dict[str, set[str]] = {}
    for ep in episodes:
        digests.setdefault(ep.label, set()).add(ep.trajectory_sha256)
    for ep in episodes:
        ep.identical = len(digests[ep.label]) == 1


def run_workload(name: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    from bench_env import environment
    from bench_metrics import REQUIRED_SPANS, end_to_end, failure_counts, per_layer
    from bench_spans import Patches, Recorder, install_layer_hooks, install_tick_hook
    from bench_workloads import WORKLOADS, cycle_episodes, load_base

    workload = WORKLOADS[name]
    # set-up is sampled at the start, after the first cycle and at the end: on a
    # shared machine speed drifts over tens of seconds, and samples spread over
    # the run average that drift better than samples taken back to back
    files, setup_s, load_ms = [SCENARIOS / workload.scenario_file], [], []
    measure_setup(files, setup_s, load_ms)
    base = load_base(workload, SCENARIOS)
    rec, patches, layer_patches = Recorder(), Patches(), Patches()
    episodes = []
    try:
        install_tick_hook(patches, rec)
        # warm-up: lazy imports and first-call set-up; its bytes join the repeat check
        warm = run_episode(cycle_episodes(workload, base, seed, 0)[0], -1, False, rec, run_dir / "warmup")
        start = time.perf_counter()
        # the run's scenarios are the first whole cycles that hold PASS_TICKS ticks;
        # after them it replays those cycles in order until the time is up, so what
        # it plays, and what can fail, follows from the seed and not from the clock
        cycle, pass_cycles = 0, None
        while True:
            scenario_cycle = cycle if pass_cycles is None else cycle % pass_cycles
            # a traced run repeats each cycle traced, so the overhead compares equal work
            for traced in (False, True) if trace else (False,):
                if traced:
                    install_layer_hooks(layer_patches, rec)
                try:
                    for i, ep in enumerate(cycle_episodes(workload, base, seed, scenario_cycle)):
                        episodes.append(run_episode(ep, cycle, traced, rec, run_dir / f"c{cycle}e{i}"))
                finally:
                    layer_patches.undo()
            if cycle == 0:
                measure_setup(files, setup_s, load_ms)
            cycle += 1
            measured = sum(len(ep.tick_ms) for ep in episodes if ep.traced == trace)
            if pass_cycles is None and measured >= PASS_TICKS:
                pass_cycles = cycle
            if time.perf_counter() - start >= seconds and pass_cycles is not None:
                break
    finally:
        patches.undo()
        layer_patches.undo()
    measure_setup(files, setup_s, load_ms)

    mark_repeats([warm] + episodes)
    attempted, failed = failure_counts(episodes)
    untraced = [ep for ep in episodes if not ep.traced]
    e2e = end_to_end(untraced, setup_s, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    stage_mean_ms = None
    if trace:
        metrics, stage_mean_ms = per_layer(
            rec.spans,
            [ep for ep in episodes if ep.traced],
            e2e["tick_ms_p50"],
            load_ms,
            REQUIRED_SPANS + workload.also_requires,
        )
    else:
        metrics = e2e
    env = environment(ROOT, SRC, name, seed)
    result = {
        "correct": all(ep.outcome_ok for ep in episodes),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    details = {
        "env": env,
        "args": {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)},
        "end_to_end": e2e,
        "setup_s": setup_s,
        "scenario_load_ms": load_ms,
        "stage_mean_ms": stage_mean_ms,
        "warmup": {"label": warm.label, "sha256": warm.trajectory_sha256},
        "pass_cycles": pass_cycles,
        "episodes": [
            {**{k: v for k, v in asdict(ep).items() if k not in ("tick_ms", "tick_failed")},
             "over_budget_ticks": ep.over_budget_ticks}
            for ep in episodes
        ],
        "result": result,
    }
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "result.json").write_text(json.dumps(details, indent=1, default=str) + "\n", encoding="utf-8")
    if trace:
        with gzip.open(run_dir / "spans.jsonl.gz", "wt", encoding="utf-8") as fh:
            for i, s in enumerate(rec.spans):
                fh.write(json.dumps([i, s.name, s.start, s.end, s.parent, s.episode, s.tick, s.counts]) + "\n")
    return {"env": env, "result": result, "episodes": episodes}


def print_summary(name: str, out: dict, units: dict[str, str]) -> None:
    from bench_metrics import TICK_BUDGET_MS

    result = out["result"]
    print(f"# {name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    for ep in out["episodes"]:
        if not ep.outcome_ok:
            print(f"#   FAILED {ep.label}: goal={ep.goal_reached} (expected {ep.expect_goal}) "
                  f"collisions={ep.collisions} identical={ep.identical} within_budget={ep.within_budget}")
    over = sum(ep.over_budget_ticks for ep in out["episodes"])
    if over:
        print(f"#   {over} ticks over the {TICK_BUDGET_MS:g} ms budget (a timing, not a failure)")
    for metric, value in result["metrics"].items():
        print(f"{name:14s} {metric:32s} {value:14.6g} {units[metric]}")


def validate_tree() -> str | None:
    if not (SRC / "semnav" / "__init__.py").is_file():
        return f"program source not found at {SRC / 'semnav'}"
    if not SCENARIOS.is_dir():
        return f"scenario directory not found at {SCENARIOS}"
    return None


def run_all(args) -> int:
    """Each workload in its own fresh process; prints every workload's metrics."""
    from bench_workloads import WORKLOADS

    combined, ok = {}, True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        print("\n".join(line for line in proc.stdout.splitlines()[:-1]), flush=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        combined[name] = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and combined[name]["correct"]
    print(json.dumps(combined))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="minimum measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = validate_tree()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import semnav

    if Path(semnav.__file__).resolve().parent != (SRC / "semnav").resolve():
        print(f"perfbench: imported semnav from {semnav.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from bench_metrics import END_TO_END, PER_LAYER
    from bench_spans import HookError
    from bench_workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    except HookError as exc:
        print(f"perfbench: hook failure: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"env": out["env"]}))
    table = PER_LAYER if args.trace else END_TO_END
    print_summary(args.workload, out, {name: unit for name, unit, *_ in table})
    result = out["result"]
    values = result["metrics"]
    # a metric over an empty set (say, no episode reached the goal) has no value
    result["metrics"] = {
        name: {"value": values[name] if math.isfinite(values[name]) else None, "unit": unit} for name, unit, *_ in table
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry points: run a scenario, sweep the decay rate, validate files."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .scenario import MODES, ScenarioError, load_scenario, scenario_from_dict, scenario_to_dict


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("scenario", type=Path, help="scenario JSON file")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--mode", choices=MODES, default=None, help="override the controller mode")


def _load(args, gamma_bar: float | None = None):
    """The scenario file with the command-line overrides, checked by the same loader as the file."""
    data = scenario_to_dict(load_scenario(args.scenario))
    data.update({key: getattr(args, key) for key in ("seed", "mode") if getattr(args, key) is not None})
    if gamma_bar is not None:
        data["controller"]["gamma_bar"] = gamma_bar
    return scenario_from_dict(data)


def cmd_run(args) -> int:
    from .report import emit_outputs
    from .runner import run_closed_loop

    scenario = _load(args, args.gamma_bar)
    record = run_closed_loop(scenario)
    metrics = emit_outputs(record, args.out)
    if args.export_tsdf:
        from .mapping import export_global_tsdf, fuse_global_tsdf

        export_global_tsdf(fuse_global_tsdf(record.final_library), str(Path(args.out) / "global_tsdf"))
    print(f"{scenario.name}: goal_reached={metrics.goal_reached} min_h={metrics.min_h:.3f} -> {args.out}")
    return 0


def cmd_sweep(args) -> int:
    from .report import emit_outputs
    from .runner import run_closed_loop

    try:
        gammas = [float(tok) for tok in args.gamma_bar.split(",") if tok]
    except ValueError:
        print("sweep: --gamma-bar expects a comma-separated list of numbers", file=sys.stderr)
        return 2
    if not gammas:
        print("sweep: no gamma values given", file=sys.stderr)
        return 2
    labels = [f"{gamma:g}" for gamma in gammas]  # each run writes to <out>/gamma_<label>
    if len(set(labels)) < len(labels):
        print(f"sweep: two --gamma-bar values share one output directory name in {','.join(labels)}", file=sys.stderr)
        return 2
    scenarios = [_load(args, gamma) for gamma in gammas]  # every value is checked before the first run
    for label, scenario in zip(labels, scenarios):
        record = run_closed_loop(replace(scenario, name=f"{scenario.name}_gamma{label}"))
        out_dir = Path(args.out) / f"gamma_{label}"
        metrics = emit_outputs(record, out_dir)
        print(
            f"gamma_bar={label}: goal_reached={metrics.goal_reached} "
            f"min_h={metrics.min_h:.3f} path={metrics.path_length:.2f} -> {out_dir}"
        )
    return 0


def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    print(f"{args.scenario}: ok ({scenario.name}, {len(scenario.objects)} objects, mode={scenario.mode})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="semnav", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario closed-loop")
    _add_common(p_run)
    p_run.add_argument("--gamma-bar", type=float, default=None, help="override the barrier decay rate")
    p_run.add_argument("--export-tsdf", action="store_true", help="also dump the final fused map block (raw f32 + text header)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the scenario for several decay rates")
    _add_common(p_sweep)
    p_sweep.add_argument("--gamma-bar", required=True, help="comma-separated decay rates")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="parse and check a scenario file")
    p_val.add_argument("scenario", type=Path)
    p_val.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a missing file, a directory, no read permission
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

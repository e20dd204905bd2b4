"""The benchmark's own tests run with the suite.

The traced benchmark rebinds names on ``semnav.runner``, ``semnav.mpc``,
``semnav.report``, ``semnav.barrier`` and ``CbfField``; renaming one of them
in ``src/`` fails ``perfbench/tests`` here instead of only a traced run.
"""

import subprocess
import sys
from dataclasses import replace

import pytest

from semnav.runner import run_closed_loop
from semnav.scenario import MODE_CLASSIC, MODE_NONSEMANTIC, load_scenario

from conftest import REPO_ROOT, SCENARIO_DIR

if str(REPO_ROOT / "perfbench") not in sys.path:  # as perfbench/tests/conftest.py does
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))

from bench_metrics import REQUIRED_SPANS, per_tick_table  # noqa: E402
from bench_spans import Patches, Recorder, install_layer_hooks, install_tick_hook  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402


def test_perfbench_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench/tests", "-q", "-p", "no:cacheprovider"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]


@pytest.mark.parametrize("mode", [MODE_NONSEMANTIC, MODE_CLASSIC])
def test_traced_hooks_cover_the_plain_barrier(mode):
    # perfbench/tests traces a semantic scene only; a plain run that lost a
    # required span, such as barrier.edf, would fail a traced gap_baselines run
    scenario = replace(load_scenario(SCENARIO_DIR / "drawer_gap.json"), mode=mode, duration=1.0)  # five ticks
    rec, patches = Recorder(), Patches()
    try:
        install_tick_hook(patches, rec)
        install_layer_hooks(patches, rec)
        rec.start_episode()
        record = run_closed_loop(scenario)
        rec.end_episode()
    finally:
        patches.undo()
    assert {name for name in REQUIRED_SPANS if not name.startswith("report.")} <= {s.name for s in rec.spans}
    ticks = per_tick_table(rec.spans, {0})[0]
    assert len(ticks) == len(record.rows) == 5


def test_traced_hooks_cover_a_removal():
    # shift_churn also requires mapping.remove, and the five-tick runs above remove
    # nothing; a full drawer_shift run removes the teleported drawer and respawns it
    workload = WORKLOADS["shift_churn"]
    scenario = load_scenario(SCENARIO_DIR / workload.scenario_file)
    rec, patches = Recorder(), Patches()
    try:
        install_tick_hook(patches, rec)
        install_layer_hooks(patches, rec)
        rec.start_episode()
        record = run_closed_loop(scenario)
        rec.end_episode()
    finally:
        patches.undo()
    assert record.removed_objects and record.spawned_objects
    required = {name for name in REQUIRED_SPANS if not name.startswith("report.")} | set(workload.also_requires)
    assert required <= {s.name for s in rec.spans}
    ticks = per_tick_table(rec.spans, {0})[0]
    assert len(ticks) == len(record.rows)

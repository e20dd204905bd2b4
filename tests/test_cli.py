import json
import os
import subprocess
import sys

import pytest

from semnav.cli import main

from conftest import REPO_ROOT, SCENARIO_DIR


def test_validate_ok(scenario_dir, capsys):
    rc = main(["validate", str(scenario_dir / "open_goal.json")])
    assert rc == 0
    assert "ok" in capsys.readouterr().out


def test_validate_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "bogus": 1}))
    rc = main(["validate", str(bad)])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2


def test_directory_path_exit_code(tmp_path, capsys):
    assert main(["validate", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unwritable_output_exit_code(scenario_dir, tmp_path, capsys):
    blocker = tmp_path / "out"
    blocker.write_text("")  # a file where the output directory should go
    assert main(["run", str(scenario_dir / "open_goal.json"), "--out", str(blocker)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_run_writes_outputs(scenario_dir, tmp_path, capsys):
    rc = main(["run", str(scenario_dir / "open_goal.json"), "--out", str(tmp_path / "out"), "--export-tsdf"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "goal_reached=True" in out
    assert (tmp_path / "out" / "trajectory.csv").exists()
    assert (tmp_path / "out" / "run.svg").exists()


def test_run_mode_and_gamma_overrides(scenario_dir, tmp_path):
    rc = main([
        "run", str(scenario_dir / "open_goal.json"), "--out", str(tmp_path / "o2"),
        "--mode", "nonsemantic_mpc_cbf", "--gamma-bar", "0.5", "--seed", "9",
    ])
    assert rc == 0


def test_sweep(scenario_dir, tmp_path, capsys):
    rc = main([
        "sweep", str(scenario_dir / "open_goal.json"), "--out", str(tmp_path / "sw"),
        "--gamma-bar", "0.1,1.0",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gamma_bar=0.1" in out and "gamma_bar=1" in out
    assert (tmp_path / "sw" / "gamma_0.1" / "metrics.txt").exists()
    assert (tmp_path / "sw" / "gamma_1" / "metrics.txt").exists()


def test_sweep_rejects_bad_gamma_list(scenario_dir, tmp_path):
    assert main(["sweep", str(scenario_dir / "open_goal.json"), "--out", str(tmp_path), "--gamma-bar", "abc"]) == 2


def test_run_rejects_bad_gamma_override(scenario_dir, tmp_path, capsys):
    rc = main(["run", str(scenario_dir / "open_goal.json"), "--out", str(tmp_path / "o"), "--gamma-bar", "5"])
    assert rc == 2
    assert "controller.gamma_bar: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_checks_every_gamma_before_the_first_run(scenario_dir, tmp_path, capsys):
    rc = main(["sweep", str(scenario_dir / "open_goal.json"), "--out", str(tmp_path / "sw"), "--gamma-bar", "0.1,-1"])
    assert rc == 2
    assert "controller.gamma_bar: " in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("gammas", ["0.1234567,0.1234568", "0.1,0.5,0.1"])
def test_sweep_rejects_rates_that_share_an_output_directory(scenario_dir, tmp_path, capsys, gammas):
    # each rate writes to gamma_{rate:g}: a second one would overwrite the first
    rc = main(["sweep", str(scenario_dir / "open_goal.json"), "--out", str(tmp_path / "sw"), "--gamma-bar", gammas])
    assert rc == 2
    assert "share one output directory" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def _scipy_modules_after(code: str) -> list[str]:
    """The scipy modules in sys.modules after a fresh interpreter runs code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    report = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    proc = subprocess.run([sys.executable, "-c", f"import json, sys; {code}; {report}"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_leaves_scipy_optimize_unloaded():
    # assignment lives in semnav.mapping; scipy.optimize would add its whole solver stack to every start-up
    loaded = _scipy_modules_after("import semnav, semnav.runner, semnav.report, semnav.cli")
    assert [m for m in loaded if m.startswith("scipy.optimize")] == []


def test_import_load_and_validate_leave_scipy_unloaded():
    # only the run path (runner, barrier, mpc, qp, report) needs SciPy; start-up and validate do not
    path = str(SCENARIO_DIR / "drawer_gap.json")
    assert _scipy_modules_after(
        f"import semnav, semnav.cli; semnav.load_scenario({path!r}); semnav.cli.main(['validate', {path!r}])"
    ) == []

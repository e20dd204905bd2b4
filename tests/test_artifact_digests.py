import os
import subprocess
import sys

from conftest import REPO_ROOT

SCRIPT = REPO_ROOT / "tests" / "artifact_digests.py"


def run_digests(pythonpath):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    return subprocess.run([sys.executable, str(SCRIPT)], env=env, capture_output=True, text=True, timeout=120)


def test_refuses_a_semnav_from_outside_the_first_pythonpath_entry(tmp_path):
    # a first entry without semnav stands for a mistyped checkout path; the import falls through to the next
    proc = run_digests([str(tmp_path), str(REPO_ROOT / "src")])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"semnav imported from {(REPO_ROOT / 'src' / 'semnav').resolve()}" in proc.stderr


def test_names_the_imported_semnav_on_stderr_only(monkeypatch, capsys):
    import artifact_digests

    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)]))
    assert artifact_digests.imported_from_pythonpath()
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"semnav imported from {(REPO_ROOT / 'src' / 'semnav').resolve()}\n"
    monkeypatch.delenv("PYTHONPATH")
    assert not artifact_digests.imported_from_pythonpath()

"""The benchmark's own tests run with the suite.

The traced benchmark rebinds names on ``semnav.runner``, ``semnav.mpc``,
``semnav.report``, ``semnav.barrier`` and ``CbfField``; renaming one of them
in ``src/`` fails ``perfbench/tests`` here instead of only a traced run.
"""

import subprocess
import sys

from conftest import REPO_ROOT


def test_perfbench_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench/tests", "-q", "-p", "no:cacheprovider"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]

"""Print how far one tree's runs drift from another's over the digest matrix.

Usage: python tests/pose_drift.py <parent_src> <change_src>

Each tree runs ``artifact_digests.matrix()`` in its own child process, with
that ``src`` directory as the first PYTHONPATH entry; the scenarios come from
this file's checkout. One line per scenario and mode, over its seeds:

- pose: the largest planar distance between the two true poses at one tick (m);
- ev: the largest |E[v]| difference of one object at one tick;
- ticks: runs whose tick counts differ;
- status: ticks, of those both runs reached, whose plan status or set of
  mapped objects differ.

A child whose ``semnav`` is not under its ``src`` makes the script exit 2. It
measures no time.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

COLUMNS = ("scenario", "runs", "pose", "ev", "ticks", "status")


def dump() -> None:
    """Child side: one JSON line per run of the matrix with its poses, E[v] and statuses per tick."""
    import artifact_digests
    from semnav.runner import run_closed_loop

    if not artifact_digests.imported_from_pythonpath():
        sys.exit(2)
    for label, sc in artifact_digests.matrix():
        rows = run_closed_loop(sc).rows
        print(json.dumps({"label": label, "pose": [[r.true_pose.x, r.true_pose.y] for r in rows],
                          "ev": [{str(k): v for k, v in r.object_ev.items()} for r in rows],
                          "status": [r.plan.status for r in rows]}))


def runs_of(src: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.Popen([sys.executable, __file__, "--dump"], env=env, stdout=subprocess.PIPE, text=True)


def drift(parent: list[dict], change: list[dict]) -> list[tuple]:
    """One row per scenario and mode (a label without its seed), in matrix order."""
    rows: dict[str, list] = {}
    for a, b in zip(parent, change, strict=True):
        assert a["label"] == b["label"], (a["label"], b["label"])
        row = rows.setdefault(re.sub(r" seed \d+", "", a["label"]), [0, 0.0, 0.0, 0, 0])
        row[0] += 1
        row[3] += len(a["pose"]) != len(b["pose"])
        for pa, pb, ea, eb, sa, sb in zip(a["pose"], b["pose"], a["ev"], b["ev"], a["status"], b["status"]):
            row[1] = max(row[1], math.dist(pa, pb))
            row[2] = max([row[2]] + [abs(ea[k] - eb[k]) for k in ea.keys() & eb.keys()])
            row[4] += sa != sb or ea.keys() != eb.keys()
    return [(label, *row) for label, row in rows.items()]


def main(parent_src: str, change_src: str) -> None:
    children = [runs_of(src) for src in (parent_src, change_src)]
    outputs = [child.communicate()[0] for child in children]
    if any(child.returncode for child in children):
        sys.exit(2)
    parent, change = ([json.loads(line) for line in out.splitlines()] for out in outputs)
    print(" | ".join(COLUMNS))
    for label, runs, pose, ev, ticks, status in drift(parent, change):
        print(f"{label} | {runs} | {pose:.2e} | {ev:.2e} | {ticks} | {status}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--dump"]:
        dump()
    elif len(sys.argv) == 3:
        main(*sys.argv[1:])
    else:
        sys.exit(__doc__)

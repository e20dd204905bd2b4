"""Mutated shipped scenarios: each either fails to load, naming a field, or runs a few ticks and emits.

A mutation scales one or two numeric leaves of a shipped scenario, its defaults spelled out, by a
factor in [0, 20] or shifts them by half a unit or a unit; integer leaves stay integers. A mutation
that loads runs for at most three ticks, the last ending half a tick before its cut duration.
"""

import copy
import re
import tempfile
from dataclasses import replace
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from semnav.report import emit_outputs
from semnav.runner import run_closed_loop
from semnav.scenario import ScenarioError, load_scenario, scenario_from_dict, scenario_to_dict

from conftest import SCENARIO_DIR

SHIPPED = {p.stem: scenario_to_dict(load_scenario(p)) for p in sorted(SCENARIO_DIR.glob("*.json"))}
TICKS = 3
FIELD_PATH = re.compile(r"(\w+)(\[\d+\])?(\.\w+(\[\d+\])?)*: ")


def numeric_leaves(value, path=()) -> list[tuple]:
    """Key paths of every number in a JSON value; booleans are not numbers."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return [leaf for key, item in items for leaf in numeric_leaves(item, path + (key,))]
    return [path] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


@st.composite
def mutations(draw) -> dict:
    data = copy.deepcopy(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
    for *parents, key in draw(st.lists(st.sampled_from(numeric_leaves(data)), min_size=1, max_size=2, unique=True)):
        parent = reduce(lambda node, k: node[k], parents, data)
        old = parent[key]
        new = old * draw(st.floats(0.0, 20.0)) if draw(st.booleans()) else old + draw(st.sampled_from([-1.0, -0.5, 0.5, 1.0]))
        parent[key] = round(new) if isinstance(old, int) else new
    return data


@settings(max_examples=200)
@given(mutations())
def test_mutated_scenario_fails_at_a_field_or_runs_and_emits(data):
    try:
        sc = scenario_from_dict(data)
    except ScenarioError as exc:
        match = FIELD_PATH.match(str(exc))
        assert match and match[1] in data, str(exc)
        return
    sc = replace(sc, duration=min(sc.duration, (TICKS - 0.5) * sc.controller.dt),
                 snapshot_ticks=tuple(k for k in sc.snapshot_ticks if k < TICKS))
    record = run_closed_loop(sc)
    assert 1 <= len(record.rows) <= TICKS
    with tempfile.TemporaryDirectory() as out:
        emit_outputs(record, out)

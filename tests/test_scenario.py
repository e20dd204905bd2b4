import copy
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semnav.runner import run_closed_loop
from semnav.scenario import (
    MODE_CLASSIC,
    Scenario,
    ScenarioError,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

from conftest import SCENARIO_DIR

MINIMAL = {
    "name": "mini",
    "workspace": [-1.0, -2.0, 4.0, 2.0],
    "robot": {"start": [0.0, 0.0, 0.0], "goal": [2.0, 0.0, 0.0]},
    "objects": [
        {"id": 0, "center": [2.0, 1.0], "half_extents": [0.1, 0.5, 0.5], "class_id": 1, "stationarity": 1}
    ],
}


def test_minimal_file_fills_defaults(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(MINIMAL))
    sc = load_scenario(path)
    assert sc.cbf.theta_zero == 0.15
    assert sc.cbf.theta_cutoff == 1.8
    assert sc.cbf.bias == 0.75
    assert sc.cbf.lambda_c == 3.0
    assert sc.cbf.lambda_s == 2.0
    assert sc.controller.gamma_bar == 0.03
    assert sc.mode == "semantic_mpc_cbf"
    assert sc.consistency.removal_threshold == 0.4


def test_non_utf8_file_raises_scenario_error(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")  # a UTF-16 byte-order mark
    with pytest.raises(ScenarioError, match=r"utf16\.json: not UTF-8"):
        load_scenario(path)


def test_negative_event_time_rejected():
    bad = dict(MINIMAL, events=[{"time": -1.0, "object_id": 0, "action": "remove"}])
    with pytest.raises(ScenarioError, match=r"events\[0\].time"):
        scenario_from_dict(bad)


def test_unknown_keys_rejected_with_path():
    bad = dict(MINIMAL, extra_knob=1)
    with pytest.raises(ScenarioError, match="extra_knob"):
        scenario_from_dict(bad)
    bad2 = dict(MINIMAL, cbf={"theta_zro": 0.15})
    with pytest.raises(ScenarioError, match="theta_zro"):
        scenario_from_dict(bad2)


@pytest.mark.parametrize("value", [None, 0.25])
def test_consistency_override_is_an_unknown_key(value):
    # labels come only from the filter; the key that pinned every object's E[v] is gone, and null
    # no longer reads as absent
    with pytest.raises(ScenarioError, match=re.escape("root: unknown key(s) ['consistency_override']")):
        scenario_from_dict(dict(MINIMAL, consistency_override=value))


def test_round_trip_identity(tmp_path):
    sc = scenario_from_dict(dict(MINIMAL, mode=MODE_CLASSIC, seed=7,
                                 events=[{"time": 2.0, "object_id": 0, "action": "teleport", "center": [2.5, 1.0]}]))
    p1 = tmp_path / "a.json"
    save_scenario(sc, p1)
    sc2 = load_scenario(p1)
    assert sc2 == sc
    p2 = tmp_path / "b.json"
    save_scenario(sc2, p2)
    assert load_scenario(p2) == sc


def test_start_outside_workspace_rejected():
    bad = dict(MINIMAL, robot={"start": [-5.0, 0.0, 0.0], "goal": [2.0, 0.0, 0.0]})
    with pytest.raises(ScenarioError, match="start"):
        scenario_from_dict(bad)


def test_teleport_requires_center():
    bad = dict(MINIMAL, events=[{"time": 1.0, "object_id": 0, "action": "teleport"}])
    with pytest.raises(ScenarioError, match="center"):
        scenario_from_dict(bad)


def test_bad_mode_rejected():
    with pytest.raises(ScenarioError, match="mode"):
        scenario_from_dict(dict(MINIMAL, mode="warp_drive"))


def test_duplicate_object_ids_rejected():
    objs = [MINIMAL["objects"][0], dict(MINIMAL["objects"][0])]
    with pytest.raises(ScenarioError, match="duplicate"):
        scenario_from_dict(dict(MINIMAL, objects=objs))


def test_shipped_scenarios_load(scenario_dir):
    names = {p.name for p in scenario_dir.glob("*.json")}
    assert {"open_goal.json", "wall_sweep.json", "drawer_gap.json", "drawer_shift.json"} <= names
    for p in sorted(scenario_dir.glob("*.json")):
        sc = load_scenario(p)
        assert isinstance(sc, Scenario)


def test_shipped_scenarios_round_trip(scenario_dir, tmp_path):
    for p in sorted(scenario_dir.glob("*.json")):
        sc = load_scenario(p)
        out = tmp_path / p.name
        save_scenario(sc, out)
        assert load_scenario(out) == sc


@pytest.mark.parametrize("section, key, value", [
    ("controller", "dt", [0.2, 0.1]),
    ("map", "resolution", 0),
    ("map", "resolution", float("nan")),
    ("controller", "q_diag", 1.0),
    ("controller", "q_diag", [1.0, 1.0]),
    ("camera", "horizontal_fov", ["a"]),
    ("camera", "horizontal_fov", [[1]]),
    ("consistency", "prior_static", [9.0, float("inf")]),
    ("controller", "horizon", 0),
])
def test_bad_section_value_names_field(section, key, value):
    bad = dict(MINIMAL, **{section: {key: value}})
    with pytest.raises(ScenarioError, match=rf"^{section}\.{key}: "):
        scenario_from_dict(bad)


BASE = scenario_to_dict(load_scenario(SCENARIO_DIR / "drawer_gap.json"))  # every section key spelled out
SECTION_KEYS = [(sec, key) for sec in ("camera", "map", "cbf", "controller", "consistency") for key in sorted(BASE[sec])]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300)
@given(target=st.sampled_from(SECTION_KEYS), value=JSON_VALUES)
def test_any_section_value_loads_or_raises_scenario_error(target, value):
    section, key = target
    data = copy.deepcopy(BASE)
    data[section][key] = value
    try:
        scenario_from_dict(data)
    except ScenarioError as exc:
        # a coarse map.resolution or a thin map.truncation breaks a rule on cbf, which names the cbf field;
        # a tall cbf.theta_z makes a workspace grid too large to allocate, which names map.resolution
        partner = {("map", "resolution"): ("cbf.theta_z:",), ("map", "truncation"): ("cbf.theta_zero:",),
                   ("cbf", "theta_z"): ("map.resolution:",)}
        assert str(exc).startswith((section,) + partner.get(target, ()))


def _set(data, path, value):
    """Set the value at a key path such as ("events", 0, "object_id"), making missing sections."""
    *head, last = path
    for k in head:
        data = data.setdefault(k, {}) if isinstance(k, str) else data[k]
    data[last] = value


def _dotted(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


@pytest.mark.parametrize("path, value", [
    (("controller", "dt"), 0),  # ZeroDivisionError in the tick count
    (("seed",), -1),  # ValueError in default_rng
    (("events", 0, "object_id"), 99),  # ValueError at the event tick
    (("consistency", "prior_static"), [0, 1]),  # ValueError at the first spawn
    (("consistency", "prior_sigma"), 0),  # ValueError at the first spawn
    (("consistency", "sigma_m"), 1e-200),  # ValueError at the first consistency update: its square is 0
    (("consistency", "sigma_m"), 1e200),  # OverflowError at the first consistency update: it is squared
    (("consistency", "prior_sigma"), 1e200),  # OverflowError at the first consistency update
    (("camera", "vertical_levels"), -1),  # ValueError at the first render
    (("objects", 0, "class_id"), 1.7),  # loaded as 1
    (("name",), 5),  # loaded as "5"
    (("events", 0, "object_id"), False),  # loaded and matched object 0
    (("cbf", "theta_z"), 0.0249),  # ValueError at the first projection: no voxel layer in the window
    (("controller", "v_max"), -0.5),  # every tick degrades; the fallback drives outside the box
    (("controller", "v_max"), 0),  # every tick degrades
    (("controller", "omega_max"), -1),  # every tick degrades
    (("controller", "rho_slack"), -1),  # every tick degrades
    (("consistency", "n_max"), 0),  # ValueError at the first consistency update
    (("robot", "goal"), [0.1, 0.0, 0.0]),  # no tick recorded; compute_metrics raises on the empty record
    (("cbf", "theta_zero"), 0.3),  # = map.truncation: every never-observed column is on the zero level
    (("consistency", "rho_s"), -3),  # silently skipped by the update
    (("snapshot_ticks",), [-1]),  # never exported
    (("snapshot_ticks",), [0, 150]),  # never exported: the 30 s run at dt = 0.2 has ticks 0 to 149
    (("map", "resolution"), 5e-5),  # the run's setup asks for a 100,000 x 80,000 workspace grid, 60 GiB
    (("map", "resolution"), 1e-300),  # OverflowError at the run's setup: the workspace grid's origin is infinite
    (("map", "truncation"), 10.0),  # an object grid spanning 5e8 voxels, each ray stamping 401 band samples
    (("controller", "classic_epsilon"), -5),  # classic mode's hard rows admit h >= -5, so the robot may collide
    (("consistency", "removal_threshold"), 0.65),  # above the dynamic prior's 0.6: removed on the tick they spawn
], ids=lambda v: _dotted(v) if isinstance(v, tuple) else repr(v))
def test_load_rejects_values_that_would_crash_the_run_or_be_coerced(path, value):
    data = copy.deepcopy(dict(MINIMAL, events=[{"time": 1.0, "object_id": 0, "action": "remove"}]))
    _set(data, path, value)
    with pytest.raises(ScenarioError, match=rf"^{re.escape(_dotted(path))}: "):
        scenario_from_dict(data)


SHIFT = scenario_to_dict(load_scenario(SCENARIO_DIR / "drawer_shift.json"))
SHIFT["events"][0]["yaw"] = 0.5  # every event key spelled out
FUZZ_KEYS = (
    [((), key) for key in SHIFT]
    + [(("robot",), key) for key in SHIFT["robot"]]
    + [(("objects", 0), key) for key in SHIFT["objects"][0]]
    + [(("events", 0), key) for key in SHIFT["events"][0]]
)
# a value can also break a rule between two fields, which names the other field
PARTNERS = {"workspace": ("robot.", "map.resolution:"), "objects": ("events[",), "objects[0].id": ("objects:",),
            "robot.start": ("robot.goal:",), "goal_tolerance": ("robot.goal:",)}
SMALL_NUMBERS = st.floats(-8.0, 8.0) | st.integers(-2, 12)  # often valid, so cross-field rules are reached


@settings(max_examples=600)
@given(target=st.sampled_from(FUZZ_KEYS), value=JSON_VALUES | SMALL_NUMBERS | st.lists(SMALL_NUMBERS, max_size=4))
@example(target=((), "workspace"), value=[0.0, -1.0, 1.0, 1.0])  # the goal leaves the workspace
@example(target=((), "objects"), value=[])  # the event's object is gone
@example(target=(("objects", 0), "id"), value=1)  # two objects share an id
def test_any_scenario_value_loads_or_raises_scenario_error_at_its_path(target, value):
    where, key = target
    data = copy.deepcopy(SHIFT)
    _set(data, where + (key,), value)
    at = _dotted(where + (key,))
    try:
        scenario_from_dict(data)
    except ScenarioError as exc:
        assert str(exc).startswith(tuple(at + sep for sep in ".:[") + PARTNERS.get(at, ())), str(exc)


def test_theta_z_at_the_lowest_layer_centre_loads():
    assert scenario_from_dict(dict(MINIMAL, cbf={"theta_z": 0.025})).cbf.theta_z == 0.025


def test_goal_just_beyond_tolerance_and_theta_zero_just_below_truncation_load():
    sc = scenario_from_dict(dict(MINIMAL, robot={"start": [0.0, 0.0, 0.0], "goal": [0.1001, 0.0, 0.0]},
                                 cbf={"theta_zero": 0.29}))
    assert sc.goal[0] == 0.1001 and sc.cbf.theta_zero == 0.29


def test_prior_mean_below_the_removal_threshold_is_reported_at_the_threshold():
    # a new object starts at its prior's mean E[v], and the removal sweep runs on its spawn tick
    with pytest.raises(ScenarioError, match=r"^consistency\.removal_threshold: "):
        scenario_from_dict(dict(MINIMAL, consistency={"prior_dynamic": [3, 7]}))


def test_zero_classic_epsilon_and_a_threshold_at_the_dynamic_prior_mean_load():
    sc = scenario_from_dict(dict(MINIMAL, controller={"classic_epsilon": 0}, consistency={"removal_threshold": 0.6}))
    assert sc.controller.classic_epsilon == 0.0 and sc.consistency.removal_threshold == 0.6


@pytest.mark.parametrize("duration, last", [(30.0, 149), (0.4, 1), (0.5, 2), (0.6, 2)])
def test_last_tick_of_the_run_is_a_valid_snapshot(duration, last):
    # the run has ceil(duration / dt) ticks (0.6 / 0.2 is just below 3 in floats)
    data = dict(MINIMAL, duration=duration, snapshot_ticks=[0, last])
    sc = scenario_from_dict(data)
    assert sc.snapshot_ticks == (0, last)
    with pytest.raises(ScenarioError, match=r"^snapshot_ticks: "):
        scenario_from_dict(dict(data, snapshot_ticks=[last + 1]))
    if duration < 1.0:
        rec = run_closed_loop(sc)
        assert len(rec.rows) == last + 1 and set(rec.field_snapshots) == {0, last}


def _event(action, time):
    extra = {"center": [2.0, 0.3]} if action == "teleport" else {}
    return {"time": time, "object_id": 0, "action": action, **extra}


@pytest.mark.parametrize("events, duration, rejected", [
    ([_event("remove", 0.2), _event("teleport", 0.4)], 1.0, 1),
    ([_event("remove", 0.2), _event("teleport", 0.2)], 1.0, 1),  # same tick, list order
    ([_event("teleport", 0.2), _event("remove", 0.2)], 1.0, None),
    ([_event("remove", 0.2), _event("remove", 1.2)], 1.0, None),  # the second falls after the last tick
    ([_event("remove", 0.5), _event("teleport", 0.55)], 1.0, 1),  # both first apply at tick 3
    ([_event("teleport", 0.2), _event("remove", 1e9)], 1e12, None),  # replayed at event ticks only
], ids=["later_tick", "same_tick_remove_first", "same_tick_teleport_first", "after_run", "shared_tick",
        "huge_duration"])
def test_load_replays_events_at_the_runner_ticks(events, duration, rejected):
    data = scenario_to_dict(load_scenario(SCENARIO_DIR / "wall_sweep.json"))
    data.update(duration=duration, events=events)
    if rejected is None:
        assert len(scenario_from_dict(data).events) == len(events)
    else:
        with pytest.raises(ScenarioError, match=rf"^events\[{rejected}\]\.object_id: "):
            scenario_from_dict(data)

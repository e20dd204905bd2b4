"""Object-aware barrier navigation in semi-static scenes.

A desk-scale closed loop: a simulated box world is depth-sensed, mapped into
per-object truncated signed distance grids, monitored by a Bayesian
consistency filter, distilled into a semantics-aware control barrier field,
and navigated by a linearized receding-horizon controller.

Public names resolve on first access, so `import semnav` loads no submodule
and only the run path (runner, barrier, controller, solver) loads SciPy.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {  # submodule -> the public names it defines
    "barrier": ("CbfField",),
    "consistency": ("ConsistencyParams", "GaussianBetaState", "beta_from_moments", "update_consistency"),
    "mapping": ("MapParams", "ObjectLibrary", "ObjectRecord"),
    "mpc": ("PredictedTrajectory", "mpc_step"),
    "qp": ("QpProblem", "QpSolution", "solve_qp"),
    "runner": ("Metrics", "RunRecord", "compute_metrics", "run_closed_loop"),
    "scenario": ("CbfParams", "ControllerParams", "Scenario", "load_scenario", "save_scenario"),
    "world": ("ControlInput", "DepthCamera", "RobotState", "SceneEvent", "WorldObject"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)

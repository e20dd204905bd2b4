"""Receding-horizon controller with linearized discrete barrier constraints.

The robot is a single integrator, so every predicted state is an exact affine
function of the inputs and the condensed quadratic program is written in the
inputs alone. Only the barrier is linearized, once per tick, about a guess of
this tick's plan: the last plan shifted one step (the classic baseline keeps
it unshifted; see ``mpc_step``). In CBF mode its per-step decay condition is
softened by heavily penalized slack so the program stays solvable under noise
while violations remain observable; the classic baseline instead imposes hard
barrier positivity at the predicted states, from the same linearization.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .barrier import CbfField
from .geometry import wrap_angle
from .qp import QpProblem, QpSolution, solve_qp
from .scenario import ControllerParams
from .world import ControlInput


@dataclass
class PredictedTrajectory:
    """Controller prediction: absolute states/inputs plus solve diagnostics."""

    states: np.ndarray  # (T+1, 3)
    inputs: np.ndarray  # (T, 3)
    slack: np.ndarray  # (T,)
    status: str
    objective: float
    h_values: np.ndarray  # (T+1,) barrier at the predicted states
    iterations: int = 0
    residuals: dict = field(default_factory=dict)

    @property
    def max_slack(self) -> float:
        return float(self.slack.max())


def hold_trajectory(x_t: np.ndarray, horizon: int) -> PredictedTrajectory:
    """Bootstrap operating trajectory: stay at the current state, zero input."""
    states = np.tile(np.asarray(x_t, dtype=float), (horizon + 1, 1))
    return PredictedTrajectory(
        states=states,
        inputs=np.zeros((horizon, 3)),
        slack=np.zeros(horizon),
        status="hold",
        objective=0.0,
        h_values=np.zeros(horizon + 1),
    )


def linearize_barrier(
    field_: CbfField,
    op_states: np.ndarray,
    x_t: np.ndarray,
    S: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Barrier at each predicted state as an affine function of the inputs: h_k ~= b[k] + A[k] . u.

    The predicted states are x_k = x_t + S[k] u (``S`` is (K, 3, n)); h is
    linearized about the operating states (``op_states``, (K, 3)) with one
    batched query. Heading never changes the barrier.
    """
    op_states = np.asarray(op_states, dtype=float)
    if not np.all(np.isfinite(op_states)):
        raise ValueError("operating states must be finite")
    h, grad = field_.query(op_states[:, :2])
    b = h + np.sum(grad * (np.asarray(x_t, dtype=float)[:2] - op_states[:, :2]), axis=1)
    return b, np.einsum("ka,kan->kn", grad, S[:, :2])


def build_qp(
    params: ControllerParams,
    x_t: np.ndarray,
    prev_traj: PredictedTrajectory,
    field_: CbfField,
    goal: np.ndarray,
    *,
    classic: bool = False,
    workspace: tuple[float, float, float, float],
) -> QpProblem:
    """Condensed QP in the inputs u (3T) and, unless ``classic``, the slacks (T).

    ``classic`` imposes hard barrier positivity in place of the softened decay rows.
    ``workspace`` (xmin, ymin, xmax, ymax) bounds x and y of every predicted state.

    Single-integrator dynamics make every predicted state exact and affine in
    the inputs, x_k = x_t + S_k u with S dt times a block prefix sum, so the
    program has no state variables and no equality rows. ``prev_traj`` only
    supplies the states the barrier is linearized about, as given (``mpc_step``
    shifts them). Rows that do not depend on u (the k = 0 workspace and classic
    rows) stay: they carry the feasibility of the current state.
    """
    T = params.horizon
    x_t = np.asarray(x_t, dtype=float)
    n_u = 3 * T
    n_slack = 0 if classic else T
    S = np.zeros((3 * (T + 1), 3 * T))  # dt * I_3 in every block below the block diagonal
    for a in range(3):
        S[a::3, a::3] = params.dt * np.tri(T + 1, T, -1)

    # tracking cost sum_k (x_k - goal)' W_k (x_k - goal) + u' R u, heading error wrapped
    err = x_t - np.asarray(goal, dtype=float)
    err[2] = wrap_angle(err[2])
    w = np.tile(np.array(params.q_diag, dtype=float), (T + 1, 1))
    w[T] = params.p_diag
    hx = 2.0 * w.ravel()
    r = np.tile(np.array(params.r_diag, dtype=float), T)
    H = np.zeros((n_u + n_slack, n_u + n_slack))
    H[:n_u, :n_u] = np.diag(2.0 * r) + S.T @ (hx[:, None] * S)
    g = np.zeros(n_u + n_slack)
    g[:n_u] = S.T @ (hx * np.tile(err, T + 1))
    g[n_u:] = params.rho_slack
    offset = float(np.sum(w * err * err))

    # input box, then workspace box on x and y of every predicted state, then the barrier rows
    bounds = np.tile(params.input_bounds, T)
    xmin, ymin, xmax, ymax = workspace
    S_k = S.reshape(T + 1, 3, n_u)  # x_k = x_t + S_k[k] u
    S_xy = S_k[:, :2].reshape(-1, n_u)
    pos = np.tile(x_t[:2], T + 1)
    n_ws = S_xy.shape[0]
    n_box = 2 * n_u + 2 * n_ws
    G = np.zeros((n_box + T + n_slack, n_u + n_slack))
    G[:n_u, :n_u] = np.eye(n_u)
    G[n_u : 2 * n_u, :n_u] = -np.eye(n_u)
    G[2 * n_u : 2 * n_u + n_ws, :n_u] = S_xy
    G[2 * n_u + n_ws : n_box, :n_u] = -S_xy
    rhs = [bounds, bounds, np.tile([xmax, ymax], T + 1) - pos, pos - np.tile([xmin, ymin], T + 1)]

    b, A = linearize_barrier(field_, prev_traj.states, x_t, S_k)
    if not classic:
        # linearized decay h_{k+1} - (1 - gamma) h_k + sigma_k >= 0, and sigma_k >= 0
        keep = 1.0 - params.gamma_bar
        G[n_box : n_box + T, :n_u] = keep * A[:T] - A[1:]
        G[n_box : n_box + T, n_u:] = -np.eye(T)
        G[n_box + T :, n_u:] = -np.eye(T)
        rhs += [b[1:] - keep * b[:T], np.zeros(T)]
    else:
        # hard, linearized barrier positivity h_k >= epsilon for k < T
        G[n_box:] = -A[:T]
        rhs.append(b[:T] - params.classic_epsilon)

    return QpProblem(H=H, g=g, G_in=G, h_in=np.concatenate(rhs), cost_offset=offset)


def _reconstruct(
    params: ControllerParams,
    x_t: np.ndarray,
    sol: QpSolution,
    field_: CbfField,
) -> PredictedTrajectory:
    T = params.horizon
    inputs = sol.x[: 3 * T].reshape(T, 3).copy()
    states = np.cumsum(np.vstack([x_t, params.dt * inputs]), axis=0)  # x_{k+1} = x_k + dt u_k, added in order
    slack = sol.x[3 * T :].copy() if sol.x.shape[0] > 3 * T else np.zeros(T)
    h_vals, _ = field_.query(states[:, :2])
    return PredictedTrajectory(
        states=states,
        inputs=inputs,
        slack=slack,
        status="ok",
        objective=sol.objective,
        h_values=h_vals,
        iterations=sol.iterations,
        residuals=sol.residuals,
    )


def mpc_step(
    params: ControllerParams,
    x_t: np.ndarray,
    prev_traj: PredictedTrajectory,
    field_: CbfField,
    goal: np.ndarray,
    *,
    classic: bool = False,
    workspace: tuple[float, float, float, float],
) -> tuple[ControlInput, PredictedTrajectory]:
    """Solve one receding-horizon step about the last plan; return the first input and the new plan.

    ``prev_traj`` is the last tick's plan, or ``hold_trajectory`` at the first.
    After an ``ok`` plan the barrier is linearized about it shifted one step
    (``states[1:]``, then ``states[-1] + dt * inputs[-1]``); unshifted, each
    operating state is a step stale and the inputs flip between their bounds
    across a ridge of h. ``classic`` keeps the unshifted plan, whose shift would
    surface its hard rows' infeasibility as degraded ticks. A
    degraded solve (iteration cap, typically an infeasible hard-constrained
    program) brakes when ``classic`` and otherwise repeats the previous
    applied input clipped to the input box. Either way the plan becomes a hold
    with zero inputs, so a second degraded tick in a row brakes.
    """
    x_t = np.asarray(x_t, dtype=float)
    op = prev_traj
    if prev_traj.status == "ok" and not classic:
        op = replace(op, states=np.vstack([op.states[1:], op.states[-1] + params.dt * op.inputs[-1]]))
    sol = solve_qp(build_qp(params, x_t, op, field_, goal, classic=classic, workspace=workspace))

    if sol.degraded:
        if classic:
            u = np.zeros(3)
        else:
            u = np.clip(prev_traj.inputs[0], -params.input_bounds, params.input_bounds)
        h_t, _ = field_.query(x_t[None, :2])
        traj = replace(hold_trajectory(x_t, params.horizon), status="degraded", iterations=sol.iterations,
                       residuals=sol.residuals, h_values=np.full(params.horizon + 1, h_t[0]))
        return ControlInput(*u), traj

    traj = _reconstruct(params, x_t, sol, field_)
    u = traj.inputs[0]
    return ControlInput(*u), traj

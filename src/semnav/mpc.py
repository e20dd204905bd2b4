"""Receding-horizon controller with linearized discrete barrier constraints.

The robot is a single integrator, so every predicted state is an exact affine
function of the inputs and the condensed quadratic program is written in the
inputs alone. Only the barrier is linearized, once per tick, about the
previous predicted trajectory. In CBF mode its per-step decay condition is
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
from .world import ControlInput

MODE_CBF = "cbf"
MODE_CLASSIC = "classic"


@dataclass(frozen=True)
class ControllerParams:
    horizon: int = 10
    dt: float = 0.2
    gamma_bar: float = 0.03  # barrier decay rate, in (0, 1]
    q_diag: tuple[float, float, float] = (1.0, 1.0, 0.1)
    r_diag: tuple[float, float, float] = (0.1, 0.1, 0.1)
    p_diag: tuple[float, float, float] = (10.0, 10.0, 1.0)
    v_max: float = 0.5
    omega_max: float = 1.0
    rho_slack: float = 1.0e4
    classic_epsilon: float = 1.0e-3

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        for name in ("dt", "v_max", "omega_max", "rho_slack"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.gamma_bar <= 1.0:
            raise ValueError("gamma_bar must lie in (0, 1]")
        if min(self.r_diag) <= 0.0 or min(self.q_diag) < 0.0 or min(self.p_diag) < 0.0:
            raise ValueError("R must be positive definite, Q and P positive semidefinite")

    @property
    def input_bounds(self) -> np.ndarray:
        return np.array([self.v_max, self.v_max, self.omega_max])


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
        return float(self.slack.max()) if self.slack.size else 0.0


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
    mode: str = MODE_CBF,
    *,
    workspace: tuple[float, float, float, float],
) -> QpProblem:
    """Condensed QP in the inputs u (3T) and, in CBF mode, the slacks (T).

    ``workspace`` (xmin, ymin, xmax, ymax) bounds x and y of every predicted state.

    Single-integrator dynamics make every predicted state exact and affine in
    the inputs, x_k = x_t + S_k u with S dt times a block prefix sum, so the
    program has no state variables and no equality rows. ``prev_traj`` only
    supplies the states the barrier is linearized about. Rows that do not
    depend on u (the k = 0 workspace and classic rows) stay: they carry the
    feasibility of the current state.
    """
    if mode not in (MODE_CBF, MODE_CLASSIC):
        raise ValueError(f"unknown controller mode {mode!r}")
    T = params.horizon
    x_t = np.asarray(x_t, dtype=float)
    n_u = 3 * T
    n_slack = T if mode == MODE_CBF else 0
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
    if mode == MODE_CBF:
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
    prev_traj: PredictedTrajectory | None,
    field_: CbfField,
    goal: np.ndarray,
    mode: str = MODE_CBF,
    *,
    workspace: tuple[float, float, float, float],
) -> tuple[ControlInput, PredictedTrajectory]:
    """Solve one receding-horizon step and return the first input.

    A degraded solve (iteration cap, typically an infeasible hard-constrained
    program) brakes in classic mode and, in CBF mode, repeats the previous
    applied input clipped to the input box. Either way the prediction becomes
    a hold with zero inputs, so a second degraded tick in a row brakes.
    """
    x_t = np.asarray(x_t, dtype=float)
    if prev_traj is None:
        prev_traj = hold_trajectory(x_t, params.horizon)

    sol = solve_qp(build_qp(params, x_t, prev_traj, field_, goal, mode, workspace=workspace))

    if sol.degraded:
        if mode == MODE_CLASSIC:
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

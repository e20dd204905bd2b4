"""Receding-horizon controller with linearized discrete barrier constraints.

Dynamics and the per-step barrier decay condition are linearized about the
previous predicted trajectory. The dynamics are then eliminated, leaving a
condensed quadratic program in the input deviations alone. Barrier rows are
softened by heavily penalized slack so the program stays solvable under noise
while violations remain observable; the classic baseline instead imposes hard
barrier-positivity state constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
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


def linearize_cbf_constraint(
    field_: CbfField,
    x_op: np.ndarray,
    u_op: np.ndarray,
    dt: float,
    gamma_bar: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Affine coefficients (C, D, c) of the linearized decay condition, per horizon step.

    About each operating point (row k of the (T, 3) arrays ``x_op``, ``u_op``),
    the requirement that the barrier shrink no faster than the configured
    geometric rate becomes C[k] . dx_k + D[k] . du_k + c[k] >= 0 in the
    deviation variables. Heading never changes the barrier, so the third
    column of C and D is zero. All 2T barrier queries go in one batch.
    """
    x_op = np.asarray(x_op, dtype=float)
    u_op = np.asarray(u_op, dtype=float)
    if not (np.all(np.isfinite(x_op)) and np.all(np.isfinite(u_op))):
        raise ValueError("operating point must be finite")
    T = x_op.shape[0]
    x_plus = x_op + dt * u_op
    h, grad = field_.query(np.concatenate([x_plus[:, :2], x_op[:, :2]]))
    c_coef = np.zeros((T, 3))
    d_coef = np.zeros((T, 3))
    c_coef[:, :2] = grad[:T] - (1.0 - gamma_bar) * grad[T:]
    d_coef[:, :2] = dt * grad[:T]
    return c_coef, d_coef, h[:T] - (1.0 - gamma_bar) * h[T:]


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
    """Condensed QP in the input deviations du (3T) and, in CBF mode, the slacks (T).

    ``workspace`` (xmin, ymin, xmax, ymax) bounds x and y of every predicted state.

    Single-integrator dynamics make every state deviation an affine function of
    the inputs, dx = c + S du: c is the initial-state error plus the cumulative
    defect of the operating trajectory, S is dt times a block prefix sum. So
    the program has no state variables and no equality rows. Rows that do not
    depend on du (the k = 0 workspace and classic rows) stay: they carry the
    feasibility of the current state.
    """
    if mode not in (MODE_CBF, MODE_CLASSIC):
        raise ValueError(f"unknown controller mode {mode!r}")
    T = params.horizon
    dt = params.dt
    op_s = np.asarray(prev_traj.states, dtype=float)
    op_u = np.asarray(prev_traj.inputs, dtype=float)
    x_t = np.asarray(x_t, dtype=float)
    goal = np.asarray(goal, dtype=float)
    n_u = 3 * T
    n_slack = T if mode == MODE_CBF else 0

    init_err = x_t - op_s[0]
    init_err[2] = wrap_angle(init_err[2])
    defects = op_s[:-1] + dt * op_u - op_s[1:]
    c = init_err + np.concatenate([np.zeros((1, 3)), np.cumsum(defects, axis=0)])  # (T+1, 3)
    S = dt * np.kron(np.tri(T + 1, T, -1), np.eye(3))  # (3(T+1), 3T)

    # tracking cost 0.5 dx^T Hx dx + gx^T dx + const about the operating states
    err = op_s - goal
    err[:, 2] = np.array([wrap_angle(a) for a in err[:, 2]])
    w = np.tile(np.array(params.q_diag, dtype=float), (T + 1, 1))
    w[T] = params.p_diag
    hx = 2.0 * w.ravel()
    gx = hx * err.ravel()
    cf = c.ravel()
    r = np.tile(np.array(params.r_diag, dtype=float), T)
    uf = op_u.ravel()

    H = np.zeros((n_u + n_slack, n_u + n_slack))
    H[:n_u, :n_u] = np.diag(2.0 * r) + S.T @ (hx[:, None] * S)
    g = np.zeros(n_u + n_slack)
    g[:n_u] = 2.0 * r * uf + S.T @ (hx * cf + gx)
    g[n_u:] = params.rho_slack
    offset = float(np.sum(w * err * err) + r @ (uf * uf) + 0.5 * cf @ (hx * cf) + gx @ cf)

    # input box, then workspace box on x and y of every predicted state
    bounds = np.tile(params.input_bounds, T)
    xmin, ymin, xmax, ymax = workspace
    S_xy = S.reshape(T + 1, 3, n_u)[:, :2].reshape(-1, n_u)
    pos = (op_s[:, :2] + c[:, :2]).ravel()
    lo = np.tile([xmin, ymin], T + 1)
    hi = np.tile([xmax, ymax], T + 1)
    blocks = [np.eye(n_u), -np.eye(n_u), S_xy, -S_xy]
    rhs = [bounds - uf, bounds + uf, hi - pos, pos - lo]

    S_k = S[: 3 * T].reshape(T, 3, n_u)  # dx_k = c_k + S_k du for k < T
    if mode == MODE_CBF:
        # -(C_k dx_k + D_k du_k) - sigma_k <= c_k, and sigma_k >= 0
        C, D, const = linearize_cbf_constraint(field_, op_s[:T], op_u, dt, params.gamma_bar)
        cbf = -np.einsum("ka,kan->kn", C, S_k)
        cbf.reshape(T, T, 3)[np.arange(T), np.arange(T)] -= D
        box = np.vstack(blocks)
        G = np.block([
            [box, np.zeros((box.shape[0], T))],
            [cbf, -np.eye(T)],
            [np.zeros((T, n_u)), -np.eye(T)],
        ])
        rhs += [const + np.sum(C * c[:T], axis=1), np.zeros(T)]
    else:
        # hard barrier positivity, linearized at the operating states
        h_op, grad = field_.query(op_s[:T, :2])
        G = np.vstack(blocks + [-np.einsum("ka,kan->kn", grad, S_k[:, :2])])
        rhs.append(h_op - params.classic_epsilon + np.sum(grad * c[:T, :2], axis=1))

    return QpProblem(H=H, g=g, G_in=G, h_in=np.concatenate(rhs), cost_offset=offset)


def _reconstruct(
    params: ControllerParams,
    x_t: np.ndarray,
    op_u: np.ndarray,
    sol: QpSolution,
    field_: CbfField,
) -> PredictedTrajectory:
    T = params.horizon
    inputs = op_u + sol.x[: 3 * T].reshape(T, 3)
    states = np.zeros((T + 1, 3))
    states[0] = x_t
    for k in range(T):
        states[k + 1] = states[k] + params.dt * inputs[k]
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
    applied input clipped to the input box; either way the operating
    trajectory is re-bootstrapped.
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
        traj = hold_trajectory(x_t, params.horizon)
        traj.status = "degraded"
        traj.iterations = sol.iterations
        traj.residuals = sol.residuals
        traj.h_values = np.full(params.horizon + 1, field_.query_h(x_t[0], x_t[1]))
        return ControlInput(*u), traj

    traj = _reconstruct(params, x_t, np.asarray(prev_traj.inputs, dtype=float), sol, field_)
    u = traj.inputs[0]
    return ControlInput(*u), traj

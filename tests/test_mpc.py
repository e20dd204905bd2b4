import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semnav.mpc as mpc_mod
from semnav.barrier import CbfField, CbfParams, build_cbf_field, build_plain_edf
from semnav.grids import Grid2D
from semnav.mpc import (
    MODE_CBF,
    MODE_CLASSIC,
    ControllerParams,
    build_qp,
    hold_trajectory,
    linearize_barrier,
    mpc_step,
)
from semnav.qp import solve_qp

CBF = CbfParams()
WORKSPACE = (-10.0, -10.0, 10.0, 10.0)  # xmin, ymin, xmax, ymax; far from every test's path
RES = 0.05


def uniform_field(value=CBF.theta_cutoff, extent=10.0):
    n = int(extent / RES)
    return CbfField(grid=Grid2D.full((-extent / 2, -extent / 2), RES, (n, n), value), params=CBF)


def planar_field_x(extent=20.0):
    n = int(extent / RES)
    xs = (np.arange(n) + 0.5) * RES
    vals = np.tile(xs[:, None], (1, n))
    return CbfField(grid=Grid2D(origin=np.array([0.0, 0.0]), resolution=RES, values=vals), params=CBF)


def prediction_matrix(T, dt=0.2):
    """S with x_k = x_t + S[k] u for the stacked inputs u = (u_0, ..., u_{T-1})."""
    return dt * np.kron(np.tri(T + 1, T, -1), np.eye(3)).reshape(T + 1, 3, 3 * T)


def built_field():
    m25 = Grid2D.full((0.0, 0.0), RES, (64, 64), 0.3)
    m25.values[40:44, :] = 0.05  # a wall band
    m25.values[10:16, 30:36] = 0.05  # and a patch
    return build_cbf_field(build_plain_edf(m25, CBF.theta_zero, CBF), CBF)


class TestLinearization:
    def test_uniform_field_inactive(self):
        field = uniform_field()
        op = np.array([[0.0, 0.0, 0.0], [0.1, -0.2, 0.3], [0.4, 0.1, -1.0]])
        b, A = linearize_barrier(field, op, np.array([0.2, 0.3, 0.0]), prediction_matrix(2))
        np.testing.assert_allclose(A, 0.0, atol=1e-12)
        np.testing.assert_allclose(b, CBF.theta_cutoff, atol=1e-12)

    def test_planar_field_hand_values(self):
        # h = x: every row predicts x_t.x plus dt times the x inputs applied so far
        field = planar_field_x()
        op = np.array([[1.0, 5.0, 0.0], [1.1, 5.0, 0.0], [1.3, 5.2, 0.0]])
        b, A = linearize_barrier(field, op, np.array([1.05, 5.0, 2.0]), prediction_matrix(2))
        np.testing.assert_allclose(b, 1.05, atol=1e-9)
        np.testing.assert_allclose(A, [[0, 0, 0, 0, 0, 0], [0.2, 0, 0, 0, 0, 0], [0.2, 0, 0, 0.2, 0, 0]], atol=1e-9)

    def test_zero_operating_input(self):
        # the bootstrap: operating states held at the current state give b = h there
        field = planar_field_x()
        x_t = np.array([2.0, 4.0, 0.3])
        b, _ = linearize_barrier(field, hold_trajectory(x_t, 3).states, x_t, prediction_matrix(3))
        np.testing.assert_allclose(b, field.query_h(2.0, 4.0), atol=1e-12)

    def test_rejects_nonfinite_operating_point(self):
        op = np.array([[0.0, 0.0, np.nan], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            linearize_barrier(uniform_field(), op, np.zeros(3), prediction_matrix(1))

    def test_rows_match_single_step_linearization(self):
        field = planar_field_x()
        rng = np.random.default_rng(5)
        T = 10
        op = np.column_stack([rng.uniform(1, 4, T + 1), rng.uniform(2, 8, T + 1), rng.uniform(-1, 1, T + 1)])
        x_t = np.array([2.0, 5.0, 0.1])
        S = prediction_matrix(T)
        b, A = linearize_barrier(field, op, x_t, S)
        for k in range(T + 1):
            bk, Ak = linearize_barrier(field, op[k : k + 1], x_t, S[k : k + 1])
            assert b[k] == bk[0] and np.array_equal(A[k], Ak[0])

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 10), planar=st.booleans())
    def test_affine_in_inputs_matches_first_order_expansion(self, seed, T, planar):
        # b + A u is h linearized at op_k and evaluated at the state x_k the inputs reach
        field, lo, hi = (planar_field_x(), 1.0, 9.0) if planar else (built_field(), 0.3, 2.9)
        rng = np.random.default_rng(seed)
        op = np.column_stack([rng.uniform(lo, hi, (T + 1, 2)), rng.uniform(-3, 3, T + 1)])
        x_t = np.append(rng.uniform(lo + 0.5, hi - 0.5, 2), rng.uniform(-3, 3))
        u = rng.uniform(-0.5, 0.5, (T, 3))
        b, A = linearize_barrier(field, op, x_t, prediction_matrix(T))
        x = x_t
        for k in range(T + 1):
            expected = field.query_h(*op[k, :2]) + np.dot(field.query_grad(*op[k, :2]), x[:2] - op[k, :2])
            assert abs(b[k] + A[k] @ u.ravel() - expected) <= 1e-12
            if k < T:
                x = x + 0.2 * u[k]


class TestBuildQp:
    def test_stationary_at_goal(self):
        params = ControllerParams()
        goal = np.array([1.0, 2.0, 0.5])
        qp = build_qp(params, goal, hold_trajectory(goal, params.horizon), uniform_field(), goal, workspace=WORKSPACE)
        sol = solve_qp(qp)
        assert sol.objective == pytest.approx(0.0, abs=1e-8)
        np.testing.assert_allclose(sol.x, 0.0, atol=1e-6)

    def test_matches_dense_lq_oracle(self):
        # no obstacles, generous input box: the QP reduces to equality-constrained
        # tracking in state-input space, solvable directly through one dense KKT system
        params = ControllerParams(v_max=50.0, omega_max=50.0)
        T, dt = params.horizon, params.dt
        x0 = np.zeros(3)
        goal = np.array([1.0, 0.0, 0.0])
        qp = build_qp(params, x0, hold_trajectory(x0, T), uniform_field(), goal, workspace=WORKSPACE)
        assert qp.g.shape[0] == 4 * T and qp.b_eq.shape[0] == 0
        sol = solve_qp(qp)

        # variables (x_0..x_T, u_0..u_{T-1}); cost sum (x_k - goal)' W_k (x_k - goal) + u_k' R u_k
        n_x, n_u = 3 * (T + 1), 3 * T
        w = np.concatenate([np.tile(params.q_diag, T), params.p_diag])
        H = np.diag(np.concatenate([2.0 * w, np.tile(2.0 * np.array(params.r_diag), T)]))
        g = np.concatenate([-2.0 * w * np.tile(goal, T + 1), np.zeros(n_u)])
        A = np.zeros((n_x, n_x + n_u))
        b = np.zeros(n_x)
        A[:3, :3] = np.eye(3)
        b[:3] = x0
        for k in range(T):
            rows = slice(3 * (k + 1), 3 * (k + 2))
            A[rows, 3 * (k + 1) : 3 * (k + 2)] = np.eye(3)
            A[rows, 3 * k : 3 * (k + 1)] = -np.eye(3)
            A[rows, n_x + 3 * k : n_x + 3 * (k + 1)] = -dt * np.eye(3)
        kkt = np.block([[H, A.T], [A, np.zeros((n_x, n_x))]])
        ref = np.linalg.solve(kkt, np.concatenate([-g, b]))[: n_x + n_u]
        np.testing.assert_allclose(sol.x[:n_u], ref[n_x : n_x + n_u], atol=1e-6)
        np.testing.assert_allclose(sol.x[n_u:], 0.0, atol=1e-6)  # no slack in free space
        f_ref = 0.5 * ref @ H @ ref + g @ ref + float(np.sum(w * np.tile(goal, T + 1) ** 2))
        assert sol.objective == pytest.approx(f_ref, rel=1e-6)

    def test_inactive_cbf_rows_do_not_change_solution(self):
        params = ControllerParams()
        x0 = np.zeros(3)
        goal = np.array([0.3, 0.1, 0.0])
        field = uniform_field()
        with_rows = solve_qp(build_qp(params, x0, hold_trajectory(x0, params.horizon), field, goal, MODE_CBF,
                                      workspace=WORKSPACE))
        n_u = 3 * params.horizon
        qp = build_qp(params, x0, hold_trajectory(x0, params.horizon), field, goal, MODE_CLASSIC, workspace=WORKSPACE)
        assert qp.g.shape[0] == n_u
        without = solve_qp(qp)
        np.testing.assert_allclose(with_rows.x[:n_u], without.x, atol=1e-6)

    def test_condensed_shape(self):
        params = ControllerParams()
        x0 = np.zeros(3)
        qp = build_qp(params, x0, hold_trajectory(x0, params.horizon), uniform_field(), np.ones(3), workspace=WORKSPACE)
        assert (qp.g.shape[0], qp.b_eq.shape[0], qp.h_in.shape[0]) == (40, 0, 124)

    def test_both_modes_take_rows_from_one_linearization(self):
        # classic rows are -A[:T]; CBF rows combine the same A[:T] with A[1:]
        params = ControllerParams(gamma_bar=0.2)
        T, n_u = params.horizon, 3 * params.horizon
        field = built_field()
        x0 = np.array([1.2, 1.0, 0.0])
        goal = np.array([2.8, 1.6, 0.0])
        _, prev = mpc_step(params, x0, None, field, goal, workspace=WORKSPACE)
        x_t = np.array([1.25, 1.02, 0.1])
        b, A = linearize_barrier(field, prev.states, x_t, prediction_matrix(T, params.dt))
        assert np.abs(A[1:]).max() > 0.01  # the wall is within reach
        classic = build_qp(params, x_t, prev, field, goal, MODE_CLASSIC, workspace=WORKSPACE)
        assert np.array_equal(classic.G_in[-T:], -A[:T])
        assert np.array_equal(classic.h_in[-T:], b[:T] - params.classic_epsilon)
        cbf = build_qp(params, x_t, prev, field, goal, MODE_CBF, workspace=WORKSPACE)
        rows = cbf.G_in[-2 * T : -T]
        assert np.array_equal(rows[:, :n_u], 0.8 * A[:T] - A[1:]) and np.array_equal(rows[:, n_u:], -np.eye(T))
        assert np.array_equal(cbf.h_in[-2 * T : -T], b[1:] - 0.8 * b[:T])


class TestMpcStep:
    def test_zero_input_at_goal(self):
        params = ControllerParams()
        goal = np.array([1.0, -1.0, 0.2])
        u, traj = mpc_step(params, goal, None, uniform_field(), goal, workspace=WORKSPACE)
        assert abs(u.vx) <= 1e-6 and abs(u.vy) <= 1e-6 and abs(u.omega) <= 1e-6
        assert traj.status == "ok"

    def test_drives_straight_at_goal_ahead(self):
        params = ControllerParams()
        u, traj = mpc_step(params, np.zeros(3), None, uniform_field(), np.array([2.0, 0.0, 0.0]), workspace=WORKSPACE)
        assert u.vx > 0.4
        assert abs(u.vy) <= 1e-6

    def test_input_admissible(self):
        params = ControllerParams()
        rng = np.random.default_rng(0)
        field = uniform_field()
        for _ in range(10):
            x0 = rng.uniform(-2, 2, size=3)
            goal = rng.uniform(-3, 3, size=3)
            u, traj = mpc_step(params, x0, None, field, goal, workspace=WORKSPACE)
            assert abs(u.vx) <= params.v_max + 1e-9
            assert abs(u.vy) <= params.v_max + 1e-9
            assert abs(u.omega) <= params.omega_max + 1e-9

    def test_prediction_satisfies_exact_dynamics(self):
        params = ControllerParams()
        u, traj = mpc_step(params, np.zeros(3), None, uniform_field(), np.array([2.0, 1.0, 0.4]), workspace=WORKSPACE)
        for k in range(params.horizon):
            np.testing.assert_allclose(
                traj.states[k + 1], traj.states[k] + params.dt * traj.inputs[k], atol=1e-9
            )

    def test_zero_slack_when_feasible(self):
        params = ControllerParams()  # default slack penalty
        u, traj = mpc_step(params, np.zeros(3), None, uniform_field(), np.array([2.0, 0.0, 0.0]), workspace=WORKSPACE)
        assert traj.max_slack <= 1e-6

    def test_linearized_decay_holds_on_solution(self):
        # drive toward a planar barrier; the solved inputs satisfy the linearized
        # decay condition row by row, less their slack
        params = ControllerParams(gamma_bar=0.1)
        T = params.horizon
        field = planar_field_x()
        x0 = np.array([3.0, 5.0, 0.0])
        goal = np.array([0.5, 5.0, 0.0])
        traj = hold_trajectory(x0, T)
        for _ in range(8):
            op = traj.states.copy()
            u, traj = mpc_step(params, x0, traj, field, goal, workspace=WORKSPACE)
            assert traj.status == "ok"
            b, A = linearize_barrier(field, op, x0, prediction_matrix(T, params.dt))
            h = b + A @ traj.inputs.ravel()
            assert np.all(h[1:] - (1.0 - params.gamma_bar) * h[:T] + traj.slack >= -1e-6)
            x0 = x0 + params.dt * np.array([u.vx, u.vy, u.omega])

    def test_gamma_scales_approach_speed(self):
        field = planar_field_x()
        x0 = np.array([1.2, 5.0, 0.0])
        goal = np.array([0.0, 5.0, 0.0])  # straight at the h = 0 line
        speeds = {}
        for gamma in (0.01, 1.0):
            params = ControllerParams(gamma_bar=gamma)
            u, traj = mpc_step(params, x0, None, field, goal, workspace=WORKSPACE)
            speeds[gamma] = -u.vx  # approach component toward decreasing h
            h0 = field.query_h(x0[0], x0[1])
            h1 = field.query_h(*traj.states[1][:2])
            assert h1 - h0 >= -gamma * h0 - 1e-6
        assert speeds[0.01] < speeds[1.0]

    @pytest.mark.parametrize("mode", [MODE_CBF, MODE_CLASSIC])
    def test_workspace_rows_bound_prediction(self, mode):
        # the goal lies beyond the workspace edge at x = 2: every predicted state stops at the edge
        params = ControllerParams()
        x0 = np.array([1.5, 0.0, 0.0])
        u, traj = mpc_step(params, x0, None, uniform_field(), np.array([5.0, 0.0, 0.0]), mode,
                           workspace=(-2.0, -2.0, 2.0, 2.0))
        assert traj.status == "ok"
        assert traj.states[:, 0].max() <= 2.0 + 1e-6

    @staticmethod
    def assert_degraded_prediction(traj, params, x0, field, sol):
        """A hold at x0 with zero inputs, h at x0 at every step and the failed solve's diagnostics."""
        T = params.horizon
        assert traj.status == "degraded" and sol.degraded
        assert np.array_equal(traj.states, np.tile(x0, (T + 1, 1)))
        assert np.array_equal(traj.inputs, np.zeros((T, 3))) and np.array_equal(traj.slack, np.zeros(T))
        assert np.array_equal(traj.h_values, np.full(T + 1, field.query_h(*x0[:2])))
        assert traj.objective == 0.0
        assert traj.iterations == sol.iterations and traj.residuals == sol.residuals

    def test_degraded_fallback_modes(self, monkeypatch):
        solves = []

        def recording(qp):
            solves.append(solve_qp(qp))
            return solves[-1]

        monkeypatch.setattr(mpc_mod, "solve_qp", recording)
        # classic: an impossible hard-constrained problem, the current state deep
        # in the forbidden set with classic rows, brakes
        n = int(20.0 / RES)
        xs = (np.arange(n) + 0.5) * RES
        vals = np.tile(xs[:, None] - 5.0, (1, n))  # h = x - 5
        field = CbfField(grid=Grid2D(origin=np.array([0.0, 0.0]), resolution=RES, values=vals), params=CBF)
        params = ControllerParams(classic_epsilon=1e-3)
        x0 = np.array([3.0, 5.0, 0.0])  # h = -2 at the current state
        prev = hold_trajectory(x0, params.horizon)
        prev.inputs[0] = np.array([0.4, 0.0, 0.0])
        u_brake, traj = mpc_step(params, x0, prev, field, np.array([10.0, 5.0, 0.0]), MODE_CLASSIC,
                                 workspace=(-20, -20, 20, 20))
        assert (u_brake.vx, u_brake.vy, u_brake.omega) == (0.0, 0.0, 0.0)
        self.assert_degraded_prediction(traj, params, x0, field, solves[-1])

        # CBF: a current state outside the workspace makes the k = 0 workspace row
        # infeasible; the previous input is held, clipped to the input box
        params = ControllerParams()
        x0 = np.array([3.0, 0.0, 0.0])
        prev = hold_trajectory(x0, params.horizon)
        prev.inputs[0] = np.array([0.8, 0.0, 0.0])
        field = uniform_field()
        u_hold, traj = mpc_step(params, x0, prev, field, np.array([1.0, 0.0, 0.0]), MODE_CBF,
                                workspace=(-2.0, -2.0, 2.0, 2.0))
        assert (u_hold.vx, u_hold.vy, u_hold.omega) == (params.v_max, 0.0, 0.0)
        self.assert_degraded_prediction(traj, params, x0, field, solves[-1])

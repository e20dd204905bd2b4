import numpy as np
import pytest

from semnav.barrier import CbfField, CbfParams
from semnav.grids import Grid2D
from semnav.mpc import (
    MODE_CBF,
    MODE_CLASSIC,
    ControllerParams,
    build_qp,
    hold_trajectory,
    linearize_cbf_constraint,
    mpc_step,
)
from semnav.qp import solve_qp

CBF = CbfParams()
RES = 0.05


def uniform_field(value=CBF.theta_cutoff, extent=10.0):
    n = int(extent / RES)
    return CbfField(grid=Grid2D.full((-extent / 2, -extent / 2), RES, (n, n), value), params=CBF)


def planar_field_x(extent=20.0):
    n = int(extent / RES)
    xs = (np.arange(n) + 0.5) * RES
    vals = np.tile(xs[:, None], (1, n))
    return CbfField(grid=Grid2D(origin=np.array([0.0, 0.0]), resolution=RES, values=vals), params=CBF)


class TestLinearization:
    def test_uniform_field_inactive(self):
        field = uniform_field()
        C, D, c = linearize_cbf_constraint(field, np.zeros((1, 3)), np.zeros((1, 3)), 0.2, 0.03)
        np.testing.assert_allclose(C, 0.0, atol=1e-12)
        np.testing.assert_allclose(D, 0.0, atol=1e-12)
        assert c[0] == pytest.approx(0.03 * CBF.theta_cutoff)

    def test_planar_field_hand_values(self):
        field = planar_field_x()
        C, D, c = linearize_cbf_constraint(field, np.array([[1.0, 5.0, 0.0]]), np.array([[0.5, 0.0, 0.0]]), 0.2, 0.1)
        np.testing.assert_allclose(C[0], [0.1, 0.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(D[0], [0.2, 0.0, 0.0], atol=1e-9)
        assert c[0] == pytest.approx(1.1 - 0.9 * 1.0, abs=1e-9)

    def test_zero_operating_input(self):
        field = planar_field_x()
        gamma = 0.25
        x_op = np.array([[2.0, 4.0, 0.3]])
        _, _, c = linearize_cbf_constraint(field, x_op, np.zeros((1, 3)), 0.2, gamma)
        assert c[0] == pytest.approx(gamma * field.query_h(2.0, 4.0), abs=1e-9)

    def test_rejects_nonfinite_operating_point(self):
        with pytest.raises(ValueError):
            linearize_cbf_constraint(uniform_field(), np.array([[np.nan, 0, 0]]), np.zeros((1, 3)), 0.2, 0.1)

    def test_rows_match_single_step_linearization(self):
        field = planar_field_x()
        rng = np.random.default_rng(5)
        x_op = np.column_stack([rng.uniform(1, 4, 10), rng.uniform(2, 8, 10), rng.uniform(-1, 1, 10)])
        u_op = rng.uniform(-0.5, 0.5, size=(10, 3))
        C, D, c = linearize_cbf_constraint(field, x_op, u_op, 0.2, 0.1)
        for k in range(10):
            Ck, Dk, ck = linearize_cbf_constraint(field, x_op[k : k + 1], u_op[k : k + 1], 0.2, 0.1)
            assert np.array_equal(C[k], Ck[0]) and np.array_equal(D[k], Dk[0]) and c[k] == ck[0]


class TestBuildQp:
    def test_stationary_at_goal(self):
        params = ControllerParams()
        goal = np.array([1.0, 2.0, 0.5])
        qp = build_qp(params, goal, hold_trajectory(goal, params.horizon), uniform_field(), goal)
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
        qp = build_qp(params, x0, hold_trajectory(x0, T), uniform_field(), goal)
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
        with_rows = solve_qp(build_qp(params, x0, hold_trajectory(x0, params.horizon), field, goal, MODE_CBF))
        n_u = 3 * params.horizon
        qp = build_qp(params, x0, hold_trajectory(x0, params.horizon), field, goal, MODE_CLASSIC)
        assert qp.g.shape[0] == n_u
        without = solve_qp(qp)
        np.testing.assert_allclose(with_rows.x[:n_u], without.x, atol=1e-6)

    def test_condensed_shape(self):
        params = ControllerParams()
        x0 = np.zeros(3)
        qp = build_qp(params, x0, hold_trajectory(x0, params.horizon), uniform_field(), np.ones(3))
        assert (qp.g.shape[0], qp.b_eq.shape[0], qp.h_in.shape[0]) == (40, 0, 124)


class TestMpcStep:
    def test_zero_input_at_goal(self):
        params = ControllerParams()
        goal = np.array([1.0, -1.0, 0.2])
        u, traj = mpc_step(params, goal, None, uniform_field(), goal)
        assert abs(u.vx) <= 1e-6 and abs(u.vy) <= 1e-6 and abs(u.omega) <= 1e-6
        assert traj.status == "ok"

    def test_drives_straight_at_goal_ahead(self):
        params = ControllerParams()
        u, traj = mpc_step(params, np.zeros(3), None, uniform_field(), np.array([2.0, 0.0, 0.0]))
        assert u.vx > 0.4
        assert abs(u.vy) <= 1e-6

    def test_input_admissible(self):
        params = ControllerParams()
        rng = np.random.default_rng(0)
        field = uniform_field()
        for _ in range(10):
            x0 = rng.uniform(-2, 2, size=3)
            goal = rng.uniform(-3, 3, size=3)
            u, traj = mpc_step(params, x0, None, field, goal)
            assert abs(u.vx) <= params.v_max + 1e-9
            assert abs(u.vy) <= params.v_max + 1e-9
            assert abs(u.omega) <= params.omega_max + 1e-9

    def test_prediction_satisfies_exact_dynamics(self):
        params = ControllerParams()
        u, traj = mpc_step(params, np.zeros(3), None, uniform_field(), np.array([2.0, 1.0, 0.4]))
        for k in range(params.horizon):
            np.testing.assert_allclose(
                traj.states[k + 1], traj.states[k] + params.dt * traj.inputs[k], atol=1e-9
            )

    def test_zero_slack_when_feasible(self):
        params = ControllerParams()  # default slack penalty
        u, traj = mpc_step(params, np.zeros(3), None, uniform_field(), np.array([2.0, 0.0, 0.0]))
        assert traj.max_slack <= 1e-6

    def test_linearized_decay_holds_on_solution(self):
        # drive toward a planar barrier; the solved trajectory satisfies the
        # linearized condition row by row in the deviation variables
        params = ControllerParams(gamma_bar=0.1)
        field = planar_field_x()
        x0 = np.array([3.0, 5.0, 0.0])
        goal = np.array([0.5, 5.0, 0.0])
        traj = hold_trajectory(x0, params.horizon)
        for _ in range(8):
            op_s, op_u = traj.states.copy(), traj.inputs.copy()
            u, traj = mpc_step(params, x0, traj, field, goal)
            assert traj.status == "ok"
            T = params.horizon
            C, D, c = linearize_cbf_constraint(field, op_s[:T], op_u, params.dt, params.gamma_bar)
            for k in range(T):
                dx = traj.states[k] - op_s[k]
                du = traj.inputs[k] - op_u[k]
                assert C[k] @ dx + D[k] @ du + c[k] + traj.slack[k] >= -1e-6
            x0 = x0 + params.dt * np.array([u.vx, u.vy, u.omega])

    def test_gamma_scales_approach_speed(self):
        field = planar_field_x()
        x0 = np.array([1.2, 5.0, 0.0])
        goal = np.array([0.0, 5.0, 0.0])  # straight at the h = 0 line
        speeds = {}
        for gamma in (0.01, 1.0):
            params = ControllerParams(gamma_bar=gamma)
            u, traj = mpc_step(params, x0, None, field, goal)
            speeds[gamma] = -u.vx  # approach component toward decreasing h
            h0 = field.query_h(x0[0], x0[1])
            h1 = field.query_h(*traj.states[1][:2])
            assert h1 - h0 >= -gamma * h0 - 1e-6
        assert speeds[0.01] < speeds[1.0]

    def test_degraded_fallback_modes(self):
        # an impossible hard-constrained problem: current state deep in the
        # forbidden set with classic rows
        n = int(20.0 / RES)
        xs = (np.arange(n) + 0.5) * RES
        vals = np.tile(xs[:, None] - 5.0, (1, n))  # h = x - 5
        field = CbfField(grid=Grid2D(origin=np.array([0.0, 0.0]), resolution=RES, values=vals), params=CBF)
        params = ControllerParams(workspace=(-20, -20, 20, 20), classic_epsilon=1e-3)
        x0 = np.array([3.0, 5.0, 0.0])  # h = -2 at the current state
        prev = hold_trajectory(x0, params.horizon)
        prev.inputs[0] = np.array([0.4, 0.0, 0.0])
        u_hold, traj = mpc_step(params, x0, prev, field, np.array([10.0, 5.0, 0.0]), mode=MODE_CLASSIC,
                                degraded_fallback="hold")
        assert traj.status == "degraded"
        assert (u_hold.vx, u_hold.vy, u_hold.omega) == pytest.approx((0.4, 0.0, 0.0))
        u_brake, traj2 = mpc_step(params, x0, prev, field, np.array([10.0, 5.0, 0.0]), mode=MODE_CLASSIC,
                                  degraded_fallback="brake")
        assert traj2.status == "degraded"
        assert (u_brake.vx, u_brake.vy, u_brake.omega) == (0.0, 0.0, 0.0)

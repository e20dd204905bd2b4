import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import semnav.mpc as mpc_mod
import semnav.qp as qp_mod
from semnav.mpc import MODE_CBF, MODE_CLASSIC, ControllerParams, build_qp, hold_trajectory
from semnav.qp import ACCEPT_TOL, MAX_ITER, TOL, QpProblem, QpSolution, kkt_residuals, solve_qp
from semnav.runner import run_closed_loop
from semnav.scenario import MODE_NONSEMANTIC, load_scenario


def box_qp(H, g, lo, hi):
    n = len(g)
    G = np.vstack([np.eye(n), -np.eye(n)])
    h = np.concatenate([hi, -lo])
    return QpProblem(H=H, g=g, A_eq=np.zeros((0, n)), b_eq=np.zeros(0), G_in=G, h_in=h)


def enumerate_box_qp(H, g, lo, hi):
    """Optimal solution by enumerating every bound-activity pattern."""
    n = len(g)
    best, best_f = None, np.inf
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        x = np.zeros(n)
        fixed = [i for i, p in enumerate(pattern) if p != 0]
        free = [i for i, p in enumerate(pattern) if p == 0]
        for i, p in enumerate(pattern):
            x[i] = hi[i] if p > 0 else lo[i] if p < 0 else 0.0
        if free:
            rhs = -(g[free] + (H[np.ix_(free, fixed)] @ x[fixed] if fixed else 0.0))
            x[np.array(free)] = np.linalg.solve(H[np.ix_(free, free)], rhs)
        if np.all(x >= lo - 1e-10) and np.all(x <= hi + 1e-10):
            f = 0.5 * x @ H @ x + g @ x
            if f < best_f:
                best_f, best = f, x.copy()
    return best


class TestSolveQp:
    def test_scalar_bound(self):
        qp = QpProblem(H=np.array([[2.0]]), g=np.zeros(1), A_eq=np.zeros((0, 1)), b_eq=np.zeros(0),
                       G_in=np.array([[-1.0]]), h_in=np.array([-1.0]))
        sol = solve_qp(qp)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1.0, abs=1e-8)

    def test_random_box_qps_match_enumeration(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = 5
            m = rng.normal(size=(n, n))
            H = m @ m.T + n * np.eye(n)
            g = rng.normal(size=n) * rng.uniform(1, 10)
            lo = -rng.uniform(0.1, 1.0, size=n)
            hi = rng.uniform(0.1, 1.0, size=n)
            sol = solve_qp(box_qp(H, g, lo, hi))
            expected = enumerate_box_qp(H, g, lo, hi)
            assert sol.status == "optimal"
            np.testing.assert_allclose(sol.x, expected, atol=1e-6)

    def test_slacked_row_absorbs_infeasibility(self):
        # min x^2 s.t. x >= 1 and x <= 0 is infeasible; slack sigma on the second
        # row restores feasibility and at the optimum equals the violation of the
        # unslacked optimum (x* = 1 violates x <= 0 by exactly 1)
        rho = 1.0e4
        H = np.diag([2.0, 0.0])
        g = np.array([0.0, rho])
        G = np.array([[-1.0, 0.0], [1.0, -1.0], [0.0, -1.0]])
        h = np.array([-1.0, 0.0, 0.0])
        sol = solve_qp(QpProblem(H=H, g=g, A_eq=np.zeros((0, 2)), b_eq=np.zeros(0), G_in=G, h_in=h))
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1.0, abs=1e-6)
        assert sol.x[1] == pytest.approx(1.0, abs=1e-6)

    def test_infeasible_problem_flagged(self):
        qp = QpProblem(H=np.array([[2.0]]), g=np.zeros(1), A_eq=np.zeros((0, 1)), b_eq=np.zeros(0),
                       G_in=np.array([[1.0], [-1.0]]), h_in=np.array([-1.0, -1.0]))  # x <= -1 and x >= 1
        sol = solve_qp(qp)
        assert sol.status == "max_iter"
        assert sol.degraded

    def test_residual_reporting(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(4, 4))
        H = m @ m.T + 4 * np.eye(4)
        g = rng.normal(size=4)
        qp = box_qp(H, g, -np.ones(4), np.ones(4))
        sol = solve_qp(qp)
        recomputed = kkt_residuals(qp, sol.x, sol.z)
        assert sol.residuals == recomputed
        assert all(v <= 1e-6 for v in recomputed.values())

    def test_nearly_degenerate_box_qp_meets_residual_contract(self):
        """The solution contract is KKT residuals and objective, not x.

        At the optimum x[2] is free (gradient 0) and 8.3e-4 below its upper
        bound, whose multiplier is 0. The solver stops once complementarity is
        under tolerance while still holding a multiplier near 1.8e-6 on that
        bound, so x[2] sits about 1.1e-6 from the enumerated optimum: an x
        comparison at 1e-6 fails here while every residual and the objective
        are within tolerance. Found by a search over random box QPs.
        """
        H = np.array([
            [6.329314114412834, -0.44193571390490033, 1.6069122094653066, 2.3969882049154316, -0.11692347450725102],
            [-0.44193571390490033, 7.150032644469877, -0.7001611958833939, 1.6776737332773437, -2.558342558642722],
            [1.6069122094653066, -0.7001611958833939, 1.638948686399412, 1.005947388214407, -0.08552737236454087],
            [2.3969882049154316, 1.6776737332773437, 1.005947388214407, 3.7046747848551917, -0.416441780183876],
            [-0.11692347450725102, -2.558342558642722, -0.08552737236454087, -0.416441780183876, 1.561127983102875],
        ])
        g = np.array([31.8430373530683, 35.189213106947655, -0.9591229538857431, 23.76096606891608, -14.348409782315148])
        lo = np.array([-1.0294205445477593, -1.1754664236435504, -0.4258059602546565, -0.6210186955445437,
                       -1.6060396041213407])
        hi = np.array([1.7884312576066106, 1.7402595861146917, 1.577547084245621, 0.9839566552211818,
                       1.977723635438193])
        qp = box_qp(H, g, lo, hi)
        sol = solve_qp(qp)
        expected = enumerate_box_qp(H, g, lo, hi)
        assert sol.status == "optimal"
        tol = max(TOL, 1e-12 * float(np.max(np.abs(g))))  # the scaling solve_qp applies
        assert max(kkt_residuals(qp, sol.x, sol.z).values()) <= tol
        assert sol.objective == pytest.approx(0.5 * expected @ H @ expected + g @ expected, abs=1e-9)

    def test_rejects_asymmetric_hessian(self):
        with pytest.raises(ValueError):
            QpProblem(H=np.array([[1.0, 0.5], [0.0, 1.0]]), g=np.zeros(2),
                      A_eq=np.zeros((0, 2)), b_eq=np.zeros(0), G_in=np.zeros((0, 2)), h_in=np.zeros(0))

    def test_rejects_equality_rows(self):
        with pytest.raises(ValueError):
            QpProblem(H=np.eye(2), g=np.zeros(2), A_eq=np.ones((1, 2)), b_eq=np.ones(1),
                      G_in=np.eye(2), h_in=np.ones(2))

    def test_equality_fields_default_empty(self):
        qp = QpProblem(H=np.eye(2), g=np.zeros(2), G_in=np.eye(2), h_in=np.ones(2))
        assert qp.A_eq.shape == (0, 2) and qp.b_eq.shape == (0,)


PROPERTY = settings(max_examples=60)


def random_pd(rng, n):
    m = rng.normal(size=(n, n))
    return m @ m.T + rng.uniform(0.1, n) * np.eye(n)


class TestSolveQpProperties:
    @PROPERTY
    @given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), g_scale=st.floats(0.1, 100.0))
    def test_box_qps_match_enumeration(self, n, seed, g_scale):
        rng = np.random.default_rng(seed)
        H = random_pd(rng, n)
        g = rng.normal(size=n) * g_scale
        lo = -rng.uniform(0.05, 2.0, size=n)
        hi = rng.uniform(0.05, 2.0, size=n)
        sol = solve_qp(box_qp(H, g, lo, hi))
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, enumerate_box_qp(H, g, lo, hi), atol=1e-6)

    @PROPERTY
    @given(n=st.integers(1, 6), m=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           pull=st.floats(-10.0, 10.0))
    def test_feasible_general_rows_with_slack_are_optimal(self, n, m, seed, pull):
        # general rows feasible at a known point, plus one row softened by a
        # heavily penalized slack (the controller's barrier-row shape)
        rng = np.random.default_rng(seed)
        rho = 1.0e4
        x_feas = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        b = A @ x_feas + rng.uniform(0.0, 1.0, size=m)
        a_soft = rng.normal(size=n)
        b_soft = a_soft @ x_feas + pull  # pull < 0: the soft row alone is violated at x_feas
        H = np.zeros((n + 1, n + 1))
        H[:n, :n] = random_pd(rng, n)
        g = np.concatenate([rng.normal(size=n) * 5.0, [rho]])
        G = np.zeros((m + 2, n + 1))
        G[:m, :n] = A
        G[m, :n], G[m, n] = a_soft, -1.0
        G[m + 1, n] = -1.0
        qp = QpProblem(H=H, g=g, G_in=G, h_in=np.concatenate([b, [b_soft, 0.0]]))
        sol = solve_qp(qp)
        assert sol.status == "optimal"
        assert max(sol.residuals.values()) <= 1e-6
        assert sol.residuals == kkt_residuals(qp, sol.x, sol.z)

    @PROPERTY
    @given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), rhs=st.floats(-10.0, -1e-3))
    def test_zero_row_with_negative_rhs_is_degraded(self, n, seed, rhs):
        rng = np.random.default_rng(seed)
        H = random_pd(rng, n)
        G = np.vstack([np.eye(n), -np.eye(n), np.zeros((1, n))])
        h = np.concatenate([np.ones(2 * n), [rhs]])
        sol = solve_qp(QpProblem(H=H, g=rng.normal(size=n), G_in=G, h_in=h))
        assert sol.degraded
        assert sol.residuals["primal"] >= -rhs - 1e-12


def residuals_oracle(r_stat: np.ndarray, gap: np.ndarray, z: np.ndarray) -> dict:
    return {
        "stationarity": float(np.max(np.abs(r_stat), initial=0.0)),
        "primal": float(np.max(-gap, initial=0.0)),
        "comp": float(np.max(np.abs(z * gap), initial=0.0)),
    }


def max_step_oracle(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0.0
    if not neg.any():
        return 1.0
    return min(1.0, float(np.min(-v[neg] / dv[neg])))


def objective_oracle(qp: QpProblem, x: np.ndarray) -> float:
    return float(0.5 * x @ qp.H @ x + qp.g @ x + qp.cost_offset)


def solve_qp_oracle(qp: QpProblem) -> QpSolution:
    """The interior point written with scipy.linalg's Cholesky wrappers, a
    boolean-indexed step length per vector and a residual dict per iteration.

    ``solve_qp`` must equal it bit for bit: same iterates, exits and residuals.
    """
    n = qp.g.shape[0]
    mi = qp.h_in.shape[0]
    if mi == 0:
        raise ValueError("solve_qp needs at least one inequality row")
    # large cost scales (e.g. slack penalties) set the numeric floor of the residuals
    tol = max(TOL, 1e-12 * float(np.max(np.abs(qp.g), initial=1.0)))
    H, g, G, h = qp.H, qp.g, qp.G_in, qp.h_in

    # initial point: relaxed KKT solve (identity barrier, z = G x - h), then shift s, z positive
    try:
        x = scipy.linalg.cho_solve(scipy.linalg.cho_factor(H + G.T @ G + 1e-9 * np.eye(n)), G.T @ h - g)
    except (ValueError, scipy.linalg.LinAlgError):
        x = np.zeros(n)
    z0 = G @ x - h
    s = z0 + max(0.0, -float(z0.min())) + 1.0
    z = s.copy()

    best = None
    best_err = np.inf
    stalled = 0
    iters = 0
    for iters in range(1, MAX_ITER + 1):
        gx = G @ x
        r_d = H @ x + g + G.T @ z
        r_i = gx + s - h
        mu = float(s @ z) / mi

        res = residuals_oracle(r_d, h - gx, z)
        err = max(res.values())
        if err < 0.9 * best_err:
            best_err = err
            best = (x.copy(), z.copy())
            stalled = 0
        else:
            if err < best_err:
                best_err = err
                best = (x.copy(), z.copy())
            stalled += 1
        if err <= tol:
            return QpSolution(x=x, z=z, status="optimal", objective=objective_oracle(qp, x), iterations=iters,
                              residuals=res)
        if stalled >= 12:
            break

        with np.errstate(over="ignore", invalid="ignore"):
            w = np.clip(z / np.maximum(s, 1e-16), 0.0, 1e18)
        try:
            # non-finite entries surface as non-finite steps, checked below
            factor = scipy.linalg.cho_factor(H + G.T @ (w[:, None] * G), check_finite=False)
        except scipy.linalg.LinAlgError:
            break

        def newton_step(rc: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            s_safe = np.maximum(s, 1e-14)
            dx = scipy.linalg.cho_solve(factor, -r_d - G.T @ (rc / s_safe + w * r_i), check_finite=False)
            ds = -r_i - G @ dx
            dz = (rc - z * ds) / s_safe
            return dx, ds, dz

        # predictor
        dx_a, ds_a, dz_a = newton_step(-s * z)
        if not (np.all(np.isfinite(dx_a)) and np.all(np.isfinite(dz_a)) and np.all(np.isfinite(ds_a))):
            break
        alpha_p = max_step_oracle(s, ds_a)
        alpha_d = max_step_oracle(z, dz_a)
        mu_aff = float((s + alpha_p * ds_a) @ (z + alpha_d * dz_a)) / mi
        sigma = min(1.0, (mu_aff / mu) ** 3) if mu > 0 else 0.0

        # corrector; one step length for x, s and z keeps the residuals shrinking together
        rc = -s * z + sigma * mu - ds_a * dz_a
        dx, ds, dz = newton_step(rc)
        if not (np.all(np.isfinite(dx)) and np.all(np.isfinite(dz)) and np.all(np.isfinite(ds))):
            break
        alpha = 0.99 * min(max_step_oracle(s, ds), max_step_oracle(z, dz))
        x = x + alpha * dx
        s = s + alpha * ds
        z = z + alpha * dz

    x, z = best if best is not None else (x, z)
    res = residuals_oracle(qp.H @ x + qp.g + qp.G_in.T @ z, qp.h_in - qp.G_in @ x, z)
    status = "optimal" if max(res.values()) <= ACCEPT_TOL else "max_iter"
    return QpSolution(x=x, z=z, status=status, objective=objective_oracle(qp, x), iterations=iters, residuals=res)


def assert_same_solve(got: QpSolution, want: QpSolution):
    """Bit for bit: x and z bytes, iterations, status, residuals and objective (a NaN equals a NaN)."""
    assert got.x.shape == want.x.shape and got.x.tobytes() == want.x.tobytes()
    assert got.z.shape == want.z.shape and got.z.tobytes() == want.z.tobytes()
    assert (got.iterations, got.status) == (want.iterations, want.status)
    assert repr((got.residuals, got.objective)) == repr((want.residuals, want.objective))


class GivenField:
    """Barrier values and gradients at the operating states, as given: all the linearization reads."""

    def __init__(self, h: np.ndarray, grad: np.ndarray):
        self.h, self.grad = h, grad

    def query(self, xy):
        return self.h, self.grad


WORKSPACE = (-1.0, -2.5, 5.0, 3.5)


def controller_qp(seed: int, T: int, mode: str, gamma_bar: float, h_low: float, outside: bool) -> QpProblem:
    """The controller's QP with random linearization data.

    Input box rows, workspace rows (violated at k = 0 when ``outside``),
    slacked decay rows in CBF mode and hard barrier rows in classic mode,
    infeasible when the barrier values reach down to ``h_low`` < 0.
    """
    rng = np.random.default_rng(seed)
    params = ControllerParams(horizon=T, gamma_bar=gamma_bar)
    x_t = np.array([rng.uniform(-0.5, 4.5), rng.uniform(-2.0, 3.0), rng.uniform(-3.0, 3.0)])
    if outside:
        x_t[0] = WORKSPACE[2] + rng.uniform(0.01, 0.5)
    prev = hold_trajectory(x_t, T)
    prev.states = prev.states + np.cumsum(rng.uniform(-0.1, 0.1, (T + 1, 3)), axis=0)
    field = GivenField(rng.uniform(h_low, 1.8, T + 1), rng.normal(size=(T + 1, 2)))
    goal = np.array([rng.uniform(-0.5, 4.5), rng.uniform(-2.0, 3.0), 0.0])
    return build_qp(params, x_t, prev, field, goal, mode, workspace=WORKSPACE)


class TestBitIdentityWithOracle:
    @settings(max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 10), mode=st.sampled_from([MODE_CBF, MODE_CLASSIC]),
           gamma_bar=st.floats(0.01, 1.0), h_low=st.sampled_from([0.05, -0.3, -2.0]), outside=st.booleans())
    def test_controller_shaped_qps(self, seed, T, mode, gamma_bar, h_low, outside):
        qp = controller_qp(seed, T, mode, gamma_bar, h_low, outside)
        assert_same_solve(solve_qp(qp), solve_qp_oracle(qp))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e300, -1e300])
    @pytest.mark.parametrize("name", ["g", "h_in", "G_in", "H"])
    def test_nonfinite_and_huge_entries(self, name, value):
        # H.flat[5] = +-1e300 keeps the start's M finite but not positive definite: the factor fails
        for mode in (MODE_CBF, MODE_CLASSIC):
            qp = controller_qp(3, 4, mode, 0.1, -0.3, False)
            getattr(qp, name).flat[5] = value
            assert_same_solve(solve_qp(qp), solve_qp_oracle(qp))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("H, info_ok, factor_finite", [
        # a negative pivot: dpotrf fails and leaves a finite partial factor
        ([[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], False, True),
        # the first row's scale overflows to inf, 0 * inf makes the last pivot NaN,
        # and dpotrf reports success; cho_solve rejects such a factor
        ([[0.0, 0.0, 1e308], [0.0, 1.0, 0.0], [1e308, 0.0, 1.0]], True, False),
    ], ids=["failed", "nonfinite"])
    def test_failed_factor_of_finite_start(self, H, info_ok, factor_finite):
        H = np.array(H)
        qp = QpProblem(H=H, g=np.array([1.0, -1.0, 0.5]), G_in=np.array([[0.0, 1.0, 0.0]]), h_in=np.array([1.0]))
        M = H + qp.G_in.T @ qp.G_in + 1e-9 * np.eye(3)
        factor, info = scipy.linalg.lapack.dpotrf(M, lower=0, clean=0)
        assert np.isfinite(M).all()
        assert (info == 0, bool(np.isfinite(factor).all())) == (info_ok, factor_finite)
        assert_same_solve(solve_qp(qp), solve_qp_oracle(qp))

    @pytest.mark.parametrize("path, change, early_exits", [
        ("wall_sweep.json", lambda sc: replace(sc, controller=replace(sc.controller, gamma_bar=0.01)), 1),
        ("drawer_gap.json", lambda sc: replace(sc, mode=MODE_NONSEMANTIC), 0),
    ], ids=["wall_sweep_gamma_0.01", "drawer_gap_nonsemantic"])
    def test_closed_loop_solves(self, monkeypatch, scenario_dir, path, change, early_exits):
        captured = []

        def recording(qp):
            captured.append(qp)
            return solve_qp(qp)

        monkeypatch.setattr(mpc_mod, "solve_qp", recording)
        run_closed_loop(change(load_scenario(scenario_dir / path)))
        assert len(captured) >= 40
        sols = [solve_qp(qp) for qp in captured]
        for qp, sol in zip(captured, sols):
            assert_same_solve(sol, solve_qp_oracle(qp))
        # solves that left the loop above TOL (a stall) and still met ACCEPT_TOL
        assert sum(not sol.degraded and max(sol.residuals.values()) > TOL for sol in sols) >= early_exits


class TestExitPaths:
    """The loop's early exits return the best iterate; it counts as optimal only under ACCEPT_TOL."""

    @staticmethod
    def solve_recording_errors(monkeypatch, qp):
        errors = []
        residuals = qp_mod._residuals

        def recording(*args):
            res = residuals(*args)
            errors.append(max(res))
            return res

        monkeypatch.setattr(qp_mod, "_residuals", recording)
        sol = solve_qp(qp)
        return sol, errors[:-1]  # the last call rates the returned point

    def test_cholesky_failure_returns_the_start(self, monkeypatch):
        # H = 0 and one row on x[0] leave x[1] without curvature: M = H + G' W G is singular
        qp = QpProblem(H=np.zeros((2, 2)), g=np.array([1.0, 0.0]), G_in=np.array([[-1.0, 0.0]]), h_in=np.zeros(1))
        sol, errors = self.solve_recording_errors(monkeypatch, qp)
        assert sol.iterations == 1 and len(errors) == 1
        assert sol.status == "max_iter"
        assert max(sol.residuals.values()) == errors[0] > ACCEPT_TOL
        assert sol.residuals == kkt_residuals(qp, sol.x, sol.z)
        np.testing.assert_allclose(sol.x, [-1.0, 0.0], atol=1e-8)  # relaxed KKT start
        assert_same_solve(sol, solve_qp_oracle(qp))

    def test_stall_returns_the_best_iterate(self, monkeypatch):
        # x <= -1 and x >= 1: no iterate improves on the best by 10% for 12 iterations
        qp = QpProblem(H=np.array([[2.0]]), g=np.zeros(1), G_in=np.array([[1.0], [-1.0]]), h_in=np.array([-1.0, -1.0]))
        sol, errors = self.solve_recording_errors(monkeypatch, qp)
        assert sol.iterations == len(errors) == 13 < MAX_ITER
        assert max(sol.residuals.values()) == min(errors) > ACCEPT_TOL
        assert sol.residuals == kkt_residuals(qp, sol.x, sol.z)
        assert sol.status == "max_iter"
        assert_same_solve(sol, solve_qp_oracle(qp))

    def test_stalled_iterate_is_optimal_under_accept_tol(self, monkeypatch):
        qp = QpProblem(H=np.array([[2.0]]), g=np.zeros(1), G_in=np.array([[1.0], [-1.0]]), h_in=np.array([-1.0, -1.0]))
        worst = max(solve_qp(qp).residuals.values())
        monkeypatch.setattr(qp_mod, "ACCEPT_TOL", worst)
        sol = solve_qp(qp)
        assert sol.status == "optimal" and sol.iterations == 13

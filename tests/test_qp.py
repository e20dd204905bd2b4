import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semnav.qp import TOL, QpProblem, kkt_residuals, solve_qp


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

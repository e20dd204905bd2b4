"""Dense convex QP solver (predictor-corrector interior point).

Solves
    min 0.5 x^T H x + g^T x
    s.t. G x <= h
for small dense problems. Written for the receding-horizon controller: no
feasible start required, deterministic, and the returned solution carries its
KKT residuals so the caller can audit solve quality per tick. The initial
point and each Newton step solve one positive-definite system M = H + G^T W G
by Cholesky, through LAPACK dpotrf/dpotrs called directly (the routines
scipy.linalg.cho_factor/cho_solve wrap, whose argument handling took longer
than LAPACK itself on the controller's 40-variable systems). Non-finite data
or a failed factor starts the iteration at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

TOL = 1e-8  # residual target of the iteration
MAX_ITER = 60
ACCEPT_TOL = 1e-6  # residual bound under which a stalled or capped iterate still counts as optimal
RESIDUAL_KEYS = ("stationarity", "primal", "comp")


@dataclass
class QpProblem:
    H: np.ndarray  # (n, n) symmetric PSD
    g: np.ndarray  # (n,)
    G_in: np.ndarray  # (mi, n)
    h_in: np.ndarray  # (mi,)
    cost_offset: float = 0.0
    # equality rows are not supported; the fields stay, always empty, for callers that count rows
    A_eq: np.ndarray | None = None  # (0, n)
    b_eq: np.ndarray | None = None  # (0,)

    def __post_init__(self):
        n = self.g.shape[0]
        if self.H.shape != (n, n):
            raise ValueError("H must be (n, n)")
        if not np.allclose(self.H, self.H.T, atol=1e-10):
            raise ValueError("H must be symmetric")
        if self.G_in.size and self.G_in.shape[1] != n:
            raise ValueError("G_in column count mismatch")
        self.A_eq = np.zeros((0, n)) if self.A_eq is None else np.asarray(self.A_eq, dtype=float)
        self.b_eq = np.zeros(0) if self.b_eq is None else np.asarray(self.b_eq, dtype=float)
        if self.A_eq.size or self.b_eq.size:
            raise ValueError("equality rows are not supported; eliminate them before building the QP")


@dataclass
class QpSolution:
    x: np.ndarray
    z: np.ndarray  # inequality multipliers (>= 0)
    status: str  # "optimal" | "max_iter"
    objective: float
    iterations: int
    residuals: dict = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        return self.status != "optimal"


def _residuals(r_stat: np.ndarray, gap: np.ndarray, z: np.ndarray) -> tuple[float, float, float]:
    return float(np.abs(r_stat).max(initial=0.0)), float((-gap).max(initial=0.0)), float(np.abs(z * gap).max(initial=0.0))


def kkt_residuals(qp: QpProblem, x: np.ndarray, z: np.ndarray) -> dict:
    """Stationarity, primal feasibility and complementarity of a candidate point."""
    return dict(zip(RESIDUAL_KEYS, _residuals(qp.H @ x + qp.g + qp.G_in.T @ z, qp.h_in - qp.G_in @ x, z)))


def _objective(qp: QpProblem, x: np.ndarray) -> float:
    return float(0.5 * x @ qp.H @ x + qp.g @ x + qp.cost_offset)


def solve_qp(qp: QpProblem) -> QpSolution:
    """Mehrotra-style predictor-corrector interior point for dense convex QPs.

    Iterates until stationarity, primal feasibility and complementarity all
    fall below ``TOL``. On stall or iteration cap the best iterate is
    returned; it still counts as optimal if its residuals meet ``ACCEPT_TOL``
    (the solution contract), otherwise it is flagged degraded, which is the
    expected outcome for genuinely infeasible problems.
    """
    n = qp.g.shape[0]
    mi = qp.h_in.shape[0]
    if mi == 0:
        raise ValueError("solve_qp needs at least one inequality row")
    # large cost scales (e.g. slack penalties) set the numeric floor of the residuals
    tol = max(TOL, 1e-12 * float(np.max(np.abs(qp.g), initial=1.0)))
    H, g, G, h = qp.H, qp.g, qp.G_in, qp.h_in

    # initial point: relaxed KKT solve (identity barrier, z = G x - h), then shift s, z positive
    x = np.zeros(n)
    M = H + G.T @ G + 1e-9 * np.eye(n)
    if np.isfinite(M).all():  # LAPACK's result on non-finite input is undefined
        factor, info = dpotrf(M, lower=0, clean=0)
        rhs = G.T @ h - g
        if info == 0 and np.isfinite(rhs).all() and np.isfinite(factor).all():
            x = dpotrs(factor, rhs, lower=0)[0]
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

        res = _residuals(r_d, h - gx, z)
        err = max(res)
        stalled = 0 if err < 0.9 * best_err else stalled + 1  # a NaN error counts as a stall
        if err < best_err:
            best_err = err
            best = (x.copy(), z.copy())
        if err <= tol:
            return QpSolution(x=x, z=z, status="optimal", objective=_objective(qp, x), iterations=iters,
                              residuals=dict(zip(RESIDUAL_KEYS, res)))
        if stalled >= 12:
            break

        with np.errstate(over="ignore", invalid="ignore"):
            w = np.clip(z / np.maximum(s, 1e-16), 0.0, 1e18)
        # non-finite entries surface as non-finite steps, checked below
        factor, info = dpotrf(H + G.T @ (w[:, None] * G), lower=0, clean=0)
        if info != 0:
            break
        s_safe = np.maximum(s, 1e-14)

        def newton_step(rc: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            dx = dpotrs(factor, -r_d - G.T @ (rc / s_safe + w * r_i), lower=0)[0]
            ds = -r_i - G @ dx
            dz = (rc - z * ds) / s_safe
            return dx, ds, dz

        # predictor
        dx_a, ds_a, dz_a = newton_step(-s * z)
        if not np.isfinite(np.concatenate((dx_a, ds_a, dz_a))).all():
            break
        alpha_p = _max_step(s, ds_a)
        alpha_d = _max_step(z, dz_a)
        mu_aff = float((s + alpha_p * ds_a) @ (z + alpha_d * dz_a)) / mi
        sigma = min(1.0, (mu_aff / mu) ** 3) if mu > 0 else 0.0

        # corrector; one step length for x, s and z keeps the residuals shrinking together
        rc = -s * z + sigma * mu - ds_a * dz_a
        dx, ds, dz = newton_step(rc)
        if not np.isfinite(np.concatenate((dx, ds, dz))).all():
            break
        alpha = 0.99 * _max_step(np.concatenate((s, z)), np.concatenate((ds, dz)))
        x = x + alpha * dx
        s = s + alpha * ds
        z = z + alpha * dz

    x, z = best if best is not None else (x, z)
    res = kkt_residuals(qp, x, z)
    status = "optimal" if max(res.values()) <= ACCEPT_TOL else "max_iter"
    return QpSolution(x=x, z=z, status=status, objective=_objective(qp, x), iterations=iters, residuals=res)


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    return min(1.0, float(np.divide(-v, dv, out=np.ones_like(v), where=dv < 0.0).min()))

"""Per-object Bayesian change filter over (geometric shift, consistency).

The state is a Gaussian-Beta product: a Gaussian over the mean TSDF shift of
the object and a Beta over the probability that the object is unchanged. A
scalar discrepancy measurement is explained by a two-component mixture (the
object is consistent and the discrepancy is noise, or the object moved by the
latent shift); the exact mixture posterior is moment-matched back onto a
Gaussian-Beta product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grids import sample_multilinear

# E[v] is held this far inside (0, 1). With no margin, some 12,900 agreeing updates bring E[v] * (1 - E[v])
# below the 1e-12 variance floor and the Beta has no valid moments. At 1e-9 that limit stays 1000 times
# above the floor, a / (a + b) stays inside (0, 1), and no decision reads the difference.
EV_MARGIN = 1e-9


@dataclass(frozen=True)
class GaussianBetaState:
    mu: float  # mean of the geometric shift (m)
    sigma: float  # std of the shift (m), > 0
    alpha: float  # Beta pseudo-count, > 0
    beta: float  # Beta pseudo-count, > 0

    def __post_init__(self):
        if self.sigma <= 0.0 or self.alpha <= 0.0 or self.beta <= 0.0:
            raise ValueError("GaussianBetaState requires sigma, alpha, beta > 0")

    @property
    def mean_consistency(self) -> float:
        return self.alpha / (self.alpha + self.beta)


@dataclass(frozen=True)
class ConsistencyParams:
    sigma_m: float = 0.1  # measurement noise std of the discrepancy (m)
    removal_threshold: float = 0.4
    n_max: float = 50.0  # cap on alpha + beta
    rho_s: float = 0.0  # optional per-frame stationarity pseudo-count
    prior_static: tuple[float, float] = (9.0, 1.0)
    prior_dynamic: tuple[float, float] = (6.0, 4.0)
    prior_sigma: float = 0.2  # initial shift std (m)

    def __post_init__(self):
        for name, v in (("sigma_m", self.sigma_m), ("prior_sigma", self.prior_sigma), ("n_max", self.n_max),
                        ("prior_static", min(self.prior_static)), ("prior_dynamic", min(self.prior_dynamic))):
            if v <= 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("sigma_m", "prior_sigma"):  # the filter squares both and takes logs of the squares
            if not 0.0 < getattr(self, name) * getattr(self, name) < math.inf:
                raise ValueError(f"{name} must have a square that is positive and finite")
        if not 0.0 < self.removal_threshold < 1.0:
            raise ValueError("removal_threshold must be in (0, 1)")
        if self.rho_s < 0.0:
            raise ValueError("rho_s must be >= 0")
        # a new object starts at its prior's mean E[v], and the removal sweep runs on its spawn tick
        if self.removal_threshold > min(a / (a + b) for a, b in (self.prior_static, self.prior_dynamic)):
            raise ValueError("removal_threshold must not exceed either prior's mean E[v], a / (a + b)")


def initial_state(stationarity: int, params: ConsistencyParams) -> GaussianBetaState:
    a, b = params.prior_static if stationarity == 1 else params.prior_dynamic
    return GaussianBetaState(mu=0.0, sigma=params.prior_sigma, alpha=a, beta=b)


def beta_from_moments(mean: float, var: float) -> tuple[float, float]:
    """Beta parameters matching a given mean and variance.

    Requires 0 < mean < 1 and 0 < var < mean*(1-mean).
    """
    if not 0.0 < mean < 1.0:
        raise ValueError(f"mean must be in (0, 1), got {mean}")
    limit = mean * (1.0 - mean)
    if not 0.0 < var < limit:
        raise ValueError(f"variance must be in (0, {limit}), got {var}")
    nu = limit / var - 1.0
    return mean * nu, (1.0 - mean) * nu


def compute_delta(record, obs) -> float | None:
    """Mean stored-TSDF value of an object sampled at the observed points.

    Points outside the object's grid extent are skipped; returns None when no
    point overlaps the grid (no measurement).
    """
    grid = record.tsdf
    inside = grid.contains(obs.points)
    if not inside.any():
        return None
    return float(sample_multilinear(grid, obs.points[inside])[0].mean())


def _log_normpdf(x: float, mean: float, var: float) -> float:
    return -0.5 * (math.log(2.0 * math.pi * var) + (x - mean) ** 2 / var)


def update_consistency(
    state: GaussianBetaState,
    delta: float,
    params: ConsistencyParams,
    stationarity: int = 1,
) -> tuple[GaussianBetaState, bool]:
    """One Bayesian update from a discrepancy measurement.

    The measurement likelihood is a consistency-weighted mixture of a
    noise-only Gaussian and a shifted Gaussian centred on the latent change.
    The exact posterior (a two-component Gaussian-Beta mixture) is collapsed
    by matching the means and variances of both marginals; then an optional
    stationarity pseudo-count is applied and the Beta mass is rescaled to the
    configured cap. Returns (new_state, degenerate_flag); the flag marks a
    clamped Beta variance.
    """
    if not math.isfinite(delta):
        raise ValueError("delta must be finite")
    mu, sig, a, b = state.mu, state.sigma, state.alpha, state.beta
    vm = params.sigma_m**2
    vl = sig**2

    log_w1 = math.log(a / (a + b)) + _log_normpdf(delta, 0.0, vm)
    log_w2 = math.log(b / (a + b)) + _log_normpdf(delta, mu, vm + vl)
    m = max(log_w1, log_w2)
    z = math.exp(log_w1 - m) + math.exp(log_w2 - m)
    w1 = math.exp(log_w1 - m) / z
    w2 = math.exp(log_w2 - m) / z

    mu2 = (vm * mu + vl * delta) / (vm + vl)
    var2 = vm * vl / (vm + vl)

    e_l = w1 * mu + w2 * mu2
    e_l2 = w1 * (vl + mu**2) + w2 * (var2 + mu2**2)
    var_l = max(e_l2 - e_l**2, 1e-12)

    s = a + b
    e_v = (w1 * (a + 1.0) + w2 * a) / (s + 1.0)
    e_v2 = (w1 * (a + 1.0) * (a + 2.0) + w2 * a * (a + 1.0)) / ((s + 1.0) * (s + 2.0))
    var_v = e_v2 - e_v**2
    e_v = min(max(e_v, EV_MARGIN), 1.0 - EV_MARGIN)

    degenerate = False
    limit = e_v * (1.0 - e_v)
    if var_v >= limit:
        var_v = 0.999 * limit
        degenerate = True
    var_v = max(var_v, 1e-12)

    a_new, b_new = beta_from_moments(e_v, var_v)

    if stationarity == 1:
        a_new += params.rho_s
    else:
        b_new += params.rho_s

    total = a_new + b_new
    if total > params.n_max:
        scale = params.n_max / total
        a_new *= scale
        b_new *= scale

    return GaussianBetaState(mu=e_l, sigma=math.sqrt(var_l), alpha=a_new, beta=b_new), degenerate


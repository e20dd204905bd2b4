import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semnav.consistency import (
    ConsistencyParams,
    GaussianBetaState,
    beta_from_moments,
    compute_delta,
    initial_state,
    update_consistency,
)
from semnav.grids import sample_multilinear
from semnav.mapping import spawn_object

from conftest import make_observation

PARAMS = ConsistencyParams()
STATIC_PRIOR = GaussianBetaState(mu=0.0, sigma=0.2, alpha=9.0, beta=1.0)


def posterior_moments_by_quadrature(
    state: GaussianBetaState,
    delta: float,
    params: ConsistencyParams,
    n_l: int = 3001,
    n_v: int = 1501,
) -> tuple[float, float, float]:
    """Brute-force posterior moments by 2-D trapezoid integration.

    Independent oracle for the closed-form update: integrates the
    unnormalized posterior over a wide shift range and the unit interval and
    returns (E[v], E[l], Var[l]).
    """
    mu, sig, a, b = state.mu, state.sigma, state.alpha, state.beta
    vm = params.sigma_m**2
    span = 10.0 * max(sig, params.sigma_m)
    lo = min(mu, delta, 0.0) - span
    hi = max(mu, delta, 0.0) + span
    l = np.linspace(lo, hi, n_l)
    v = np.linspace(0.0, 1.0, n_v)
    lg, vg = np.meshgrid(l, v, indexing="ij")

    lik = vg * np.exp(-0.5 * delta**2 / vm) + (1.0 - vg) * np.exp(-0.5 * (delta - lg) ** 2 / vm)
    prior = np.exp(-0.5 * (lg - mu) ** 2 / sig**2) * np.power(vg, a - 1.0) * np.power(1.0 - vg, b - 1.0)
    post = lik * prior

    z = np.trapezoid(np.trapezoid(post, v, axis=1), l)
    e_v = np.trapezoid(np.trapezoid(post * vg, v, axis=1), l) / z
    e_l = np.trapezoid(np.trapezoid(post * lg, v, axis=1), l) / z
    e_l2 = np.trapezoid(np.trapezoid(post * lg**2, v, axis=1), l) / z
    return float(e_v), float(e_l), float(e_l2 - e_l**2)


class TestBetaFromMoments:
    def test_symmetric_case(self):
        assert beta_from_moments(0.5, 0.05) == pytest.approx((2.0, 2.0))

    def test_skewed_case(self):
        a, b = beta_from_moments(0.9, 0.009)
        assert (a, b) == pytest.approx((8.1, 0.9))

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.uniform(0.3, 20.0, size=2)
            m = a / (a + b)
            v = a * b / ((a + b) ** 2 * (a + b + 1.0))
            a2, b2 = beta_from_moments(m, v)
            assert a2 == pytest.approx(a, abs=1e-9)
            assert b2 == pytest.approx(b, abs=1e-9)

    def test_reconstructed_moments(self):
        a, b = beta_from_moments(0.37, 0.041)
        assert a / (a + b) == pytest.approx(0.37, abs=1e-12)
        assert a * b / ((a + b) ** 2 * (a + b + 1)) == pytest.approx(0.041, abs=1e-12)

    @settings(max_examples=1000)
    @given(mean=st.floats(1e-6, 1.0 - 1e-6), frac=st.floats(1e-9, 1.0 - 1e-9))
    def test_moments_round_trip_property(self, mean, frac):
        var = frac * mean * (1.0 - mean)  # every admissible variance, as a fraction of its limit
        a, b = beta_from_moments(mean, var)
        assert a > 0.0 and b > 0.0
        assert a / (a + b) == pytest.approx(mean, rel=1e-9)
        assert a * b / ((a + b) ** 2 * (a + b + 1.0)) == pytest.approx(var, rel=1e-9)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            beta_from_moments(0.0, 0.01)
        with pytest.raises(ValueError):
            beta_from_moments(0.5, 0.25)
        with pytest.raises(ValueError):
            beta_from_moments(0.5, 0.0)


class TestUpdate:
    def test_agreeing_measurement_raises_consistency(self):
        new, flag = update_consistency(STATIC_PRIOR, 0.0, PARAMS)
        assert new.mean_consistency > STATIC_PRIOR.mean_consistency
        assert not flag

    def test_disagreeing_measurement_lowers_consistency_and_tracks_shift(self):
        new, _ = update_consistency(STATIC_PRIOR, 0.5, PARAMS)
        assert new.mean_consistency < STATIC_PRIOR.mean_consistency
        assert 0.0 < new.mu < 0.5
        assert new.mu > STATIC_PRIOR.mu

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            state = GaussianBetaState(
                mu=rng.uniform(-0.5, 0.5),
                sigma=rng.uniform(0.05, 0.4),
                alpha=rng.uniform(1.2, 12.0),
                beta=rng.uniform(1.2, 12.0),
            )
            params = ConsistencyParams(sigma_m=rng.uniform(0.05, 0.3), n_max=1e9)
            delta = rng.uniform(-0.8, 0.8)
            new, _ = update_consistency(state, delta, params)
            ev, el, varl = posterior_moments_by_quadrature(state, delta, params)
            assert new.mean_consistency == pytest.approx(ev, abs=1e-3)
            assert new.mu == pytest.approx(el, abs=1e-3)
            assert new.sigma**2 == pytest.approx(varl, abs=1e-3)

    def test_monotone_agreeing_sequence(self):
        state = initial_state(1, PARAMS)
        prev = state.mean_consistency
        for _ in range(30):
            state, _ = update_consistency(state, 0.0, PARAMS)
            assert state.mean_consistency >= prev - 1e-12
            prev = state.mean_consistency

    def test_monotone_disagreeing_sequence(self):
        state = GaussianBetaState(mu=0.5, sigma=0.1, alpha=9.0, beta=1.0)
        prev = state.mean_consistency
        for _ in range(30):
            state, _ = update_consistency(state, 0.5, PARAMS)  # |delta| = 5 sigma_m, near mu
            assert state.mean_consistency <= prev + 1e-12
            prev = state.mean_consistency

    def test_removal_trigger_within_25_updates(self):
        state = initial_state(1, PARAMS)
        for k in range(1, 26):
            state, _ = update_consistency(state, 0.5, PARAMS)
            if state.mean_consistency < PARAMS.removal_threshold:
                break
        assert state.mean_consistency < PARAMS.removal_threshold
        assert k <= 25

    def test_state_stays_valid_under_stress(self):
        rng = np.random.default_rng(11)
        state = initial_state(0, PARAMS)
        for _ in range(200):
            delta = float(rng.uniform(-2.0, 2.0))
            state, _ = update_consistency(state, delta, PARAMS)
            assert 0.0 < state.mean_consistency < 1.0
            assert state.sigma > 0.0
            assert state.alpha + state.beta <= PARAMS.n_max + 1e-9

    @pytest.mark.parametrize("stationarity", [1, 0])
    @pytest.mark.parametrize("step", [0.0, 0.02])
    def test_state_stays_valid_over_a_long_run(self, stationarity, step):
        # 10^5 updates with a random-walk delta; step 0 is an object that always agrees, whose E[v]
        # once came within 1e-12 of 1 and left the Beta no valid variance after 12,945 updates
        rng = np.random.default_rng(5)
        state, delta = initial_state(stationarity, PARAMS), 0.0
        for _ in range(100_000):
            delta += step * float(rng.standard_normal())
            state, _ = update_consistency(state, delta, PARAMS, stationarity)
            assert 0.0 < state.mean_consistency < 1.0
            assert 0.0 < state.alpha + state.beta <= PARAMS.n_max + 1e-9

    def test_pseudo_count_cap(self):
        params = ConsistencyParams(n_max=12.0)
        state = initial_state(1, params)
        for _ in range(20):
            state, _ = update_consistency(state, 0.0, params)
        assert state.alpha + state.beta <= 12.0 + 1e-9

    def test_stationarity_pseudo_count(self):
        params = ConsistencyParams(rho_s=1.0)
        up_static, _ = update_consistency(STATIC_PRIOR, 0.0, params, stationarity=1)
        up_dynamic, _ = update_consistency(STATIC_PRIOR, 0.0, params, stationarity=0)
        assert up_static.mean_consistency > up_dynamic.mean_consistency

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            update_consistency(STATIC_PRIOR, float("nan"), PARAMS)


class TestComputeDelta:
    def test_on_surface_near_zero(self, small_library):
        pts = np.array([[2.0, y, z] for y in np.linspace(-0.5, 0.5, 21) for z in np.linspace(0.2, 0.6, 5)])
        obs = make_observation(pts)
        rec = spawn_object(obs, small_library, (0.0, 0.0, 0.4))
        delta = compute_delta(rec, obs)
        assert delta is not None
        assert abs(delta) <= small_library.params.resolution

    def test_displaced_observation_matches_direct_sampling(self, small_library):
        pts = np.array([[2.0, y, z] for y in np.linspace(-0.5, 0.5, 21) for z in np.linspace(0.2, 0.6, 5)])
        rec = spawn_object(make_observation(pts), small_library, (0.0, 0.0, 0.4))
        shifted = make_observation(pts + np.array([0.2, 0.0, 0.0]))
        delta = compute_delta(rec, shifted)
        inside = rec.tsdf.contains(shifted.points)
        oracle = sample_multilinear(rec.tsdf, shifted.points[inside])[0].mean()
        assert delta == pytest.approx(oracle, abs=1e-12)
        assert delta < 0  # the shifted surface sits behind the reconstructed one

    def test_no_overlap_returns_none(self, small_library):
        rec = spawn_object(make_observation([[1.0, 0.0, 0.2]]), small_library, (0.0, 0.0, 0.3))
        far = make_observation([[3.5, 1.5, 0.2]])
        assert compute_delta(rec, far) is None

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import klsmooth as ks
from klsmooth.estimator import (DEFAULT_EPS_C_REL, DEFAULT_EPS_MU, DEFAULT_W_MIN, SLOPE_CHUNK,
                                VERDICT_STABLE, VERDICT_UNSTABLE, EstimateTrack,
                                detect_discretization_saturation,
                                detect_noise_takeover, detect_stable_window,
                                estimate_track, gamma_to_mu)
from klsmooth.landweber import IterationTrace, LandweberConfig, landweber_run
from klsmooth.problems import add_noise, make_power_law

from _oracles import (brute_force_least_squares, mu_to_model, regress_prefix,
                      stable_window_oracle)


def mk_trace(R, G, errors=None):
    R = np.asarray(R, dtype=float)
    G = np.asarray(G, dtype=float)
    with np.errstate(divide="ignore"):
        lb = np.where(G > 0, R**2 / np.where(G > 0, G, 1.0), np.nan)
    return IterationTrace(residuals=R, gradient_norms=G, lower_bounds=lb,
                          errors=None if errors is None else np.asarray(errors, float))


def power_trace(gamma, c, n, r0=np.e, decay=1.0):
    """Exact log-linear data G = R^gamma / c with geometric residuals."""
    k = np.arange(n)
    R = r0 * np.exp(-decay * k)
    G = R**gamma / c
    return mk_trace(R, G)


def test_regress_prefix_exact_case():
    R = np.exp(-np.arange(1, 4, dtype=float))
    G = 2.0 * R**1.5
    trace = mk_trace(R, G)
    gamma_hat, c_log_hat = regress_prefix(trace, 3)
    assert gamma_hat == pytest.approx(1.5, abs=1e-12)
    assert c_log_hat == pytest.approx(-np.log(2.0), abs=1e-12)


def test_regress_prefix_two_points_interpolates():
    trace = mk_trace([0.9, 0.4], [0.5, 0.1])
    gamma_hat, c_log_hat = regress_prefix(trace, 2)
    lr = np.log(trace.residuals)
    lg = np.log(trace.gradient_norms)
    assert gamma_hat * lr[0] - c_log_hat == pytest.approx(lg[0], abs=1e-12)
    assert gamma_hat * lr[1] - c_log_hat == pytest.approx(lg[1], abs=1e-12)


def test_regress_prefix_degenerate():
    trace = mk_trace([0.5, 0.5, 0.5], [0.2, 0.3, 0.25])
    with pytest.raises(ValueError, match="regression is singular"):
        regress_prefix(trace, 3)


def test_regress_prefix_validation():
    trace = power_trace(1.5, 1.0, 10)
    with pytest.raises(ValueError):
        regress_prefix(trace, 1)
    with pytest.raises(ValueError):
        regress_prefix(trace, 11)


def test_regress_prefix_matches_brute_force():
    rng = np.random.default_rng(9)
    R = np.exp(-np.linspace(0.1, 3.0, 40)) * (1 + 0.01 * rng.standard_normal(40))
    G = R**1.4 * np.exp(0.02 * rng.standard_normal(40))
    trace = mk_trace(R, G)
    gamma_hat, c_log_hat = regress_prefix(trace, 40)
    slope, intercept = brute_force_least_squares(np.log(R), np.log(G))
    assert gamma_hat == pytest.approx(slope, rel=1e-10)
    assert c_log_hat == pytest.approx(-intercept, rel=1e-10)


def test_gamma_to_mu_values():
    assert gamma_to_mu(2.0) == 0.0
    assert gamma_to_mu(11.0 / 7.0) == pytest.approx(0.375, abs=1e-12)
    assert gamma_to_mu(11.0 / 6.0) == pytest.approx(0.1, abs=1e-12)
    assert gamma_to_mu(3.0) < 0  # nonpositive mu passes through


def test_gamma_to_mu_infinite_smoothness():
    assert not np.isfinite(gamma_to_mu(1.0))  # unbounded smoothness, for a Python float too


def test_gamma_to_mu_elementwise_matches_inline_formula():
    gamma = np.array([1.0, 2.0, 1.5, 11.0 / 7.0, 3.0, 0.5, np.nan])
    with np.errstate(divide="ignore", invalid="ignore"):
        inline = (2.0 - gamma) / (2.0 * gamma - 2.0)
    mu = gamma_to_mu(gamma)
    assert mu.shape == gamma.shape
    assert mu.tobytes() == inline.tobytes()


def test_mu_to_model_exponents():
    m = mu_to_model(0.375, 1.0)
    assert m.rate_exponent == pytest.approx(3.0 / 7.0, abs=1e-12)
    assert m.gamma == pytest.approx(1.571429, abs=1e-6)
    assert m.kappa == pytest.approx(-0.785714, abs=1e-6)
    assert m.phi_exponent == pytest.approx(0.375 / 1.75, abs=1e-12)
    # rate exponents quoted to three decimals for mu = 0.13, 0.2, 0.3
    assert round(mu_to_model(0.13, 1.0).rate_exponent, 3) == 0.206
    assert round(mu_to_model(0.2, 1.0).rate_exponent, 4) == 0.2857
    assert round(mu_to_model(0.3, 1.0).rate_exponent, 3) == 0.375


def test_mu_to_model_validation():
    with pytest.raises(ValueError):
        mu_to_model(0.0, 1.0)
    with pytest.raises(ValueError):
        mu_to_model(0.5, 0.0)


@pytest.mark.parametrize("mu", [0.01, 0.1, 0.5, 1.0, 5.0])
def test_round_trip_mu_gamma(mu):
    m = mu_to_model(mu, 1.0)
    assert gamma_to_mu(m.gamma) == pytest.approx(mu, abs=1e-12)
    assert 1.0 < m.gamma < 2.0
    assert -1.0 < m.kappa < -0.5
    # the exponents are mutually consistent
    assert abs(m.phi_exponent - (m.kappa + 1.0)) <= 1e-14
    assert abs(m.rate_exponent - 2.0 * m.phi_exponent) <= 1e-14
    assert abs(m.gamma + 2.0 * m.kappa - 0.0) <= 1e-14


@settings(deadline=None, max_examples=50)
@given(st.floats(min_value=1.0 + 1e-6, max_value=2.0 - 1e-6),
       st.floats(min_value=0.05, max_value=20.0),
       st.integers(min_value=2, max_value=60))
def test_exact_recovery_any_gamma(gamma, c, k):
    trace = power_trace(gamma, c, 60, decay=0.3)
    gamma_hat, c_log_hat = regress_prefix(trace, k)
    assert gamma_hat == pytest.approx(gamma, abs=1e-10)
    assert np.exp(c_log_hat) == pytest.approx(c, rel=1e-9)


def test_normal_equation_orthogonality():
    rng = np.random.default_rng(4)
    R = np.exp(-0.2 * np.arange(30)) * np.exp(0.05 * rng.standard_normal(30))
    G = R**1.6 * np.exp(0.1 * rng.standard_normal(30))
    trace = mk_trace(R, G)
    gamma_hat, c_log_hat = regress_prefix(trace, 30)
    lr = np.log(R)
    misfit = np.log(G) - (gamma_hat * lr - c_log_hat)
    scale = np.linalg.norm(misfit) * np.linalg.norm(lr)
    assert abs(misfit @ lr) <= 1e-8 * max(scale, 1e-30)
    assert abs(misfit.sum()) <= 1e-8 * max(np.linalg.norm(misfit) * np.sqrt(30), 1e-30)


@settings(deadline=None, max_examples=25)
@given(st.floats(min_value=1e-3, max_value=1e3))
def test_scale_robustness(lam):
    base = power_trace(1.5, 2.0, 25, decay=0.4)
    scaled = mk_trace(lam * base.residuals, lam * base.gradient_norms)
    g0, _ = regress_prefix(base, 25)
    g1, _ = regress_prefix(scaled, 25)
    assert g1 == pytest.approx(g0, abs=1e-9)


def test_estimate_track_exact_power_law():
    # gamma = 1.5 inverts to mu = (2 - 1.5) / (2*1.5 - 2) = 0.5
    trace = power_trace(1.5, 2.0, 120, decay=0.2)
    track = estimate_track(trace)
    assert np.allclose(track.mu_k, 0.5, atol=1e-9)
    assert np.allclose(track.c_k, 2.0, rtol=1e-9)
    assert track.stable_window == (5, 120)  # full range from k_min
    assert track.mu_hat == pytest.approx(0.5, abs=1e-9)
    assert track.c_hat == pytest.approx(2.0, rel=1e-9)
    assert track.verdict == "stable"
    assert track.noise_takeover_k is None


def test_estimate_track_validation():
    trace = power_trace(1.5, 1.0, 10)
    with pytest.raises(ValueError):
        estimate_track(trace, k_min=1)
    with pytest.raises(ValueError):
        estimate_track(trace, k_min=11)


def test_estimate_track_benchmark_recovers_mu():
    p = make_power_law(10000, 2, 2)
    trace = landweber_run(p, p.y_clean, LandweberConfig(max_iters=2000))
    track = estimate_track(trace)
    assert track.verdict == "stable"
    assert track.mu_hat == pytest.approx(0.375, abs=0.05)
    assert track.stable_window[1] == 2000
    # clean, well-resolved run: neither failure diagnostic may fire
    assert track.noise_takeover_k is None
    assert detect_discretization_saturation(trace) is None


def test_stable_window_constant_track():
    n = 120
    track = EstimateTrack(k_min=5, mu_k=np.full(n, 0.3), c_k=np.ones(n))
    win = detect_stable_window(track)
    assert win == (5, 5 + n - 1)


def test_stable_window_monotone_none():
    n = 200
    mu = np.linspace(0.01, 1.0, n)  # > eps_mu drift over any 50-wide window
    track = EstimateTrack(k_min=5, mu_k=mu, c_k=np.ones(n))
    assert detect_stable_window(track) is None


def test_stable_window_excludes_nonpositive_mu():
    n = 150
    mu = np.full(n, 0.4)
    mu[60:80] = -0.1  # collapse segment breaks contiguity
    track = EstimateTrack(k_min=1, mu_k=mu, c_k=np.ones(n))
    win = detect_stable_window(track, w_min=50)
    assert win == (81, 150)


def test_stable_window_c_criterion():
    n = 150
    c = np.ones(n)
    c[100:] = np.linspace(1.0, 3.0, 50)  # c drifts: window must avoid the tail
    track = EstimateTrack(k_min=1, mu_k=np.full(n, 0.2), c_k=c)
    win = detect_stable_window(track, w_min=50)
    assert win is not None
    assert win[1] <= 105


@pytest.mark.parametrize("noise", [0.0, 0.001])
def test_stable_window_matches_deque_oracle_at_full_size(noise):
    # criterion 09's n = 200 problem to K = 70,000: about 4,375 blocks of
    # WINDOW_STRIDE entries, where the property tests' tracks reach 18
    p = make_power_law(200, 2, 1)
    data = add_noise(p, noise, 1).y_delta if noise else p.y_clean
    track = estimate_track(landweber_run(p, data, LandweberConfig(max_iters=70_000)))
    assert track.mu_k.size > 69_000
    assert track.stable_window == stable_window_oracle(track, DEFAULT_W_MIN, DEFAULT_EPS_MU,
                                                       DEFAULT_EPS_C_REL)


@pytest.mark.parametrize("eps_mu, eps_c_rel", [(-1.0, 0.05), (0.05, -1.0), (np.nan, 0.05)])
def test_stable_window_rejects_bad_tolerances(eps_mu, eps_c_rel):
    track = EstimateTrack(k_min=1, mu_k=np.full(60, 0.3), c_k=np.ones(60))
    with pytest.raises(ValueError):
        detect_stable_window(track, w_min=10, eps_mu=eps_mu, eps_c_rel=eps_c_rel)


def test_noise_takeover_absent_on_decreasing():
    k = np.arange(1, 200)
    R = 1.0 / k
    trace = mk_trace(R, R * 0.5)
    assert detect_noise_takeover(trace) is None


def test_noise_takeover_fires_on_sustained_rise():
    k = np.arange(300, dtype=float)
    R = np.exp(-0.01 * k)
    lb = np.concatenate([np.exp(-0.02 * k[:150]), np.exp(-0.02 * 149) * 1.01 ** k[:150]])
    G = R**2 / lb
    trace = mk_trace(R, G)
    k_star = detect_noise_takeover(trace)
    assert k_star is not None
    assert 145 <= k_star <= 155


def test_noise_takeover_ignores_reverting_oscillation():
    k = np.arange(400, dtype=float)
    R = np.exp(-0.01 * k)
    # bounded oscillation superimposed on a decreasing trend: always reverts
    lb = np.exp(-0.015 * k) * (1.0 + 0.3 * np.sin(k / 15.0))
    G = R**2 / lb
    trace = mk_trace(R, G)
    assert detect_noise_takeover(trace) is None


def test_noise_takeover_short_trace():
    trace = mk_trace([0.5, 0.4, 0.3], [0.2, 0.1, 0.05])
    assert detect_noise_takeover(trace) is None


def test_saturation_detected_on_synthetic_two_slope():
    k = np.arange(400, dtype=float)
    lr = -0.01 * k
    ly = np.where(k < 150, 0.6 * lr, 1.0 * lr - 0.4 * 0.01 * 150)
    R = np.exp(lr)
    lb = np.exp(ly)
    trace = mk_trace(R, R**2 / lb)
    onset = detect_discretization_saturation(trace)
    assert onset is not None
    assert 150 <= onset <= 180


def test_saturation_absent_on_single_slope():
    k = np.arange(400, dtype=float)
    R = np.exp(-0.01 * k)
    lb = R**0.6
    trace = mk_trace(R, R**2 / lb)
    assert detect_discretization_saturation(trace) is None


def test_saturation_short_trace():
    trace = mk_trace([0.5, 0.4], [0.2, 0.1])
    assert detect_discretization_saturation(trace) is None


def test_saturation_under_resolved_benchmark():
    # n = 30 saturates within 2000 iterations; the same problem at n = 300
    # has its well-posed regime far beyond the horizon
    p = make_power_law(30, 2, 1)
    trace = landweber_run(p, p.y_clean, LandweberConfig(max_iters=2000))
    onset = detect_discretization_saturation(trace)
    assert onset is not None
    assert 400 <= onset <= 1900
    sel = slice(onset, len(trace))
    slope = np.polyfit(np.log(trace.residuals[sel]),
                       np.log(trace.lower_bounds[sel]), 1)[0]
    assert 0.85 <= slope <= 1.15

    p_fine = make_power_law(300, 2, 1)
    trace_fine = landweber_run(p_fine, p_fine.y_clean, LandweberConfig(max_iters=2000))
    assert detect_discretization_saturation(trace_fine) is None


def _traced_bytes(fn, *args) -> tuple[int, int]:
    """What one call allocates: the bytes its result keeps, and its peak."""
    tracemalloc.start()
    try:
        result = fn(*args)  # held while the memory is read
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_estimate_stage_memory_stays_bounded():
    # the saturation benchmark's trace: power law n = 200 to K = 70,000
    p = make_power_law(200, 2, 1)
    trace = landweber_run(p, p.y_clean, LandweberConfig(max_iters=70_000))
    column = 8 * len(trace)   # bytes of one float64 column of the trace
    # np.median imports numpy.ma on its first call, which would count as kept
    estimate_track(trace)
    kept, peak = _traced_bytes(estimate_track, trace)
    # the prefix fits and the window search run by chunks of ESTIMATE_CHUNK
    # entries, so the estimate stage holds about 4.3 columns at its peak
    # (8.3 when the fits held four running sums and the window search its
    # copies of the track, 14.3 when every sum, fit and product was a new array)
    assert peak < 4.5 * column
    # the track keeps mu_k and c_k; its k_values is computed from k_min
    assert kept < 2.05 * column
    # the saturation scan holds one chunk's running sums and their window
    # differences, about 2.5 (4, SLOPE_CHUNK) arrays, whatever the length
    # of the trace (5 here when it logged and sloped the whole trace)
    assert _traced_bytes(detect_discretization_saturation, trace)[1] < 3 * 4 * 8 * SLOPE_CHUNK


def test_exp_operator_verdict_unstable():
    import klsmooth.problems as problems
    p = problems.make_exp_operator(400, 2)
    trace = landweber_run(p, p.y_clean, LandweberConfig(max_iters=2000))
    track = estimate_track(trace)
    assert track.verdict == "unstable-suspect-violation"


def test_supersmooth_verdict_unstable():
    import klsmooth.problems as problems
    p = problems.make_exp_solution(10000, 1.5)
    trace = landweber_run(p, p.y_clean, LandweberConfig(max_iters=2000))
    track = estimate_track(trace)
    assert track.verdict == "unstable-suspect-violation"
    assert track.noise_takeover_k is None


# The noise-free power-law grid at K = 2000 (README, "Accuracy"): beta, eta,
# n, the verdict, and a bound on mu_hat - mu, the measured excess rounded up
# at two digits. mu_hat over-estimates mu in every cell with a window, most
# where beta = 0.5 and n = 200, where no cell reads stable; None marks the
# one cell without a window.
ACCURACY_GRID = [
    (0.5, 0.75, 200, VERDICT_UNSTABLE, None),
    (0.5, 0.75, 2000, VERDICT_UNSTABLE, 0.048),
    (0.5, 1, 200, VERDICT_UNSTABLE, 0.15),
    (0.5, 1, 2000, VERDICT_UNSTABLE, 0.048),
    (0.5, 1.5, 200, VERDICT_UNSTABLE, 0.17),
    (0.5, 1.5, 2000, VERDICT_STABLE, 0.05),
    (0.5, 2, 200, VERDICT_UNSTABLE, 0.18),
    (0.5, 2, 2000, VERDICT_STABLE, 0.055),
    (0.5, 3, 200, VERDICT_UNSTABLE, 0.22),
    (0.5, 3, 2000, VERDICT_STABLE, 0.063),
    (0.5, 4, 200, VERDICT_UNSTABLE, 0.27),
    (0.5, 4, 2000, VERDICT_STABLE, 0.13),
    (1, 0.75, 200, VERDICT_STABLE, 0.015),
    (1, 0.75, 2000, VERDICT_STABLE, 0.0064),
    (1, 1, 200, VERDICT_STABLE, 0.013),
    (1, 1, 2000, VERDICT_STABLE, 0.0084),
    (1, 1.5, 200, VERDICT_STABLE, 0.014),
    (1, 1.5, 2000, VERDICT_STABLE, 0.013),
    (1, 2, 200, VERDICT_STABLE, 0.019),
    (1, 2, 2000, VERDICT_STABLE, 0.019),
    (1, 3, 200, VERDICT_STABLE, 0.032),
    (1, 3, 2000, VERDICT_STABLE, 0.032),
    (1, 4, 200, VERDICT_STABLE, 0.048),
    (1, 4, 2000, VERDICT_STABLE, 0.048),
    (2, 0.75, 200, VERDICT_STABLE, 0.012),
    (2, 0.75, 2000, VERDICT_STABLE, 0.012),
    (2, 1, 200, VERDICT_STABLE, 0.014),
    (2, 1, 2000, VERDICT_STABLE, 0.014),
    (2, 1.5, 200, VERDICT_STABLE, 0.018),
    (2, 1.5, 2000, VERDICT_STABLE, 0.018),
    (2, 2, 200, VERDICT_STABLE, 0.023),
    (2, 2, 2000, VERDICT_STABLE, 0.023),
    (2, 3, 200, VERDICT_STABLE, 0.035),
    (2, 3, 2000, VERDICT_STABLE, 0.035),
    (2, 4, 200, VERDICT_STABLE, 0.049),
    (2, 4, 2000, VERDICT_STABLE, 0.049),
]


@pytest.mark.parametrize("beta, eta, n, verdict, bound", ACCURACY_GRID)
def test_accuracy_on_the_noise_free_power_law_grid(beta, eta, n, verdict, bound):
    p = make_power_law(n, eta, beta)
    track = estimate_track(landweber_run(p, p.y_clean, LandweberConfig(max_iters=2000)))
    assert track.verdict == verdict
    if bound is None:
        assert track.mu_hat is None
    else:
        assert 0.0 < track.mu_hat - p.mu_exact < bound

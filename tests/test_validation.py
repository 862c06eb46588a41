import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import klsmooth as ks
from klsmooth import validation
from klsmooth.landweber import IterationTrace, LandweberConfig, landweber_run
from klsmooth.operators import SpectralDecomposition, dense_operator, diagonal_operator, svd
from klsmooth.problems import add_noise, make_deriv2, make_gravity, make_power_law
from klsmooth.validation import (BISECT_TOL, COEFF_FLOOR, DEFAULT_LEVELS, DEFAULT_SEEDS,
                                 apriori_alpha, bound_curves,
                                 max_mu_spectral, rate_experiment, tikhonov_solve,
                                 verify_smoothness)

from _oracles import general_svd, known_svd_problem, with_system


def test_tikhonov_scalar():
    op = diagonal_operator([1.0])
    assert tikhonov_solve(op, np.array([1.0]), 1.0) == pytest.approx(0.5)


def test_tikhonov_damping_limit():
    op = diagonal_operator([1.0, 0.5, 0.25])
    y = np.array([1.0, 2.0, 3.0])
    norms = [np.linalg.norm(tikhonov_solve(op, y, a)) for a in (1.0, 10.0, 100.0)]
    assert norms[0] > norms[1] > norms[2]


def test_tikhonov_dense_matches_spectral_closed_form():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((2, 2))
    op = dense_operator(a)
    y = rng.standard_normal(2)
    alpha = 0.1
    x = tikhonov_solve(op, y, alpha)
    u, s, vt = np.linalg.svd(a)
    x_ref = vt.T @ (s * (u.T @ y) / (s**2 + alpha))
    assert np.allclose(x, x_ref, rtol=1e-10, atol=1e-12)


def test_tikhonov_cg_matches_diagonal_shortcut():
    rng = np.random.default_rng(7)
    s = np.sort(rng.uniform(0.01, 1.0, 40))[::-1]
    y = rng.standard_normal(40)
    alpha = 0.05
    x_diag = s * y / (s * s + alpha)
    x_cg = tikhonov_solve(dense_operator(np.diag(s)), y, alpha)
    assert np.allclose(x_cg, x_diag, rtol=1e-10, atol=1e-13)


def test_tikhonov_validation():
    op = diagonal_operator([1.0])
    with pytest.raises(ValueError):
        tikhonov_solve(op, np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        tikhonov_solve(op, np.ones(2), 1.0)


def test_apriori_alpha_values():
    assert apriori_alpha(0.01, 0.5) == pytest.approx(0.01, rel=1e-14)
    assert apriori_alpha(0.01, 0.375) == pytest.approx(10.0 ** (-16.0 / 7.0), rel=1e-12)
    assert apriori_alpha(0.0, 0.5) == 0.0


def test_apriori_alpha_monotonicity():
    deltas = np.linspace(0.001, 0.9, 20)
    alphas = [apriori_alpha(d, 0.4) for d in deltas]
    assert np.all(np.diff(alphas) > 0)
    # for delta < 1 the exponent 2/(2 mu + 1) shrinks with mu, so alpha
    # grows toward delta^0 = 1; larger smoothness tolerates weaker damping
    # relative to delta^1 but the absolute value is increasing in mu
    mus = np.linspace(0.05, 3.0, 20)
    alphas_mu = [apriori_alpha(0.01, m) for m in mus]
    assert np.all(np.diff(alphas_mu) > 0)
    assert alphas_mu[-1] < 1.0


def test_apriori_alpha_validation():
    with pytest.raises(ValueError):
        apriori_alpha(-0.1, 0.5)
    with pytest.raises(ValueError):
        apriori_alpha(0.1, 0.0)


def test_rate_experiment_diagonal_benchmark():
    p = make_power_law(10000, 2, 2)
    levels = np.logspace(-3, -1, 10)
    res = rate_experiment(p, 0.375, levels, seeds=(0, 1, 2, 3, 4))
    assert res.predicted_exponent == pytest.approx(3.0 / 7.0, rel=1e-12)
    assert abs(res.observed_exponent - 3.0 / 7.0) <= 0.05
    assert res.noise_levels == sorted(res.noise_levels, reverse=True)
    assert np.allclose(res.alphas,
                       [d ** (2.0 / (2.0 * 0.375 + 1.0)) for d in res.delta_abs])


def test_rate_experiment_flags_wrong_mu():
    p = make_power_law(10000, 2, 2)
    levels = np.logspace(-3, -1, 10)
    res = rate_experiment(p, 1.5, levels, seeds=(0, 1, 2))
    assert abs(res.observed_exponent - res.predicted_exponent) > 0.05


def test_rate_experiment_predicted_exponent_arithmetic():
    p = make_power_law(100, 2, 2)
    res = rate_experiment(p, 0.2, [0.1, 0.03, 0.01], seeds=(0,))
    assert res.predicted_exponent == pytest.approx(0.2857, abs=5e-5)


def test_rate_experiment_diagonal_never_solves(monkeypatch):
    calls = []
    monkeypatch.setattr(validation, "tikhonov_solve", lambda *args: calls.append(args))
    res = rate_experiment(make_power_law(100, 2, 2), 0.2, [0.1, 0.03, 0.01], seeds=(0, 1))
    assert res.solver == "filter-factors" and calls == []


def test_rate_experiment_validation():
    p = make_power_law(50, 2, 2)
    with pytest.raises(ValueError):
        rate_experiment(p, 0.3, [0.1, 0.01])  # fewer than 3 levels
    with pytest.raises(ValueError):
        rate_experiment(p, 0.3, [0.1, 0.01, 1.5])
    with pytest.raises(ValueError, match="distinct"):
        rate_experiment(p, 0.3, [0.01, 0.01, 0.01])
    p_blind = ks.ProblemSpec(operator=p.operator, y_clean=p.y_clean)
    with pytest.raises(ValueError):
        rate_experiment(p_blind, 0.3, [0.1, 0.03, 0.01])


def _rate_errors_by_add_noise(p, mu, sd):
    """The seed-averaged filter-factor errors per level, each (level, seed)
    drawing its data by add_noise and projecting them on its own."""
    x_coeffs, x_out = sd.split(p.x_true, right=True)
    errors = []
    for level in DEFAULT_LEVELS:
        errs = []
        for seed in DEFAULT_SEEDS:
            noisy = add_noise(p, level, seed)
            alpha = apriori_alpha(noisy.delta_abs, mu)
            errs.append(validation._filter_factor_error(sd, sd.coefficients(noisy.y_delta),
                                                        alpha, x_coeffs, x_out))
        errors.append(float(np.mean(errs)))
    return errors


@pytest.mark.parametrize("make, rel", [(lambda: make_power_law(3000, 2, 2), 0.0),
                                       (lambda: make_deriv2(256), 1e-12)],
                         ids=["diagonal", "dense"])
def test_rate_experiment_matches_add_noise_per_level_and_seed(make, rel):
    # one noise draw and one projection per seed: bit for bit on a diagonal
    # operator, whose coefficients are the data, and at rounding on one whose
    # system has a basis ("dense" names deriv2, which now has no matrix)
    p = make()
    sd = p.operator.singular_system
    res = rate_experiment(p, 0.3, DEFAULT_LEVELS, DEFAULT_SEEDS)
    oracle = _rate_errors_by_add_noise(p, 0.3, sd)
    assert res.delta_abs == [add_noise(p, l, 0).delta_abs for l in DEFAULT_LEVELS]
    if rel == 0.0:
        assert res.errors == oracle
    else:
        assert np.all(np.abs(np.subtract(res.errors, oracle)) <= rel * np.abs(oracle))


def test_rate_experiment_solves_with_the_data_add_noise_makes(monkeypatch):
    p, _ = known_svd_problem(3, 20, 20, 20)
    levels, seeds = (0.1, 0.03, 0.01), (0, 1)
    seen = []
    monkeypatch.setattr(validation, "tikhonov_solve",
                        lambda op, y, alpha: seen.append(y) or p.x_true + 1.0)
    rate_experiment(p, 0.5, levels, seeds)
    expected = [add_noise(p, level, seed).y_delta for level in levels for seed in seeds]
    assert len(seen) == len(expected)
    assert all(np.array_equal(y, want) for y, want in zip(seen, expected))


@settings(deadline=None, max_examples=25)
@given(m=st.integers(2, 80), n=st.integers(2, 80), rank_drop=st.integers(0, 20),
       seed=st.integers(0, 2**31 - 1), mu=st.floats(0.25, 1.0))
def test_filter_factor_errors_match_cg(m, n, rank_drop, seed, mu):
    # sigma_1 = 1 and ||y|| >= 0.5, so the levels below give alpha >= 1e-4
    # sigma_1^2, where CG on A*A + alpha is well conditioned enough to be a
    # reference at 1e-8
    p, _ = known_svd_problem(seed, m, n, max(2, min(m, n) - rank_drop))
    levels = (0.1, 0.03, 0.01)
    ff = rate_experiment(with_system(p), mu, levels, seeds=(0, 1))
    cg = rate_experiment(p, mu, levels, seeds=(0, 1))
    assert (ff.solver, cg.solver) == ("filter-factors", "cg")
    assert ff.alphas == cg.alphas and min(cg.alphas) >= 1e-4
    assert np.all(np.abs(np.subtract(ff.errors, cg.errors)) <= 1e-8 * np.abs(cg.errors))


def test_verify_smoothness_diagonal_benchmark():
    p = make_power_law(10000, 2, 2)
    sd = svd(p.operator)
    verdict = verify_smoothness(sd, p.y_clean, [0.3, 0.5])
    assert verdict.admissible == [True, False]
    assert all(r >= 1.0 for r in verdict.partial_sum_growth)
    assert verdict.mu_max_estimate == 0.3


def test_verify_smoothness_exp_operator_no_admissible_mu():
    p = ks.make_exp_operator(400, 2)
    sd = svd(p.operator)
    verdict = verify_smoothness(sd, p.y_clean, [0.02, 0.05, 0.1, 0.2, 0.5, 1.0])
    assert not any(verdict.admissible)
    assert verdict.mu_max_estimate is None


def test_verify_smoothness_downward_closed():
    p = make_power_law(5000, 2, 2)
    sd = svd(p.operator)
    grid = [0.05, 0.15, 0.25, 0.3, 0.35, 0.45, 0.6, 1.0]
    verdict = verify_smoothness(sd, p.y_clean, grid)
    flags = verdict.admissible
    assert all(flags[i] or not flags[i + 1] for i in range(len(flags) - 1))


def test_verify_smoothness_supersmooth_high_mu_admissible():
    p = ks.make_exp_solution(2000, 1.5)
    sd = svd(p.operator)
    verdict = verify_smoothness(sd, p.y_clean, [5.0])
    assert verdict.admissible == [True]


def test_max_mu_spectral_power_law_fit_path():
    p = make_power_law(10000, 2, 2)
    mu = max_mu_spectral(svd(p.operator), p.y_clean)
    assert mu == pytest.approx(0.375, abs=0.05)
    p1 = make_power_law(10000, 1, 2.5)
    mu1 = max_mu_spectral(svd(p1.operator), p1.y_clean)
    assert mu1 == pytest.approx(0.1, abs=0.05)


def test_max_mu_spectral_gravity_same_under_both_decompositions():
    # gravity is symmetric, so svd() takes the eigensolver. Its data reach
    # 27 of the 49 retained modes beyond COEFF_FLOOR ||y||; further down the
    # coefficients fall to rounding, 1e-18 to 2e-16 ||y||, which differs
    # between decompositions and BLAS thread counts. The summability test
    # skips all of them, so both decompositions give one verdict
    p = make_gravity(256)
    for sd in (svd(p.operator), general_svd(p.operator.matrix)):
        assert max_mu_spectral(sd, p.y_clean) == pytest.approx(0.228, abs=BISECT_TOL)


def test_summability_skips_rounding_on_a_computed_basis_only():
    # the same data, as exact diagonal data and as coefficients on a
    # computed basis: a tail of rounding's size, 1e-16 ||y||, on sigmas of
    # 1e-13 makes mu = 0.1 inadmissible when it counts
    sigmas = np.concatenate((1.0 / np.arange(1.0, 41.0) ** 2, np.full(8, 1e-13)))
    y = np.concatenate((sigmas[:40] ** 2, np.full(8, 1e-16)))
    assert 1e-16 < COEFF_FLOOR * np.linalg.norm(y)
    basis = np.eye(sigmas.size)
    diagonal = verify_smoothness(SpectralDecomposition(sigmas, method="canonical"), y, [0.1])
    computed = verify_smoothness(SpectralDecomposition(sigmas, u=basis, v=basis, method="svd"),
                                 y, [0.1])
    assert diagonal.admissible == [False]
    assert computed.admissible == [True]


def test_max_mu_spectral_agrees_with_the_test_it_refines():
    # diagonal data i^-3 with a flat 1e-13 tail: every nonzero coefficient
    # counts in the summability test, so the decay fits must read the tail
    # too. Fitted over the decaying head alone they gave mu = 0.75, where
    # the test rejects 0.7
    i = np.arange(1.0, 100_001.0)
    y = np.where(i <= 10_000, i ** -3.0, 1e-13)
    sd = SpectralDecomposition(1.0 / i, method="canonical")
    mu = max_mu_spectral(sd, y)
    assert verify_smoothness(sd, y, [mu - 0.05, mu + 0.05]).admissible == [True, False]


def test_spectral_check_projects_the_data_once(monkeypatch):
    # the bisection reads the counted modes, not a fresh U* y per step
    calls = []
    project = SpectralDecomposition.coefficients
    monkeypatch.setattr(SpectralDecomposition, "coefficients",
                        lambda sd, y: calls.append(1) or project(sd, y))
    p = ks.make_deriv2(64)
    sd = svd(p.operator)
    verify_smoothness(sd, p.y_clean, validation.DEFAULT_MU_GRID)
    assert len(calls) == 1
    assert max_mu_spectral(sd, p.y_clean) is not None
    assert len(calls) == 2


def test_max_mu_spectral_deriv2_bisection_path():
    # sigma decay bends at the grid scale, so the fit is not credible and the
    # admissibility bisection takes over; the analytic ceiling is 1/8
    p = ks.make_deriv2(256)
    sd = svd(p.operator)
    mu = max_mu_spectral(sd, p.y_clean)
    assert mu is not None
    assert 0.05 <= mu <= 0.25


def test_bound_curves_single_mode_lower_is_error():
    # with one spectral mode, R^2/G = sigma^2 e^2 / (sigma^2 e) = e exactly;
    # a mode of sigma = 1 with no data sets the step 1 / ||A||^2 = 1 and adds
    # nothing to R, G or E
    sig = 0.5
    p = ks.ProblemSpec(operator=diagonal_operator([1.0, sig]),
                       y_clean=np.array([0.0, sig * 1.0]), x_true=np.array([0.0, 1.0]))
    trace = landweber_run(p, p.y_clean, LandweberConfig(max_iters=20))
    lower, upper = bound_curves(trace, 0.5)
    assert np.allclose(lower, trace.errors, rtol=1e-12)
    assert upper is None


def test_bound_curves_arithmetic():
    trace = IterationTrace(residuals=np.array([0.1]), gradient_norms=np.array([0.05]),
                           lower_bounds=np.array([0.2]))
    lower, upper = bound_curves(trace, 0.375, w_norm=2.0)
    assert lower[0] == pytest.approx(0.2, rel=1e-14)
    assert upper[0] == pytest.approx(2.0 ** (1.0 / 1.75) * 0.1 ** (3.0 / 7.0), rel=1e-12)
    for mu, w_norm in ((0.0, 2.0), (0.375, 0.0)):
        with pytest.raises(ValueError, match="must be positive"):
            bound_curves(trace, mu, w_norm=w_norm)


def test_bound_curves_zero_gradient_marker():
    trace = IterationTrace(residuals=np.array([0.1, 0.0]), gradient_norms=np.array([0.05, 0.0]),
                           lower_bounds=np.array([0.2, np.nan]))
    lower, _ = bound_curves(trace, 0.5)
    assert np.isnan(lower[1]) and lower[0] == pytest.approx(0.2)


def test_bound_curves_sandwich_small_benchmark():
    p = make_power_law(500, 2, 2)
    trace = landweber_run(p, p.y_clean, LandweberConfig(max_iters=300))
    lower, upper = bound_curves(trace, p.mu_exact, w_norm=float(np.linalg.norm(p.source_w)))
    assert np.all(lower <= trace.errors * (1.0 + 1e-12))
    assert np.all(trace.errors <= upper * (1.0 + 1e-6))

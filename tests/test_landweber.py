import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from klsmooth.cli import FIGURE_NAMES, build_problem, figure_config, run_pipeline
from klsmooth.landweber import (EARLY_STOP_REL, SLOW_DEGREE, SLOW_REACH, IterationTrace,
                                LandweberConfig, _block_sizes, _slow_modes, _stop_floors,
                                diagonal_trace, landweber_run, matvec_trace)
from klsmooth.operators import (_DECIMAL_BLOCK, ConvergenceError, _centro_halves,
                                _symmetric_svd, dense_operator, diagonal_operator,
                                operator_norm, svd)
from klsmooth.problems import ProblemSpec, add_noise, make_deriv2, make_gravity, make_power_law
from klsmooth.validation import DEFAULT_MU_GRID, max_mu_spectral, verify_smoothness

from _oracles import (diagonal_landweber_oracle, known_svd_problem,
                      known_symmetric_problem, planted_symmetric_problem, right_vectors,
                      trace_csv_by_column, written_trace_csv)


def make_diag_problem(sigmas, x_true):
    sigmas = np.asarray(sigmas, dtype=float)
    x_true = np.asarray(x_true, dtype=float)
    op = diagonal_operator(sigmas)
    return ProblemSpec(operator=op, y_clean=sigmas * x_true, x_true=x_true, label="diag")


def test_single_mode_first_step():
    p = make_diag_problem([0.5], [1.0])
    trace = landweber_run(p, p.y_clean, LandweberConfig(step_beta=1.0, max_iters=1))
    # x1 = beta * sigma * y = 0.25, so R1 = |0.5*0.25 - 0.5|, G1 = 0.5 * R1
    assert trace.residuals[0] == pytest.approx(0.375, rel=1e-14)
    assert trace.gradient_norms[0] == pytest.approx(0.1875, rel=1e-14)
    assert trace.step_beta == 1.0


def test_one_step_convergence_early_stop():
    p = make_diag_problem([1.0, 1.0], [3.0, -4.0])
    trace = landweber_run(p, p.y_clean, LandweberConfig(step_beta=1.0, max_iters=50))
    assert len(trace) == 1
    assert trace.residuals[0] == 0.0
    assert np.isnan(trace.lower_bounds[0])


def test_matches_oracle_midsize_diagonal():
    p = make_power_law(100, 2, 2)
    trace = landweber_run(p, p.y_clean, LandweberConfig(step_beta=1.0, max_iters=50))
    R, G, E = diagonal_landweber_oracle(p.operator.sigmas, p.x_true, 50, step=1.0)
    assert np.max(np.abs(trace.residuals - R) / R) <= 1e-10
    assert np.max(np.abs(trace.gradient_norms - G) / G) <= 1e-10
    assert np.max(np.abs(trace.errors - E) / E) <= 1e-10


def test_matches_oracle_noisy_data():
    p = make_power_law(80, 1.5, 1.0)
    noisy = add_noise(p, 0.02, 5)
    trace = landweber_run(p, noisy.y_delta, LandweberConfig(max_iters=60))
    R, G, _ = diagonal_landweber_oracle(p.operator.sigmas, p.x_true, 60,
                                        data=noisy.y_delta)
    assert np.max(np.abs(trace.residuals - R) / R) <= 1e-10
    assert np.max(np.abs(trace.gradient_norms - G) / G) <= 1e-10


def test_noise_free_residual_monotone():
    p = make_power_law(300, 2, 1.5)
    trace = landweber_run(p, p.y_clean, LandweberConfig(max_iters=200))
    assert np.all(np.diff(trace.residuals) <= 0.0)


def test_gradient_residual_bound():
    p = make_power_law(200, 2, 2)
    trace = landweber_run(p, p.y_clean, LandweberConfig(max_iters=100))
    norm = operator_norm(p.operator)
    assert np.all(trace.gradient_norms <= norm * trace.residuals * (1.0 + 1e-8))


def test_lower_bound_below_error():
    p = make_power_law(200, 2, 2)
    trace = landweber_run(p, p.y_clean, LandweberConfig(max_iters=150))
    assert np.all(trace.lower_bounds <= trace.errors * (1.0 + 1e-12))


@settings(deadline=None, max_examples=20)
@given(st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
def test_scale_covariance(lam):
    base = make_power_law(60, 2, 1.5)
    scaled = ProblemSpec(operator=base.operator, y_clean=lam * base.y_clean,
                         x_true=lam * base.x_true, label="scaled")
    cfg = LandweberConfig(max_iters=40)
    t1 = landweber_run(base, base.y_clean, cfg)
    t2 = landweber_run(scaled, scaled.y_clean, cfg)
    assert np.allclose(t2.residuals, lam * t1.residuals, rtol=1e-10)
    assert np.allclose(t2.gradient_norms, lam * t1.gradient_norms, rtol=1e-10)
    assert np.allclose(t2.errors, lam * t1.errors, rtol=1e-10)
    assert np.allclose(t2.lower_bounds / t2.errors, t1.lower_bounds / t1.errors, rtol=1e-9)


def test_step_out_of_range_rejected():
    p = make_power_law(10, 2, 2)
    with pytest.raises(ValueError):
        landweber_run(p, p.y_clean, LandweberConfig(step_beta=2.0))  # = 2/||A||^2
    with pytest.raises(ValueError):
        landweber_run(p, p.y_clean, LandweberConfig(step_beta=-0.5))


def test_auto_step_is_inverse_norm_squared():
    p = make_diag_problem([2.0, 1.0], [1.0, 1.0])
    trace = landweber_run(p, p.y_clean, LandweberConfig(max_iters=3))
    assert trace.step_beta == pytest.approx(0.25, rel=1e-12)


def test_data_length_mismatch():
    p = make_power_law(10, 2, 2)
    with pytest.raises(ValueError):
        landweber_run(p, np.ones(11), LandweberConfig(max_iters=5))


def test_non_finite_aborts_with_index():
    p = make_diag_problem([1.0], [1.0])
    with pytest.raises(RuntimeError, match="iteration 1"):
        landweber_run(p, np.array([np.inf]), LandweberConfig(max_iters=5))


def test_invalid_config():
    with pytest.raises(ValueError):
        LandweberConfig(max_iters=0)
    with pytest.raises(ValueError):
        LandweberConfig(step_beta="fast")


def test_trace_csv_format():
    p = make_power_law(20, 2, 2)
    trace = landweber_run(p, p.y_clean, LandweberConfig(max_iters=8))
    text = written_trace_csv(trace)
    lines = text.strip().splitlines()
    assert lines[0] == "k,residual,gradient_norm,lower_bound,error,mu_k,c_k"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == trace.residuals[0]  # 17 digits round-trips
    assert first[5] == "" and first[6] == ""      # estimator columns empty here


def test_trace_csv_with_estimates_and_upper():
    p = make_power_law(20, 2, 2)
    trace = landweber_run(p, p.y_clean, LandweberConfig(max_iters=8))
    mu_k = np.array([0.3, 0.31])
    c_k = np.array([1.0, 1.1])
    k_values = np.array([7, 8])
    upper = np.linspace(1.0, 0.5, 8)
    text = written_trace_csv(trace, mu_k=mu_k, c_k=c_k, k_values=k_values,
                             upper_bounds=upper)
    lines = text.strip().splitlines()
    assert lines[0].endswith(",upper_bound")
    row7 = lines[7].split(",")
    assert float(row7[5]) == 0.3 and float(row7[6]) == 1.0
    assert lines[1].split(",")[5] == ""  # k < k_min has no estimate


@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_trace_csv_matches_the_column_writer_on_figure_traces(name):
    result = run_pipeline(figure_config(name))
    track = result["track"]
    kwargs = dict(mu_k=track.mu_k, c_k=track.c_k, k_values=track.k_values,
                  upper_bounds=result["upper"])
    text = written_trace_csv(result["trace"], **kwargs)
    assert text == trace_csv_by_column(result["trace"], **kwargs)


def test_trace_csv_matches_the_column_writer_across_blocks():
    # 10,001 rows: k passes 9999 -> 10000, the rows span many of the
    # formatter's blocks, and non-finite cells sit on both sides of one edge
    rng = np.random.default_rng(11)
    n = 10_001
    edge = _DECIMAL_BLOCK // 8        # rows per block with all eight columns
    R, G, lb, E, upper = (np.exp(rng.uniform(-80, 5, n)) * rng.choice([-1.0, 1.0], n)
                          for _ in range(5))
    R[edge - 1], G[edge], lb[edge - 1], E[edge], upper[edge - 1] = (np.nan, np.inf, -np.inf,
                                                                   np.nan, np.inf)
    trace = IterationTrace(residuals=R, gradient_norms=G, lower_bounds=lb, errors=E)
    k_values = np.arange(20, n + 1)
    mu_k = rng.uniform(-1, 2, k_values.size)
    c_k = np.exp(rng.uniform(-5, 5, k_values.size))
    mu_k[edge - 20], c_k[edge - 19] = np.nan, -np.inf     # rows edge and edge + 1
    kwargs = dict(mu_k=mu_k, c_k=c_k, k_values=k_values, upper_bounds=upper)
    text = written_trace_csv(trace, **kwargs)
    assert text == trace_csv_by_column(trace, **kwargs)
    lines = text.splitlines()
    assert lines[9999].startswith("9999,") and lines[10001].startswith("10001,")
    assert lines[edge].split(",")[1] == "" and lines[edge + 1].split(",")[2] == ""


def test_trace_csv_blanks_exactly_the_non_finite_cells():
    # NaN, -inf and inf in every float column, one column missing, a
    # negative value beside each, and estimates on only some rows
    special = np.array([np.nan, -np.inf, np.inf, -1.5e-300, 0.0, -0.0, 2.0, np.nan])
    trace = IterationTrace(residuals=special, gradient_norms=special[::-1].copy(),
                           lower_bounds=np.roll(special, 3), errors=None)
    kwargs = dict(mu_k=np.array([np.inf, -0.25, np.nan]), c_k=np.array([1.0, -np.inf, 3.0]),
                  k_values=np.array([2, 5, 8]), upper_bounds=np.roll(special, 5))
    text = written_trace_csv(trace, **kwargs)
    assert text == trace_csv_by_column(trace, **kwargs)
    assert "nan" not in text and "inf" not in text
    assert written_trace_csv(trace) == trace_csv_by_column(trace)


def assert_traces_agree(closed, loop, rel=1e-10, rounding=(0.0, 0.0, 0.0), floors=None):
    """Equal lengths, and each column within rel of the loop's value plus
    that column's absolute rounding allowance.

    Given the stop floors of R and G, one path may run one row past the
    other's stop at a tie: the paths round differently, so an R_k or G_k
    within rounding of its floor can stop one and not the other. Then the
    longer path's R or G at the shorter one's last row lies within rel and
    the allowance of its floor, and the columns agree up to that row.
    """
    rows = min(len(closed[0]), len(loop[0]))
    if len(closed[0]) != len(loop[0]):
        assert floors is not None and max(len(closed[0]), len(loop[0])) == rows + 1
        longer = closed if len(closed[0]) > rows else loop
        assert any(col[rows - 1] <= (1.0 + rel) * floor + atol
                   for col, floor, atol in zip(longer, floors, rounding))
    for a, b, atol in zip(closed, loop, rounding):
        if b is None:
            assert a is None
            continue
        assert np.all(np.abs(a[:rows] - b[:rows]) <= rel * np.abs(b[:rows]) + atol)


@st.composite
def diagonal_case(draw):
    """A random diagonal problem, its data, a step and a run length.

    sigma_1 = 1, so a step past 1/sigma_1^2 makes q_1 = 1 - beta sigma_1^2
    negative; the other sigmas lie in [0.01, 1], so every mode may converge
    within the run, and the iteration then stops at the floor. With n up to
    400 the block length 2^16 // n falls below n, and few run lengths are
    multiples of it. With a small step or a short run the small sigmas are
    slow modes, summed as a series. The data may carry noise.
    """
    n = draw(st.integers(min_value=1, max_value=400))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    inner = np.sort(10.0 ** rng.uniform(-2, 0, n - 1))[::-1]
    sigmas = np.concatenate(([1.0], inner))
    x_true = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.5, n)
    data = sigmas * x_true
    if draw(st.booleans()):
        noise = rng.standard_normal(n)
        level = draw(st.floats(1e-4, 0.1))
        data = data + level * np.linalg.norm(data) * noise / np.linalg.norm(noise)
    beta = draw(st.floats(0.05, 1.95))
    iters = draw(st.integers(min_value=1, max_value=3000))
    return diagonal_operator(sigmas), data, beta, iters, x_true


def data_of_kind(kind, sigmas, rng):
    """x_true of size 0.5-1.5 and random sign, and data of one kind: exact
    (sigma x_true), noisy (1% relative noise), or half-exact (even modes exact,
    odd ones noisy, and mode 1 at 1.5 sigma x_true)."""
    n = sigmas.size
    x_true = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.5, n)
    exact = sigmas * x_true
    noise = rng.standard_normal(n)
    noisy = exact + 0.01 * np.linalg.norm(exact) * noise / np.linalg.norm(noise)
    data = {"exact": exact, "noisy": noisy,
            "half-exact": np.where(np.arange(n) % 2 == 0, exact, noisy)}[kind]
    if kind == "half-exact":
        data[1] = 1.5 * sigmas[1] * x_true[1]
    return data, x_true


def mixed_speed_case():
    """A noisy diagonal case whose run of 2500 steps has slow and fast modes:
    K beta sigma^2 crosses SLOW_REACH near sigma = 0.007."""
    sigmas = np.geomspace(1.0, 1e-3, 120)
    data, x_true = data_of_kind("noisy", sigmas, np.random.default_rng(3))
    return diagonal_operator(sigmas), data, 1.0, 2500, x_true


def tie_case():
    """q = 1 - beta = -0.1, so R_13 = 0.1^13 |data| is EARLY_STOP_REL ||data||
    in exact arithmetic: the loop's R_13 rounds below the floor and stops
    it, the closed form's R_13 lies just above and runs on to K = 14."""
    data = np.array([0.76978671])
    return diagonal_operator([1.0]), data, 1.1, 14, data


@settings(deadline=None, max_examples=60)
@given(diagonal_case(), st.booleans())
@example(case=mixed_speed_case(), with_error=True)
@example(case=tie_case(), with_error=False)
def test_closed_form_matches_matvec_loop(case, with_error):
    op, data, beta, iters, x_true = case
    # on a converged mode the loop's residual is rounding, about eps |data_i|,
    # and its iterate carries rounding of about eps |x_i|: once every mode
    # has converged, the loop only bounds the closed form to that level
    eps = np.finfo(float).eps
    rounding = 64 * eps * np.array([1.0, beta ** -0.5, 0.0]) * np.linalg.norm(data)
    if with_error:
        rounding[2] = 64 * eps * np.linalg.norm(x_true)
    else:
        x_true = None
    closed = diagonal_trace(op.sigmas, data, beta, iters, x_true)
    loop = matvec_trace(op, data, beta, iters, x_true)
    assert_traces_agree(closed, loop, rounding=rounding,
                        floors=_stop_floors(np.linalg.norm(data), beta))


@pytest.mark.parametrize("sigmas, beta", [([1.0, 0.5], 1.0),
                                           ([0.0343], 1.0 / 0.0343 ** 2)])
def test_both_paths_stop_where_every_mode_has_converged(sigmas, beta):
    # the loop's residual floors at rounding, the closed form's decays on
    # (a step of 1/sigma^2 solves the single mode up to rounding): both stop
    # at the same iteration, the first with R_k at most EARLY_STOP_REL ||data||
    op = diagonal_operator(sigmas)
    data = np.array([0.7, -1.3])[:len(sigmas)]
    closed = diagonal_trace(op.sigmas, data, beta, 3000)
    loop = matvec_trace(op, data, beta, 3000)
    floor = EARLY_STOP_REL * np.linalg.norm(data)
    for R, G, _ in (closed, loop):
        assert len(R) == len(closed[0]) < 3000
        assert R[-1] <= floor or G[-1] <= floor / np.sqrt(beta)
        assert np.all(R[:-1] > floor)


@pytest.mark.parametrize("kind", ["exact", "noisy", "half-exact"])
def test_closed_form_error_column_matches_matvec_loop(kind):
    # exact modes (data_i == sigma_i x_i) take the power-sum error, the
    # others the per-mode pass; half-exact runs mix both. Mode 1 of the
    # half-exact run has data 1.5 sigma x: its error -x q^k + 0.5 x (1 - q^k)
    # crosses zero at q^k = 1/3, near k = 4
    rng = np.random.default_rng(11)
    n = 300
    sigmas = np.concatenate(([1.0, 0.5], np.sort(10.0 ** rng.uniform(-2, -0.5, n - 3))[::-1],
                             [0.01]))
    data, x_true = data_of_kind(kind, sigmas, rng)
    closed = diagonal_trace(sigmas, data, 1.0, 3000, x_true)
    loop = matvec_trace(diagonal_operator(sigmas), data, 1.0, 3000, x_true)
    assert len(closed[2]) == 3000
    assert_traces_agree(closed, loop)


def test_slow_series_remainder_below_rounding():
    # the exp series of q^(2k), cut after degree P at |2 t s| <= 2 SLOW_REACH,
    # and the u^2 (1 - q^k)^2 series, which starts at degree 2, relative to
    # its own size
    eps = np.finfo(float).eps
    rest = (2.0 * SLOW_REACH) ** (SLOW_DEGREE + 1) / math.factorial(SLOW_DEGREE + 1)
    assert rest <= eps / 4
    assert rest / SLOW_REACH ** 2 <= eps / 4


def slow_mask(sigmas, data, x_true, beta, iters):
    with np.errstate(divide="ignore"):
        log_q = np.where(beta * sigmas ** 2 < 1.0, np.log1p(-beta * sigmas ** 2), 0.0)
    return _slow_modes(sigmas, 1.0 - beta * sigmas ** 2, log_q, data, x_true, iters)


@pytest.mark.parametrize("kind", ["exact", "noisy", "half-exact"])
def test_closed_form_across_the_slow_reach_matches_matvec_loop(kind):
    # with beta = 1 and K = 3000 a mode is slow below sigma = 0.00645; the
    # spectrum spans 1 to 3e-4 and has a pair of modes within 1e-9 of the
    # boundary, one on each side
    rng = np.random.default_rng(12)
    K = 3000
    edge = math.sqrt(-math.expm1(-SLOW_REACH / K))
    inner = 10.0 ** rng.uniform(-3.5, -0.3, 197)
    sigmas = np.sort(np.concatenate(([1.0, edge * (1 + 1e-9), edge * (1 - 1e-9)], inner)))[::-1]
    data, x_true = data_of_kind(kind, sigmas, rng)
    slow = slow_mask(sigmas, data, x_true, 1.0, K)
    assert slow[np.flatnonzero(sigmas < edge)].all() and not slow[sigmas > edge].any()
    for x in (x_true, None):
        closed = diagonal_trace(sigmas, data, 1.0, K, x)
        loop = matvec_trace(diagonal_operator(sigmas), data, 1.0, K, x)
        assert len(closed[0]) == K
        assert_traces_agree(closed, loop)


@pytest.mark.parametrize("noise", [0.0, 0.01])
def test_all_slow_closed_form_matches_matvec_loop(noise):
    # a step of 1e-5 / sigma_1^2 keeps K beta sigma^2 at most 0.02: every
    # mode is slow, and the run is one block of the series alone
    rng = np.random.default_rng(13)
    sigmas = np.geomspace(1.0, 1e-2, 150)
    x_true = rng.standard_normal(150)
    e = rng.standard_normal(150)
    data = sigmas * x_true + noise * np.linalg.norm(sigmas * x_true) * e / np.linalg.norm(e)
    beta, K = 1e-5, 2000
    assert slow_mask(sigmas, data, x_true, beta, K).all()
    for x in (x_true, None):
        closed = diagonal_trace(sigmas, data, beta, K, x)
        loop = matvec_trace(diagonal_operator(sigmas), data, beta, K, x)
        assert_traces_agree(closed, loop)


@pytest.mark.parametrize("name", ["noise1", "noise2", "diag1", "expon"])
def test_canned_figures_closed_form_matches_matvec_loop(name):
    # n = 10^4, K = 2000: all but the first 7-25 modes are slow
    cfg = figure_config(name)
    p = build_problem(cfg)
    data = p.y_clean
    if cfg.noise_rel_level > 0:
        data = add_noise(p, cfg.noise_rel_level, cfg.noise_seed).y_delta
    sigmas = p.operator.sigmas
    beta = 1.0 / sigmas[0] ** 2
    closed = diagonal_trace(sigmas, data, beta, cfg.landweber_max_iters, p.x_true)
    loop = matvec_trace(p.operator, data, beta, cfg.landweber_max_iters, p.x_true)
    assert len(closed[0]) == cfg.landweber_max_iters == 2000
    assert_traces_agree(closed, loop)


def test_closed_form_early_stop_at_first_iteration():
    # unit sigmas and unit step solve in one update: both paths stop at k = 1
    op = diagonal_operator(np.ones(5))
    data = np.arange(1.0, 6.0)
    closed = diagonal_trace(op.sigmas, data, 1.0, 50, data)
    loop = matvec_trace(op, data, 1.0, 50, data)
    assert len(closed[0]) == len(loop[0]) == 1
    assert closed[0][0] == loop[0][0] == 0.0
    assert closed[2][0] == loop[2][0] == 0.0


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_closed_form_aborts_at_the_loops_iteration(bad):
    op = diagonal_operator([1.0, 0.5, 0.25])
    data = np.array([1.0, bad, 0.5])
    with pytest.raises(RuntimeError, match="iteration 1$"):
        diagonal_trace(op.sigmas, data, 0.5, 40)
    with pytest.raises(RuntimeError, match="iteration 1$"):
        matvec_trace(op, data, 0.5, 40)


def chunk_of(k, fast, weight_rows, iters):
    """(chunk, block within the chunk) that diagonal_trace computes row k in."""
    rows, chunk = _block_sizes(fast, weight_rows, iters)
    return (k - 1) // chunk, (k - 1) % chunk // rows


@pytest.mark.parametrize("kind", ["exact", "noisy", "half-exact", None])
@pytest.mark.parametrize("slow", [0, 100])
def test_chunked_closed_form_matches_matvec_loop(kind, slow):
    # 2000 fast modes make blocks of 32 rows and chunks of 10 or 16 blocks
    # (320 or 512 rows, by whether exact modes add an error row); K = 2001
    # spans 4-7 chunks and ends inside a block. With slow = 100 the spectrum
    # also reaches below K beta sigma^2 = SLOW_REACH, so the series adds to
    # every chunk
    rng = np.random.default_rng(21)
    fast = 2000
    sigmas = np.geomspace(1.0, 0.05, fast)
    if slow:
        sigmas = np.concatenate((sigmas, np.geomspace(5e-3, 1e-4, slow)))
    data, x_true = data_of_kind(kind or "exact", sigmas, rng)
    x_true = None if kind is None else x_true
    K = 2001
    assert slow_mask(sigmas, data, x_true, 1.0, K).sum() == slow
    for weight_rows in (2, 3):
        rows, chunk = _block_sizes(fast, weight_rows, K)
        assert K >= 3 * chunk and K % rows and K % chunk
    closed = diagonal_trace(sigmas, data, 1.0, K, x_true)
    loop = matvec_trace(diagonal_operator(sigmas), data, 1.0, K, x_true)
    assert len(closed[0]) == K
    assert_traces_agree(closed, loop)


def test_chunked_closed_form_stops_in_a_later_chunk():
    # every mode converges, the slowest (sigma = 0.16) by k = 939: a row of
    # chunk 1's block 13 is the first at the floor, on both paths. Converged
    # modes leave the loop's residual at rounding, hence the allowance of
    # test_closed_form_matches_matvec_loop
    n = 2000
    sigmas = np.geomspace(1.0, 0.16, n)
    rng = np.random.default_rng(5)
    data = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.5, n) * sigmas
    closed = diagonal_trace(sigmas, data, 1.0, 3000)
    loop = matvec_trace(diagonal_operator(sigmas), data, 1.0, 3000)
    assert len(closed[0]) == len(loop[0]) == 939
    assert chunk_of(939, n, 2, 3000) == (1, 13)
    rounding = 64 * np.finfo(float).eps * np.linalg.norm(data) * np.array([1.0, 1.0, 0.0])
    assert_traces_agree(closed, loop, rounding=rounding,
                        floors=_stop_floors(np.linalg.norm(data), 1.0))


@pytest.mark.parametrize("with_error", [False, True])
def test_chunked_closed_form_aborts_in_a_later_chunk(with_error):
    # beta sigma_1^2 = 2.5 makes q_1 = -1.5: G_k^2 overflows at k = 874, in
    # chunk 1 (block 11) without an error row and chunk 2 (block 7) with one
    n = 2000
    sigmas = np.geomspace(1.0, 0.16, n)
    rng = np.random.default_rng(5)
    data = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.5, n) * sigmas
    sigmas[0] = math.sqrt(2.5)
    x_true = data / sigmas if with_error else None
    assert chunk_of(874, n, 2 + with_error, 3000) == ((2, 7) if with_error else (1, 11))
    with pytest.raises(RuntimeError, match="iteration 874$"):
        diagonal_trace(sigmas, data, 1.0, 3000, x_true)
    with pytest.raises(RuntimeError, match="iteration 874$"):
        matvec_trace(diagonal_operator(sigmas), data, 1.0, 3000, x_true)


def test_saturation_run_closed_form_matches_matvec_loop():
    # the benchmark's saturation problem: 200 fast modes to K = 1.75 n^2,
    # well into the well-posed regime, in chunks of 109 blocks of 327 rows
    p = make_power_law(200, 2.0, 1.0)
    sigmas = p.operator.sigmas
    K = 70_000
    beta = 1.0 / sigmas[0] ** 2
    assert not slow_mask(sigmas, p.y_clean, p.x_true, beta, K).any()
    assert _block_sizes(200, 3, K) == (327, 109 * 327)
    closed = diagonal_trace(sigmas, p.y_clean, beta, K, p.x_true)
    loop = matvec_trace(p.operator, p.y_clean, beta, K, p.x_true)
    assert len(closed[0]) == K
    assert_traces_agree(closed, loop)


@settings(deadline=None, max_examples=40)
@given(m=st.integers(2, 120), n=st.integers(2, 120), rank_drop=st.integers(0, 30),
       seed=st.integers(0, 2**31 - 1), noise=st.sampled_from([0.0, 1e-3, 0.05]),
       beta=st.floats(0.05, 1.95), iters=st.integers(1, 3000))
# m > n, rank-deficient, noisy, K = 2 * 1092 + 17 rows of 1092 (2^16 // 60)
@example(m=90, n=70, rank_drop=10, seed=3, noise=0.05, beta=1.0, iters=2201)
# m < n, full rank, K = 1024 + 5 rows of 1024 (2^16 // 64)
@example(m=64, n=110, rank_drop=0, seed=4, noise=1e-3, beta=1.9, iters=1029)
# the noise all but cancels the data's part on u_2: G_7 = 1.5e-7 against
# R_7 = 0.054, and the loop's G_7 is off by 3e-17 of rounding
@example(m=11, n=42, rank_drop=9, seed=1604, noise=0.05, beta=0.90625, iters=7)
def test_dense_closed_form_matches_matvec_loop(m, n, rank_drop, seed, noise, beta, iters):
    """The closed form from a dense operator's SVD against the matvec loop.

    known_svd_problem keeps sigma_rank = 0.01 and x_true's coefficients of
    size about 1, so some mode is still far from converged after 3000 steps:
    once every mode has converged the loop's residual floors at rounding
    while the closed form decays on to zero, and the loop stops being a
    reference. Zero singular values of a rank-deficient A fall below SV_FLOOR
    and are dropped; their parts of data and x_true enter as constants.

    G_k can be small against R_k, where data's parts on the slow modes are
    small and its part outside range(A) is not. The loop's A* r_k carries
    rounding of about eps ||A|| ||r_k||, with ||A|| = 1 and ||r_k|| <=
    ||data||, so G has the allowance test_closed_form_matches_matvec_loop
    gives it.
    """
    rank = max(2, min(m, n) - rank_drop)
    p, data = known_svd_problem(seed, m, n, rank, noise)
    sd = svd(p.operator)
    assert sd.sigmas.size == rank
    cfg = LandweberConfig(step_beta=beta, max_iters=iters)
    closed = landweber_run(p, data, cfg, sd)
    loop = landweber_run(p, data, cfg)
    assert (closed.path, loop.path) == ("closed-form", "matvec")
    rounding = (0.0, 64 * np.finfo(float).eps * np.linalg.norm(data), 0.0)
    assert_traces_agree((closed.residuals, closed.gradient_norms, closed.errors),
                        (loop.residuals, loop.gradient_norms, loop.errors), rounding=rounding)


@settings(deadline=None, max_examples=40)
@given(n=st.integers(2, 120), rank_drop=st.integers(0, 30), seed=st.integers(0, 2**31 - 1),
       noise=st.sampled_from([0.0, 1e-3, 0.05]), beta=st.floats(0.05, 1.95),
       iters=st.integers(1, 3000), centro=st.booleans())
# rank-deficient and noisy, K = 2 * 1092 + 17 rows of 1092 (2^16 // 60)
@example(n=70, rank_drop=10, seed=3, noise=0.05, beta=1.0, iters=2201, centro=False)
@example(n=70, rank_drop=10, seed=3, noise=0.05, beta=1.0, iters=2201, centro=True)
def test_symmetric_decomposition_matches_slow_paths(n, rank_drop, seed, noise, beta, iters,
                                                    centro):
    """svd() of a symmetric indefinite matrix, by the eigensolver or, when
    the matrix is also centrosymmetric (n made even), by its two halves,
    against the definition of a singular system, np.linalg.svd, and the
    matvec loop.

    The spectrum is known_svd_problem's, so no mode converges within the
    run (see test_dense_closed_form_matches_matvec_loop); the zero
    eigenvalues of a rank-deficient A fall below SV_FLOOR and are dropped.

    G_k can be small against R_k, where data's parts on the slow modes are
    small and its part outside range(A) is not. The loop's A* r_k carries
    rounding of about eps ||A|| ||r_k||, with ||A|| = 1 and ||r_k|| <=
    ||data||, so G has the allowance test_closed_form_matches_matvec_loop
    gives it.
    """
    if centro:
        n += n % 2   # the halves need an even order
    rank = max(2, n - rank_drop)
    p, data = known_symmetric_problem(seed, n, rank, noise, centro)
    a = p.operator.matrix
    assert p.operator.symmetric
    sd = svd(p.operator)
    assert sd.method == ("centro" if centro else "eigh")
    s = sd.sigmas
    assert s.size == rank and np.all(np.diff(s) <= 0.0)
    tol = 1e-12 * s[0]
    assert np.abs(a @ right_vectors(sd) - sd.u * s).max() <= tol
    for basis in (sd.u, right_vectors(sd)):
        assert np.abs(basis.T @ basis - np.eye(rank)).max() <= 1e-12
    assert np.abs(s - np.linalg.svd(a, compute_uv=False)[:rank]).max() <= tol
    cfg = LandweberConfig(step_beta=beta, max_iters=iters)
    closed = landweber_run(p, data, cfg, sd)
    loop = landweber_run(p, data, cfg)
    assert (closed.path, loop.path) == ("closed-form", "matvec")
    rounding = (0.0, 64 * np.finfo(float).eps * np.linalg.norm(data), 0.0)
    assert_traces_agree((closed.residuals, closed.gradient_norms, closed.errors),
                        (loop.residuals, loop.gradient_norms, loop.errors), rounding=rounding)


@pytest.mark.parametrize("make", [
    lambda: make_gravity(512),
    lambda: make_gravity(1024),
    # |lam| falls geometrically from 1 to 1e-18 over 40 modes, 31 above the floor
    lambda: planted_symmetric_problem(7, 512, np.geomspace(1.0, 1e-18, 40)),
], ids=["gravity-512", "gravity-1024", "planted-512"])
def test_block_decomposition_matches_the_full_eigh(make):
    """svd() of a symmetric matrix whose spectrum crosses SV_FLOOR inside
    the leading block, against the full eigh it stands in for: the same
    retained modes, a singular system to 1e-12, the same closed-form
    Landweber trace and the same spectral verdict, and one result per
    matrix."""
    p = make()
    a = p.operator.matrix
    sd = svd(p.operator)
    oracle = _symmetric_svd(*np.linalg.eigh(a), method="eigh")
    s = sd.sigmas
    assert (sd.method, s.size) == ("block", oracle.sigmas.size)
    assert np.linalg.norm(a @ right_vectors(sd) - sd.u * s, axis=0).max() <= 1e-12 * s[0]
    for basis in (sd.u, right_vectors(sd)):
        assert np.abs(basis.T @ basis - np.eye(s.size)).max() <= 1e-12
    cfg = LandweberConfig()
    block, full = (landweber_run(p, p.y_clean, cfg, d) for d in (sd, oracle))
    assert (block.path, full.path) == ("closed-form", "closed-form")
    rounding = (0.0, 64 * np.finfo(float).eps * np.linalg.norm(p.y_clean), 0.0)
    assert_traces_agree((block.residuals, block.gradient_norms, block.errors),
                        (full.residuals, full.gradient_norms, full.errors), rounding=rounding)
    assert (verify_smoothness(sd, p.y_clean, DEFAULT_MU_GRID).admissible
            == verify_smoothness(oracle, p.y_clean, DEFAULT_MU_GRID).admissible)
    assert max_mu_spectral(sd, p.y_clean) == max_mu_spectral(oracle, p.y_clean)
    again = svd(dense_operator(a))
    for x, y in ((sd.sigmas, again.sigmas), (sd.u, again.u), (sd.signs, again.signs)):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("make, n", [(make_deriv2, 256), (make_gravity, 256),
                                     (make_deriv2, 1024), (make_gravity, 1024)],
                         ids=["deriv2-256", "gravity-256", "deriv2-1024", "gravity-1024"])
def test_centro_decomposition_matches_the_full_eigh(monkeypatch, make, n):
    """The half-size eigenproblems of a matrix symmetric and
    centrosymmetric bit for bit, split recursively, against the full eigh:
    the same retained modes, sigmas to 1e-13 sigma_1, a singular system at
    rounding, modes that are even or odd bit for bit, the same closed-form
    Landweber trace and the same spectral verdict. deriv2's odd half is
    centrosymmetric again down to order 2, gravity's halves are not. svd()
    takes the block for gravity at n = 1024, so the halves are called
    directly."""
    p = make(n)
    a = p.operator.matrix
    oracle = _symmetric_svd(*np.linalg.eigh(a), method="eigh")
    calls, eigh = [], np.linalg.eigh

    def counted(b):
        calls.append(b.shape)
        return eigh(b)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    sd = _centro_halves(a)
    if make is make_deriv2:
        # the even half of each order n/2, n/4, ..., 2, then the two of order 1
        orders = [n >> k for k in range(1, n.bit_length())] + [1]
        assert calls == [(m, m) for m in orders]
    else:
        assert calls == [(n // 2, n // 2)] * 2
    s = sd.sigmas
    assert (sd.method, s.size) == ("centro", oracle.sigmas.size)
    assert np.abs(s - oracle.sigmas).max() <= 1e-13 * s[0]
    assert np.linalg.norm(a @ right_vectors(sd) - sd.u * s, axis=0).max() <= 1e-14 * s[0]
    assert np.abs(sd.u.T @ sd.u - np.eye(s.size)).max() <= 1e-14
    assert np.array_equal(np.abs(sd.u[::-1]), np.abs(sd.u))
    cfg = LandweberConfig()
    centro, full = (landweber_run(p, p.y_clean, cfg, d) for d in (sd, oracle))
    rounding = (0.0, 64 * np.finfo(float).eps * np.linalg.norm(p.y_clean), 0.0)
    assert_traces_agree((centro.residuals, centro.gradient_norms, centro.errors),
                        (full.residuals, full.gradient_norms, full.errors), rounding=rounding)
    assert (verify_smoothness(sd, p.y_clean, DEFAULT_MU_GRID).admissible
            == verify_smoothness(oracle, p.y_clean, DEFAULT_MU_GRID).admissible)
    # deriv2 at n = 1024 counts coefficients near rounding, whose fit moves
    # in the 10th digit between decompositions as between BLAS thread counts
    assert max_mu_spectral(sd, p.y_clean) == pytest.approx(max_mu_spectral(oracle, p.y_clean),
                                                           rel=1e-9)


def test_decomposition_supplies_the_norm_power_iteration_misses():
    # sigma_2 / sigma_1 = 0.99998: power iteration would need some 10^5 steps
    rng = np.random.default_rng(1)
    u = np.linalg.qr(rng.standard_normal((36, 36)))[0]
    v = np.linalg.qr(rng.standard_normal((36, 36)))[0]
    sigmas = np.concatenate(([1.0, 0.99998], np.geomspace(0.5, 0.01, 34)))
    a = (u * sigmas) @ v.T
    p = ProblemSpec(operator=dense_operator(a), y_clean=a @ v[:, 5], x_true=v[:, 5],
                    label="close-top")
    with pytest.raises(ConvergenceError):
        operator_norm(p.operator)
    trace = landweber_run(p, p.y_clean, LandweberConfig(max_iters=50), svd(p.operator))
    assert trace.path == "closed-form"
    assert trace.step_beta == pytest.approx(1.0, rel=1e-12)

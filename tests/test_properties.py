"""Property-based checks of detector and serialization contracts.

Each test re-verifies the returned result against a direct restatement of
the contract, so the detectors are exercised on inputs nobody hand-picked.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from klsmooth.estimator import (WINDOW_STRIDE, EstimateTrack, detect_noise_takeover,
                                detect_stable_window, estimate_track)
from klsmooth.landweber import IterationTrace
from klsmooth.problems import add_noise, make_power_law

from _oracles import (brute_force_stable_window, noise_takeover_oracle,
                      stable_window_oracle, written_trace_csv)


def mk_trace(R, G, errors=None):
    R = np.asarray(R, dtype=float)
    G = np.asarray(G, dtype=float)
    with np.errstate(divide="ignore"):
        lb = np.where(G > 0, R**2 / np.where(G > 0, G, 1.0), np.nan)
    return IterationTrace(residuals=R, gradient_norms=G, lower_bounds=lb,
                          errors=None if errors is None else np.asarray(errors, float))


@st.composite
def random_track(draw):
    n = draw(st.integers(min_value=10, max_value=300))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    # bounded random walks: plateaus and drifts both occur
    mu = np.cumsum(rng.uniform(-0.02, 0.02, n)) + rng.uniform(-0.2, 0.8)
    c = np.exp(np.cumsum(rng.uniform(-0.01, 0.01, n)))
    return EstimateTrack(k_values=np.arange(5, 5 + n), mu_k=mu, c_k=c)


@settings(deadline=None, max_examples=80)
@given(random_track(), st.integers(min_value=2, max_value=40),
       st.floats(min_value=0.01, max_value=0.3),
       st.floats(min_value=0.01, max_value=0.5))
def test_stable_window_satisfies_its_own_criterion(track, w_min, eps_mu, eps_c):
    win = detect_stable_window(track, w_min=w_min, eps_mu=eps_mu, eps_c_rel=eps_c)
    if win is None:
        return
    k1, k2 = win
    assert k1 < k2
    mask = (track.k_values >= k1) & (track.k_values <= k2)
    assert mask.sum() >= w_min
    mu_win = track.mu_k[mask]
    c_win = track.c_k[mask]
    assert np.all(mu_win > 0.0)
    assert mu_win.max() - mu_win.min() <= eps_mu * (1 + 1e-12)
    assert c_win.max() / c_win.min() <= (1.0 + eps_c) * (1 + 1e-12)


@st.composite
def rough_track(draw):
    """A random track with the entries that break or tie windows.

    Values may be rounded to two decimals (ties among the running extremes),
    and NaN or non-positive entries may land anywhere, the last entry
    included. Tracks run from 1 to 300 entries, so w_min can exceed the
    length.
    """
    track = draw(random_track())
    n = draw(st.integers(min_value=1, max_value=track.mu_k.size))
    mu = track.mu_k[:n].copy()
    c = track.c_k[:n].copy()
    if draw(st.booleans()):
        mu, c = np.round(mu, 2), np.round(c, 2)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    for values, bad in ((mu, np.nan), (mu, 0.0), (c, np.nan), (c, -1.0)):
        hits = rng.integers(0, n, draw(st.integers(min_value=0, max_value=3)))
        values[hits] = bad
    return EstimateTrack(k_values=track.k_values[:n], mu_k=mu, c_k=c)


@settings(deadline=None, max_examples=300)
@given(rough_track(), st.integers(min_value=1, max_value=60),
       st.sampled_from([0.0, 0.01, 0.05, 0.3]), st.sampled_from([0.0, 0.01, 0.05, 0.5]))
@example(track=EstimateTrack(k_values=np.arange(5, 85), mu_k=np.linspace(0.9, 0.1, 80) ** 4,
                             c_k=np.ones(80)),
         w_min=5, eps_mu=0.05, eps_c=0.05)   # the flat stretch runs to the end
def test_stable_window_matches_deque_oracle(track, w_min, eps_mu, eps_c):
    assert (detect_stable_window(track, w_min=w_min, eps_mu=eps_mu, eps_c_rel=eps_c)
            == stable_window_oracle(track, w_min, eps_mu, eps_c))


@st.composite
def plateau_track(draw):
    """A track of flat runs drawn from a few levels, with breaks between them.

    Equal levels recur, so windows of the same length tie and the earliest
    must win; run lengths straddle WINDOW_STRIDE, so a stable window may
    start anywhere within a block. Lengths run from 1 to 5 strides plus a
    remainder, and an entry may be non-finite or non-positive.
    """
    n = draw(st.integers(min_value=1, max_value=5 * WINDOW_STRIDE + 7))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    runs = rng.integers(1, 2 * WINDOW_STRIDE + 3, n)
    levels = np.repeat(rng.integers(0, 3, runs.size), runs)[:n]
    mu = np.array([0.3, 0.32, 0.5])[levels]
    c = np.array([1.0, 1.01, 1.0])[levels]
    for values, bad in ((mu, np.nan), (mu, -0.2), (c, np.inf), (c, 0.0)):
        if draw(st.booleans()):
            values[rng.integers(0, n)] = bad
    return EstimateTrack(k_values=np.arange(3, 3 + n), mu_k=mu, c_k=c)


@settings(deadline=None, max_examples=200)
@given(st.one_of(rough_track(), plateau_track()), st.integers(min_value=1, max_value=90),
       st.sampled_from([0.0, 0.01, 0.05, 0.3]), st.sampled_from([0.0, 0.01, 0.05, 0.5]))
@example(track=EstimateTrack(k_values=np.arange(1, 8), mu_k=np.full(7, 0.3),
                             c_k=np.ones(7)),
         w_min=3, eps_mu=0.0, eps_c=0.0)   # shorter than one block
@example(track=EstimateTrack(k_values=np.arange(1, 4 * WINDOW_STRIDE + 6),
                             mu_k=np.full(4 * WINDOW_STRIDE + 5, 0.3),
                             c_k=np.ones(4 * WINDOW_STRIDE + 5)),
         w_min=4 * WINDOW_STRIDE + 6, eps_mu=0.05, eps_c=0.05)   # w_min > n
def test_stable_window_matches_brute_force(track, w_min, eps_mu, eps_c):
    assert (detect_stable_window(track, w_min=w_min, eps_mu=eps_mu, eps_c_rel=eps_c)
            == brute_force_stable_window(track, w_min, eps_mu, eps_c))


@settings(deadline=None, max_examples=150)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.floats(0.3, 0.97),
       st.sampled_from([2.5e-4, 4e-3]))
def test_noise_takeover_matches_scan_oracle(seed, p_rise, max_step):
    # rises of R^2/G come in runs of every length, some long enough to
    # hold several candidates; with steps of up to 2.5e-4 ten of them grow
    # by about TAKEOVER_MIN_RISE, so some candidates pass and some fail
    # within a run; a NaN may cut the trace short
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    rises = 1.0 + rng.uniform(0.0, max_step, n)
    lb = np.cumprod(np.where(rng.random(n) < p_rise, rises, 0.995))
    R = np.cumprod(np.where(rng.random(n) < 0.97, 0.99, 1.01))
    if rng.random() < 0.2:
        lb[rng.integers(0, n)] = np.nan
    trace = IterationTrace(residuals=R, gradient_norms=R, lower_bounds=lb)
    assert detect_noise_takeover(trace) == noise_takeover_oracle(trace)


def test_noise_takeover_reads_later_candidates_of_a_run():
    # one run of 30 rises from iteration 6: the first ten grow by less than
    # TAKEOVER_MIN_RISE, so the onset is the run's second candidate, ten
    # steps on, not any start in between
    steps = np.concatenate((np.full(5, 0.99), np.full(10, 1.00005), np.full(20, 1.01)))
    lb = np.cumprod(steps)
    R = np.exp(-0.01 * np.arange(lb.size))
    trace = IterationTrace(residuals=R, gradient_norms=R, lower_bounds=lb)
    assert detect_noise_takeover(trace) == noise_takeover_oracle(trace) == 15


@settings(deadline=None, max_examples=80)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_takeover_result_satisfies_its_own_criterion(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 400))
    R = np.exp(-np.cumsum(rng.uniform(0.001, 0.05, n)))   # strictly decreasing
    lb = np.exp(np.cumsum(rng.uniform(-0.05, 0.06, n)))    # wandering
    trace = mk_trace(R, R**2 / lb)
    k_star = detect_noise_takeover(trace)
    if k_star is None:
        return
    i = k_star - 1
    assert np.all(np.diff(trace.lower_bounds[i:i + 11]) > 0.0)
    assert trace.lower_bounds[i + 10] >= 1.001 * trace.lower_bounds[i]
    # sustained: never undercuts the onset level afterwards
    assert np.min(trace.lower_bounds[i:]) >= trace.lower_bounds[i] * (1 - 1e-12)


def test_estimate_track_skips_degenerate_prefixes():
    # constant opening residuals make the early prefixes singular; once the
    # residual moves, estimates resume
    R = np.array([0.5] * 6 + list(0.5 * np.exp(-0.3 * np.arange(1, 15))))
    G = 0.7 * R ** 1.5
    G[:6] = np.linspace(0.3, 0.35, 6)
    trace = mk_trace(R, G)
    track = estimate_track(trace, k_min=5, w_min=5)
    assert track.skipped_k == (5, 6)
    later = track.mu_k[track.k_values > 6]
    assert np.all(np.isfinite(later))


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.floats(min_value=1e-6, max_value=0.5))
def test_add_noise_level_exact_for_random_levels(seed, rel):
    p = make_power_law(64, 2, 2)
    nd = add_noise(p, rel, seed)
    achieved = np.linalg.norm(nd.y_delta - p.y_clean)
    assert achieved == pytest.approx(rel * np.linalg.norm(p.y_clean), rel=1e-12)
    assert nd.delta_abs == pytest.approx(achieved, rel=1e-12)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_trace_csv_round_trips_at_full_precision(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    R = np.exp(rng.uniform(-300, 2, n))
    G = np.exp(rng.uniform(-300, 2, n))
    E = np.exp(rng.uniform(-10, 2, n))
    trace = mk_trace(R, G, errors=E)
    lines = written_trace_csv(trace).strip().splitlines()[1:]
    for idx, line in enumerate(lines):
        cells = line.split(",")
        assert int(cells[0]) == idx + 1
        assert float(cells[1]) == R[idx]
        assert float(cells[2]) == G[idx]
        assert float(cells[4]) == E[idx]

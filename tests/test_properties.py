"""Property-based checks of detector and serialization contracts.

Each test re-verifies the returned result against a direct restatement of
the contract, so the detectors are exercised on inputs nobody hand-picked.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from klsmooth import estimator
from klsmooth.estimator import (DEFAULT_EPS_C_REL, DEFAULT_EPS_MU, DEFAULT_W_MIN,
                                SATURATION_WINDOW, WINDOW_STRIDE, EstimateTrack,
                                detect_discretization_saturation, detect_noise_takeover,
                                detect_stable_window, estimate_track)
from klsmooth.landweber import IterationTrace
from klsmooth.problems import add_noise, make_power_law

from _oracles import (brute_force_stable_window, coarse_to_fine_stable_window,
                      noise_takeover_oracle, prefix_fits_oracle, rolling_slopes_oracle,
                      saturating_trace, saturation_oracle, stable_block_groups,
                      stable_window_oracle, written_trace_csv)


# entries per chunk of the estimate stage while it is checked against the
# oracles: chunk edges, every third block edge, fall inside short tracks
SMALL_ESTIMATE_CHUNK = 3 * WINDOW_STRIDE


def _detect_stable_window_by_small_chunks(track, w_min, eps_mu, eps_c):
    with mock.patch.object(estimator, "ESTIMATE_CHUNK", SMALL_ESTIMATE_CHUNK):
        return detect_stable_window(track, w_min=w_min, eps_mu=eps_mu, eps_c_rel=eps_c)


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
    return EstimateTrack(k_min=5, mu_k=mu, c_k=c)


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
    return EstimateTrack(k_min=track.k_min, mu_k=mu, c_k=c)


@settings(deadline=None, max_examples=300)
@given(rough_track(), st.integers(min_value=1, max_value=60),
       st.sampled_from([0.0, 0.01, 0.05, 0.3]), st.sampled_from([0.0, 0.01, 0.05, 0.5]))
@example(track=EstimateTrack(k_min=5, mu_k=np.linspace(0.9, 0.1, 80) ** 4, c_k=np.ones(80)),
         w_min=5, eps_mu=0.05, eps_c=0.05)   # the flat stretch runs to the end
def test_stable_window_matches_deque_oracle(track, w_min, eps_mu, eps_c):
    assert (_detect_stable_window_by_small_chunks(track, w_min, eps_mu, eps_c)
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
    return EstimateTrack(k_min=3, mu_k=mu, c_k=c)


@settings(deadline=None, max_examples=200)
@given(st.one_of(rough_track(), plateau_track()), st.integers(min_value=1, max_value=90),
       st.sampled_from([0.0, 0.01, 0.05, 0.3]), st.sampled_from([0.0, 0.01, 0.05, 0.5]))
@example(track=EstimateTrack(k_min=1, mu_k=np.full(7, 0.3), c_k=np.ones(7)),
         w_min=3, eps_mu=0.0, eps_c=0.0)   # shorter than one block
@example(track=EstimateTrack(k_min=1, mu_k=np.full(4 * WINDOW_STRIDE + 5, 0.3),
                             c_k=np.ones(4 * WINDOW_STRIDE + 5)),
         w_min=4 * WINDOW_STRIDE + 6, eps_mu=0.05, eps_c=0.05)   # w_min > n
def test_stable_window_matches_brute_force(track, w_min, eps_mu, eps_c):
    assert (_detect_stable_window_by_small_chunks(track, w_min, eps_mu, eps_c)
            == brute_force_stable_window(track, w_min, eps_mu, eps_c))


@st.composite
def long_track(draw):
    """A long track with several planted plateaus, for the restricted fine search.

    The background either jumps by 0.3 at every entry, so that a plateau's
    window ends where the plateau does and plateaus of one width tie, or
    wanders as a random walk. Plateaus are three or more blocks long, so the
    coarse search finds runs of two blocks or more, and they lie anywhere,
    so that the stable block runs often fall into several neighbourhoods,
    and sometimes into one that a break splits. One may
    run to the last entry, and NaN and mu <= 0 breaks may fall anywhere,
    one of them inside a plateau, and on either side of the edges of
    SMALL_ESTIMATE_CHUNK entries or of blocks. Tracks run from 300 to 5,000
    entries.
    """
    n = draw(st.integers(min_value=300, max_value=5000))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    if draw(st.booleans()):
        mu = np.resize([0.9, 1.2], n)
        c = np.ones(n)
    else:
        mu = np.cumsum(rng.uniform(-0.03, 0.03, n)) + 1.0
        c = np.exp(np.cumsum(rng.uniform(-0.02, 0.02, n)))
    widths = rng.choice([3 * WINDOW_STRIDE, 5 * WINDOW_STRIDE + 3, 12 * WINDOW_STRIDE + 7],
                        draw(st.integers(min_value=2, max_value=6)))
    starts = [int(rng.integers(0, n - width + 1)) for width in widths]
    if draw(st.booleans()):
        starts[-1] = n - widths[-1]
    for start, width in zip(starts, widths):
        level = rng.choice([0.3, 0.32])
        mu[start:start + width] = level + rng.uniform(0.0, 0.01, width)
        c[start:start + width] = 1.0 + rng.uniform(0.0, 0.01, width)
    for values, bad in ((mu, np.nan), (mu, 0.0), (mu, -0.2), (c, np.nan), (c, np.inf)):
        values[rng.integers(0, n, draw(st.integers(min_value=0, max_value=2)))] = bad
    if draw(st.booleans()):
        mu[starts[0] + int(rng.integers(0, widths[0]))] = np.nan
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        unit = int(rng.choice([SMALL_ESTIMATE_CHUNK, WINDOW_STRIDE]))
        edge = unit * int(rng.integers(1, (n - 1) // unit + 1))
        values, bad = [(mu, np.nan), (mu, 0.0), (mu, -0.2), (c, np.nan), (c, np.inf)][
            rng.integers(0, 5)]
        values[edge - int(rng.integers(0, 2))] = bad
    return EstimateTrack(k_min=5, mu_k=mu, c_k=c)


def _two_plateaus(n, first, second, width):
    """Equal flat runs at `first` and `second` on a background that jumps by 0.3."""
    mu = np.resize([0.9, 1.2], n)
    mu[first:first + width] = mu[second:second + width] = 0.3
    return EstimateTrack(k_min=5, mu_k=mu, c_k=np.ones(n))


def _joinable_neighbourhoods():
    """Two neighbourhoods whose ends, laid side by side, would join into a window.

    A plateau of 20 blocks, a break and 15 more entries at its level end
    the first; the second starts on a plateau of 335 entries at the same
    level. The fine search's one stretch keeps the entries between them,
    which keep it from a window of 350 entries that spans both.
    """
    n = 2000
    mu = np.resize([0.9, 1.2], n)
    mu[:20 * WINDOW_STRIDE] = mu[321:336] = mu[625:960] = 0.3
    mu[20 * WINDOW_STRIDE] = np.nan
    return EstimateTrack(k_min=5, mu_k=mu, c_k=np.ones(n))


def _overlapping_neighbourhoods():
    """Stable two-block runs three blocks apart, whose neighbourhoods overlap.

    The longest run is three blocks (a plateau at 0.5), so runs of two
    blocks start the neighbourhoods: at blocks 10 and 13 here, and at no
    block between. Across block 12 a stable stretch of 46 entries lies in
    both neighbourhoods; were they laid side by side rather than searched
    as one stretch, its 15 entries in both would read as a window of 61.
    """
    n = 600
    mu = np.resize([0.9, 1.2], n)
    mu[160:176], mu[176], mu[177:192] = 0.32, 0.30, 0.34
    mu[192:208], mu[208:223], mu[223], mu[224:240] = 0.37, 0.38, 0.425, 0.40
    mu[400:448] = 0.5
    return EstimateTrack(k_min=5, mu_k=mu, c_k=np.ones(n))


def test_long_track_examples_form_two_block_groups():
    # stable block runs in two groups: the fine search's stretch then holds
    # entries of no neighbourhood, which it must search without a new window
    for track in (_two_plateaus(3001, 100, 2500, 200), _joinable_neighbourhoods(),
                  _overlapping_neighbourhoods()):
        assert stable_block_groups(track) == 2


@settings(deadline=None, max_examples=120, derandomize=True)
@given(long_track(), st.integers(min_value=1, max_value=200),
       st.sampled_from([0.01, 0.05]), st.sampled_from([0.01, 0.05]))
@example(track=_two_plateaus(3001, 100, 2500, 200),
         w_min=50, eps_mu=0.05, eps_c=0.05)   # a tie between two neighbourhoods
@example(track=_joinable_neighbourhoods(), w_min=50, eps_mu=0.05, eps_c=0.05)
@example(track=_overlapping_neighbourhoods(), w_min=10, eps_mu=0.05, eps_c=0.05)
def test_stable_window_on_long_tracks_matches_both_oracles(track, w_min, eps_mu, eps_c):
    found = _detect_stable_window_by_small_chunks(track, w_min, eps_mu, eps_c)
    assert found == detect_stable_window(track, w_min=w_min, eps_mu=eps_mu, eps_c_rel=eps_c)
    assert found == coarse_to_fine_stable_window(track, w_min, eps_mu, eps_c)
    assert found == stable_window_oracle(track, w_min, eps_mu, eps_c)


# windows per chunk while the saturation scan is checked: many chunk
# boundaries fall inside a trace of a few hundred entries
SMALL_CHUNK = 64
# slope one throughout, but the spike takes the window that starts on it,
# the last of chunk 1, out of band: the closing in-band stretch starts at
# the boundary, and the scan must step back one chunk to find its start
BOUNDARY_ONSET = dict(seed=3, n=400, kink=0, early_slope=2.0, noise=0.0,
                      spikes=[2 * SMALL_CHUNK - 1])


@st.composite
def saturating_trace_args(draw):
    """Arguments of _oracles.saturating_trace: up to 1,500 entries, so 23
    chunks of SMALL_CHUNK windows, with the kink anywhere, near the end or
    past it, noise from none to enough to take windows out of band at
    random, spikes (one may start the last window) and breaks anywhere, and
    sometimes a flat start, one that runs past the first SMALL_ESTIMATE_CHUNK
    prefixes among them."""
    n = draw(st.integers(min_value=1, max_value=1500)
             | st.integers(min_value=4 * SMALL_CHUNK, max_value=1500))
    entry = st.integers(min_value=0, max_value=n - 1)
    spikes = draw(st.lists(entry, max_size=3))
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        spikes.append(max(n - SATURATION_WINDOW, 0))
    # the kink anywhere, or late enough that the onset falls in the last chunk
    kink = draw(st.integers(min_value=0, max_value=n + 30)
                | st.integers(min_value=max(n - 3 * SMALL_CHUNK, 0),
                              max_value=max(n - 2 * SATURATION_WINDOW, 0)))
    return dict(seed=draw(st.integers(min_value=0, max_value=2**31 - 1)), n=n, kink=kink,
                early_slope=draw(st.sampled_from([0.6, 1.3, 2.0])),
                noise=draw(st.sampled_from([0.0, 0.0, 1e-4, 0.02, 0.3])),
                spikes=spikes,
                breaks=draw(st.lists(st.tuples(entry | st.integers(n // 2, n - 1),
                                               st.sampled_from(["nan", "zero", "inf", "r0", "g0"])),
                                     max_size=2)),
                flat_start=draw(st.sampled_from([0, 0, 3, 12, 60])))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(saturating_trace_args(), st.sampled_from([2, 5, 23]))
@example(args=BOUNDARY_ONSET, k_min=5)
# degenerate prefixes up to 60 across the first chunk edge, and R = 0 in
# the middle of the fourth chunk, so that the fits stop there
@example(args=dict(seed=7, n=400, kink=300, early_slope=0.6, noise=1e-4, spikes=[],
                   breaks=[(3 * SMALL_ESTIMATE_CHUNK + 20, "r0")], flat_start=60), k_min=23)
def test_estimate_passes_match_their_forward_oracles(args, k_min):
    trace = saturating_trace(**args)
    with mock.patch.object(estimator, "SLOPE_CHUNK", SMALL_CHUNK):
        assert detect_discretization_saturation(trace) == saturation_oracle(trace)
    # every slope, bit for bit: chunk by chunk against the whole-trace pass
    R, lb = trace.residuals, trace.lower_bounds
    ok = np.isfinite(lb) & (lb > 0.0) & (R > 0.0)
    stop = int(np.argmin(ok)) if not ok.all() else ok.size
    if stop > SATURATION_WINDOW:
        n_windows = stop - SATURATION_WINDOW + 1
        sums = np.empty((4, SMALL_CHUNK + SATURATION_WINDOW))
        slopes = []
        for start in range(0, n_windows, SMALL_CHUNK):
            seg = slice(start, min(start + SMALL_CHUNK, n_windows) + SATURATION_WINDOW - 1)
            slopes.append(estimator._rolling_slopes(R[seg], lb[seg], SATURATION_WINDOW, sums))
        with mock.patch.object(estimator, "SLOPE_CHUNK", SMALL_CHUNK):
            want = rolling_slopes_oracle(np.log(R[:stop]), np.log(lb[:stop]), SATURATION_WINDOW)
        assert np.concatenate(slopes).tobytes() == want.tobytes()
    # the estimate stage by chunks of SMALL_ESTIMATE_CHUNK entries against
    # the oracles' whole-trace passes
    with mock.patch.object(estimator, "ESTIMATE_CHUNK", SMALL_ESTIMATE_CHUNK):
        track = _outcome(estimate_track, trace, k_min)
    # the oracle lets exp overflow to c = inf with a warning
    with np.errstate(over="ignore"):
        want = _outcome(prefix_fits_oracle, trace, k_min)
    if isinstance(want, str):
        assert track == want
        return
    assert np.array_equal(track.k_values, want.k_values)
    # bit for bit, NaN included
    assert track.mu_k.tobytes() == want.mu_k.tobytes()
    assert track.c_k.tobytes() == want.c_k.tobytes()
    assert track.skipped_k == want.skipped_k
    assert track.stable_window == stable_window_oracle(want, DEFAULT_W_MIN, DEFAULT_EPS_MU,
                                                       DEFAULT_EPS_C_REL)
    if track.stable_window is not None:
        k1, k2 = track.stable_window
        mask = (want.k_values >= k1) & (want.k_values <= k2)
        assert track.mu_hat == float(np.median(want.mu_k[mask]))
        assert track.c_hat == float(np.median(want.c_k[mask]))


def test_saturation_onset_at_a_chunk_boundary():
    trace = saturating_trace(**BOUNDARY_ONSET)
    with mock.patch.object(estimator, "SLOPE_CHUNK", SMALL_CHUNK):
        assert (detect_discretization_saturation(trace) == saturation_oracle(trace)
                == 2 * SMALL_CHUNK + SATURATION_WINDOW)


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

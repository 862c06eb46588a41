"""Smoothness estimation by log-log regression of gradient against residual.

Under a source condition with exponent mu, the gradient and residual norms of
the squared-misfit descent satisfy G ~ R^gamma / c with

    gamma = (2 mu + 2) / (2 mu + 1),        mu = (2 - gamma) / (2 gamma - 2).

Fitting log G = gamma log R + b over the first k iterations for every k gives
per-prefix estimates mu_k, c_k (c = exp(-b)); a stretch of iterations where
both stay put is the reading point for the final estimate. Failure modes are
diagnosed separately: noise takeover (the observable lower bound R^2/G starts
rising while the residual still falls) and discretization saturation (the
lower-bound-versus-residual slope drifts to one, the well-posed signature).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .landweber import IterationTrace

DEFAULT_K_MIN = 5
DEFAULT_W_MIN = 50
DEFAULT_EPS_MU = 0.05
# Calibrated against the benchmark suite: a loose constant tolerance lets the
# post-takeover drift of noisy runs masquerade as stability, 5% does not.
DEFAULT_EPS_C_REL = 0.05
# A window is representative of the run only if it covers this share of the
# track; shorter flat stretches occur inside slowly meandering estimates.
STABLE_WINDOW_FRACTION = 0.3
TAKEOVER_PERSISTENCE = 10
# Cumulative growth the lower bound must show over the persistence window;
# rejects rounding-level wiggles.
TAKEOVER_MIN_RISE = 1.001
SATURATION_WINDOW = 25
SATURATION_BAND = (0.85, 1.15)
# windows per chunk of _rolling_slopes
SLOPE_CHUNK = 1 << 15
# entries per block of detect_stable_window's coarse search
WINDOW_STRIDE = 16
# iterations per chunk of _prefix_fits, and entries per chunk of
# detect_stable_window's block extremes: a multiple of WINDOW_STRIDE
ESTIMATE_CHUNK = 1 << 13

VERDICT_STABLE = "stable"
VERDICT_UNSTABLE = "unstable-suspect-violation"
VERDICT_NOISE = "noise-truncated"


@dataclass(frozen=True)
class EstimateTrack:
    """Per-prefix regression outputs plus stability and noise diagnostics.

    Entry i of mu_k and c_k is the fit of the first k_min + i iterations.
    """

    k_min: int
    mu_k: np.ndarray
    c_k: np.ndarray
    stable_window: Optional[tuple[int, int]] = None
    mu_hat: Optional[float] = None
    c_hat: Optional[float] = None
    verdict: str = VERDICT_UNSTABLE
    noise_takeover_k: Optional[int] = None
    skipped_k: tuple = ()

    @property
    def k_values(self) -> np.ndarray:
        return np.arange(self.k_min, self.k_min + self.mu_k.size)


def gamma_to_mu(gamma: float | np.ndarray) -> float | np.ndarray:
    """Invert gamma = (2 mu + 2) / (2 mu + 1), elementwise.

    gamma = 1 (unbounded smoothness) gives a non-finite mu; gamma >= 2 maps
    to mu <= 0 and is passed through (the collapse pattern of noisy runs
    must stay visible in the track). A scalar gamma gives a numpy float.
    """
    gamma = np.asarray(gamma, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (2.0 - gamma) / (2.0 * gamma - 2.0)


def _ols(k, s1, s2, sy, sxy):
    """Line fit y = gamma x + b from the sums over k points.

    s1 = sum x, s2 = sum x^2, sy = sum y, sxy = sum x y, each a scalar or an
    array of running sums (k then an array too). The fit works in the memory
    of array sums: gamma comes back in sxy's and b in sy's. Returns (gamma,
    b, degenerate); degenerate marks fits whose x values (nearly) all
    coincide, where gamma and b mean nothing.
    """
    den = k * s2
    den -= s1 * s1
    with np.errstate(divide="ignore", invalid="ignore"):
        sxy *= k
        sxy -= s1 * sy
        sxy /= den
        gamma = sxy
        sy -= gamma * s1
        sy /= k
    # relative test: exact ties cancel only to rounding in the running sums
    degenerate = ~np.isfinite(gamma) | (den <= 1e-13 * k * np.maximum(s2, 1e-30))
    return gamma, sy, degenerate


def estimate_track(trace: IterationTrace, k_min: int = DEFAULT_K_MIN,
                   w_min: int = DEFAULT_W_MIN, eps_mu: float = DEFAULT_EPS_MU,
                   eps_c_rel: float = DEFAULT_EPS_C_REL) -> EstimateTrack:
    """Per-prefix estimates for k = k_min..K with stability/noise diagnostics.

    The prefixes are fitted from running sums, and the window searched, by
    chunks of ESTIMATE_CHUNK entries, so the stage holds little besides its
    outputs on long traces. Iterations at or past an exact-convergence zero
    (R or G equal to 0) are excluded; degenerate prefixes are skipped and
    listed in ``skipped_k``. The stages index the track by position; a k is
    k_min plus its entry's position, so the track keeps two columns, mu_k
    and c_k, and no column of k.
    """
    track = _prefix_fits(trace, k_min)
    window = detect_stable_window(track, w_min=w_min, eps_mu=eps_mu,
                                  eps_c_rel=eps_c_rel)
    takeover = detect_noise_takeover(trace)

    mu_hat = c_hat = None
    if window is not None:
        inside = slice(window[0] - k_min, window[1] - k_min + 1)
        mu_hat = float(np.median(track.mu_k[inside]))
        c_hat = float(np.median(track.c_k[inside]))

    verdict = VERDICT_UNSTABLE
    if takeover is not None and _collapses_after(track, takeover):
        verdict = VERDICT_NOISE
    elif window is not None:
        frac = (window[1] - window[0] + 1) / track.mu_k.size
        if frac >= STABLE_WINDOW_FRACTION:
            verdict = VERDICT_STABLE

    return replace(track, stable_window=window, mu_hat=mu_hat, c_hat=c_hat,
                   verdict=verdict, noise_takeover_k=takeover)


def _prefix_fits(trace: IterationTrace, k_min: int) -> EstimateTrack:
    """The regression columns of :func:`estimate_track`, without diagnostics.

    The prefixes are fitted by chunks of ESTIMATE_CHUNK iterations, so that
    the stage holds the two output columns and chunk-sized buffers only. A
    chunk's logs and their products go into columns 1 on of one (4, chunk +
    1) buffer whose column 0 holds the running totals of the chunks before:
    its running sums are added in the order of one pass over the whole
    trace, bit for bit. :func:`_ols` then fits the chunk's prefixes from
    k_min on in the memory of ``mu_k`` and ``c_k``.
    """
    if k_min < 2:
        raise ValueError("k_min must be >= 2")
    K = len(trace)
    if K < k_min:
        raise ValueError(f"trace length {K} is below k_min = {k_min}")
    R = trace.residuals
    G = trace.gradient_norms
    pos = (R > 0.0) & (G > 0.0)
    K_use = int(np.argmin(pos)) if not pos.all() else K
    if K_use < k_min:
        raise ValueError("trace reaches exact convergence before k_min")

    mu = np.empty(K_use - k_min + 1)
    c = np.empty_like(mu)
    skipped = []
    chunk = min(ESTIMATE_CHUNK, K_use)
    sums = np.empty((4, chunk + 1))
    for start in range(0, K_use, chunk):
        stop = min(start + chunk, K_use)
        cum = sums[:, :stop - start + 1]
        s1, s2, sy, sxy = cum[:, 1:]
        np.log(R[start:stop], out=s1)
        np.log(G[start:stop], out=sy)
        np.square(s1, out=s2)
        np.multiply(s1, sy, out=sxy)
        # the first chunk starts its sums from its first entry, as one pass
        # would: a sum started from 0.0 would turn a -0.0 product into +0.0
        running = cum if start else cum[:, 1:]
        np.cumsum(running, axis=1, out=running)
        # column j + 1 - start of cum sums the first j + 1 iterations, and the
        # fits run from the prefix of k_min iterations
        first = max(start, k_min - 1)
        if first < stop:
            fits = slice(first - start, None)
            out = slice(first - k_min + 1, stop - k_min + 1)
            gamma, b = mu[out], c[out]
            gamma[...], b[...] = sxy[fits], sy[fits]
            _, _, degenerate = _ols(np.arange(first + 1, stop + 1.0), s1[fits], s2[fits],
                                    sy=b, sxy=gamma)
            gamma[...] = gamma_to_mu(gamma)
            # a fit of a few far-off points may have c beyond the float range
            with np.errstate(over="ignore"):
                np.exp(np.negative(b, out=b), out=b)
            gamma[degenerate] = np.nan
            b[degenerate] = np.nan
            skipped += (np.flatnonzero(degenerate) + first + 1).tolist()
        cum[:, 0] = cum[:, -1]
    return EstimateTrack(k_min=k_min, mu_k=mu, c_k=c, skipped_k=tuple(skipped))


def _collapses_after(track: EstimateTrack, k_star: int) -> bool:
    """True when the estimates eventually drop below zero past k_star."""
    after = track.mu_k[max(k_star - track.k_min + 1, 0):]
    after = after[np.isfinite(after)]
    return after.size > 0 and float(after.min()) < 0.0


def detect_stable_window(track: EstimateTrack, w_min: int = DEFAULT_W_MIN,
                         eps_mu: float = DEFAULT_EPS_MU,
                         eps_c_rel: float = DEFAULT_EPS_C_REL
                         ) -> Optional[tuple[int, int]]:
    """Longest contiguous k-range where mu_k and c_k are simultaneously stable.

    Stability means max - min of mu_k <= eps_mu and max / min of c_k <=
    1 + eps_c_rel over the window, with at least w_min entries. Entries with
    mu_k <= 0 (gamma outside (1,2)) or non-finite values break contiguity.
    Of several longest windows the earliest is returned, as the iterations
    k of its ends (track.k_min plus their positions). Absence is a value,
    not an error.

    An ineligible entry becomes NaN in both rows of the searched copies of
    mu_k and c_k: every max and min over a window that covers it is NaN,
    and both stability tests fail on NaN. Every sub-window of a stable
    window is stable, so whether a stable window of a given length exists
    is monotone in the length (see :func:`_longest_stable`). A coarse
    search comes first, over the extremes of aligned blocks of
    WINDOW_STRIDE = S entries: L consecutive blocks are stable exactly when
    the L * S entries they cover are, since max and min are exact. With L
    the longest such run, every window of (L + 2) * S - 1 entries covers
    L + 1 whole blocks, so the fine search needs only the lengths from L * S
    to (L + 2) * S - 2.

    With L >= 2 it also needs only part of the track. Let w <= L - 1 be the
    width below L that the coarse search last found stable. A window of at
    least L * S entries covers at least L - 1 >= w whole blocks, so each of
    them lies in a run of w whole blocks of the window, and that run is
    stable. The window thus lies within S - 1 entries of the stable w-runs
    [t, t + w) of blocks, in the neighbourhood from (t - 1) * S + 1 to
    (t + w + 1) * S - 1 of one of their starts t. The fine search runs once,
    over the stretch from the first start's neighbourhood to the last one's:
    every stable window of the searched lengths in that stretch lies in a
    neighbourhood, so its earliest longest window is the track's. With
    L < 2 the fine search covers the whole track.

    The block extremes are reduced by chunks of ESTIMATE_CHUNK entries,
    each marked on one chunk-sized scratch, into preallocated (2, n / S)
    arrays; the fine search copies its stretch alone.
    """
    if not (eps_mu >= 0.0 and eps_c_rel >= 0.0):
        raise ValueError("eps_mu and eps_c_rel must be non-negative")
    mu, c = track.mu_k, track.c_k
    n = mu.size
    shortest = max(w_min, 1)
    if shortest > n:
        return None

    def eligible(mu_part: np.ndarray, c_part: np.ndarray, out: np.ndarray) -> np.ndarray:
        out[0], out[1] = mu_part, c_part
        out[:, ~((out > 0.0) & (out < np.inf)).all(axis=0)] = np.nan
        return out

    S = WINDOW_STRIDE
    n_blocks = n // S
    hi, lo = np.empty((2, n_blocks)), np.empty((2, n_blocks))
    # a chunk's blocks laid out (2, S, blocks): numpy reduces along the
    # middle axis by S - 1 elementwise passes over contiguous rows, where
    # along an S-long last axis it takes several times as long
    scratch = np.empty((2, S, min(ESTIMATE_CHUNK, n_blocks * S) // S))
    for start in range(0, n_blocks * S, ESTIMATE_CHUNK):
        stop = min(start + ESTIMATE_CHUNK, n_blocks * S)
        blocks = eligible(mu[start:stop].reshape(-1, S).T, c[start:stop].reshape(-1, S).T,
                           scratch[:, :, :(stop - start) // S])
        blocks.max(axis=1, out=hi[:, start // S:stop // S])
        blocks.min(axis=1, out=lo[:, start // S:stop // S])
    runs, _, (w, shorter) = _longest_stable(hi, lo, eps_mu, eps_c_rel, 1, n_blocks)
    begin, end = 0, n
    if runs >= 2:
        t = np.flatnonzero(shorter)
        begin = max(int(t[0]) * S - S + 1, 0)
        end = min((int(t[-1]) + w + 1) * S, n)
    values = eligible(mu[begin:end], c[begin:end], np.empty((2, end - begin)))
    found, starts, _ = _longest_stable(values, values, eps_mu, eps_c_rel,
                                       max(shortest, runs * S),
                                       min(end - begin, (runs + 2) * S - 2))
    if starts is None:
        return None
    first = track.k_min + begin + int(np.argmax(starts))
    return first, first + found - 1


@np.errstate(over="ignore")
def _longest_stable(hi: np.ndarray, lo: np.ndarray, eps_mu: float, eps_c_rel: float,
                    shortest: int, longest: int
                    ) -> tuple[int, Optional[np.ndarray], tuple[int, Optional[np.ndarray]]]:
    """Longest stable run of entries, by doubling and then bisecting its width.

    Column i of hi and lo holds upper and lower bounds of (mu_k, c_k) at
    entry i (the values themselves, or the extremes of a block), NaN where
    the entry is ineligible. Searches the widths from shortest to longest
    and returns the largest with a stable run and, for every start, whether
    the run from there is stable, then that pair for the last smaller width
    found stable ((0, None) if there is none); (0, None, (0, None)) when not
    even the shortest width has one.

    The extremes over every run of `span` entries serve every width from
    span to 2 span with one op per array, since the first and the last run
    of `span` entries cover the width (after Bender and Farach-Colton's
    sparse table). The span doubles as far as the shortest width allows
    (span <= shortest < 2 span), then on while twice the span is still
    stable, and the search bisects inside the last doubling.
    """
    if shortest > longest:
        return 0, None, (0, None)
    top, bot, span = hi, lo, 1

    def extremes(width: int) -> tuple[np.ndarray, np.ndarray]:
        shift = width - span
        return (np.maximum(top[:, :top.shape[1] - shift], top[:, shift:]),
                np.minimum(bot[:, :bot.shape[1] - shift], bot[:, shift:]))

    def stable(wide_top: np.ndarray, wide_bot: np.ndarray) -> np.ndarray:
        return ((wide_top[0] - wide_bot[0] <= eps_mu)
                & (wide_top[1] / wide_bot[1] <= 1.0 + eps_c_rel))

    while 2 * span <= shortest:
        top, bot = extremes(2 * span)
        span *= 2
    starts, below = stable(*extremes(shortest)), (0, None)
    if not starts.any():
        return 0, None, below
    found, too_long = shortest, longest + 1
    while too_long - found > 1:
        doubling = 2 * span < too_long
        width = 2 * span if doubling else (found + too_long) // 2
        wide = extremes(width)
        candidate = stable(*wide)
        if candidate.any():
            found, starts, below = width, candidate, (found, starts)
            if doubling:
                (top, bot), span = wide, width
        else:
            too_long = width
    return found, starts, below


def detect_noise_takeover(trace: IterationTrace) -> Optional[int]:
    """First iteration from which the lower bound rises for good.

    A candidate onset must show TAKEOVER_PERSISTENCE consecutive increases
    of R^2/G while the residual still decreases, grow by a factor of at
    least TAKEOVER_MIN_RISE over them, and never fall back below its onset
    level afterwards. The last condition separates noise takeover from the
    bounded oscillations of smoothness-violating problems, where the rise
    always reverts.
    """
    lb = trace.lower_bounds
    R = trace.residuals
    n = lb.size
    if n < TAKEOVER_PERSISTENCE + 1:
        return None
    finite = np.isfinite(lb)
    if not finite.all():
        stop = int(np.argmin(finite))
        lb = lb[:stop]
        R = R[:stop]
        n = stop
        if n < TAKEOVER_PERSISTENCE + 1:
            return None
    rising = (np.diff(lb) > 0.0) & (np.diff(R) < 0.0)
    # a run of rising steps from s0 holds candidates s0, s0 + P, ... as long
    # as P steps from each still lie inside it (P = TAKEOVER_PERSISTENCE)
    edges = np.diff(np.concatenate(([0], rising.view(np.int8), [0])))
    run_starts = np.flatnonzero(edges == 1)
    per_run = (np.flatnonzero(edges == -1) - run_starts) // TAKEOVER_PERSISTENCE
    first = np.cumsum(per_run) - per_run
    nth = np.arange(per_run.sum()) - np.repeat(first, per_run)
    candidates = np.repeat(run_starts, per_run) + TAKEOVER_PERSISTENCE * nth
    if not candidates.size:
        return None
    running_min = np.minimum.accumulate(lb[::-1])[::-1]
    onset = lb[candidates]
    onsets = candidates[(lb[candidates + TAKEOVER_PERSISTENCE] >= TAKEOVER_MIN_RISE * onset)
                        & (running_min[candidates] >= onset * (1.0 - 1e-12))]
    return int(onsets[0]) + 1 if onsets.size else None


def _rolling_slopes(x: np.ndarray, y: np.ndarray, window: int,
                    sums: np.ndarray) -> np.ndarray:
    """OLS slope of log y against log x over each trailing window; NaN where undefined.

    x and y hold the positive values of one chunk of at most SLOPE_CHUNK
    windows. Their logs less the first ones go into rows of ``sums``, of at
    least (4, x.size + 1) entries, where the running sums are accumulated:
    on long runs the per-step increments can sit ten orders of magnitude
    below the running totals, and the local offset (which leaves slopes
    unchanged) keeps the variance sums free of catastrophic cancellation.
    """
    cum = sums[:, :x.size + 1]
    cum[:, 0] = 0.0
    lx, ly = np.log(x, out=cum[0, 1:]), np.log(y, out=cum[1, 1:])
    lx -= lx[0]
    ly -= ly[0]
    np.multiply(lx, lx, out=cum[2, 1:])
    np.multiply(lx, ly, out=cum[3, 1:])
    np.cumsum(cum[:, 1:], axis=1, out=cum[:, 1:])
    sx, sy, sxx, sxy = cum[:, window:] - cum[:, :-window]
    # the slope (window sxy - sx sy) / (window sxx - sx^2), in place
    sxx *= window
    sxx -= sx * sx
    sxy *= window
    sy *= sx
    sxy -= sy
    with np.errstate(divide="ignore", invalid="ignore"):
        sxy /= sxx
    sxy[~(sxx > 0.0)] = np.nan
    return sxy


def detect_discretization_saturation(trace: IterationTrace) -> Optional[int]:
    """Onset of the well-posed regime: lower-bound slope locked near one.

    Computes the rolling slope of log(R^2/G) against log(R) over trailing
    windows of SATURATION_WINDOW iterations. If the final window sits inside
    SATURATION_BAND the run has saturated; the onset is the first window of
    the closing in-band stretch. Returns the iteration number, or None when
    the trailing slope is still at the ill-posed rate.

    The slopes are computed by chunks of SLOPE_CHUNK windows, each from its
    own offset (see :func:`_rolling_slopes`), and only as far back as the
    answer needs: from the last chunk towards the first, stopping at the
    first chunk that holds an out-of-band window. Each chunk takes the logs
    of its own slice of the trace only.
    """
    lb = trace.lower_bounds
    R = trace.residuals
    ok = np.isfinite(lb) & (lb > 0.0) & (R > 0.0)
    stop = int(np.argmin(ok)) if not ok.all() else ok.size
    if stop < SATURATION_WINDOW + 1:
        return None
    n_windows = stop - SATURATION_WINDOW + 1
    lo, hi = SATURATION_BAND
    sums = np.empty((4, min(SLOPE_CHUNK, n_windows) + SATURATION_WINDOW))
    for start in reversed(range(0, n_windows, SLOPE_CHUNK)):
        seg = slice(start, min(start + SLOPE_CHUNK, n_windows) + SATURATION_WINDOW - 1)
        slopes = _rolling_slopes(R[seg], lb[seg], SATURATION_WINDOW, sums)
        in_band = (slopes >= lo) & (slopes <= hi)
        if seg.stop == stop and not in_band[-1]:
            return None
        out = np.flatnonzero(~in_band)
        if out.size:
            # slopes[j] covers iterations j+1 .. j+window; report the window end
            return start + int(out[-1]) + 1 + SATURATION_WINDOW
    return SATURATION_WINDOW

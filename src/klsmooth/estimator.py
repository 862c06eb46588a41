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

VERDICT_STABLE = "stable"
VERDICT_UNSTABLE = "unstable-suspect-violation"
VERDICT_NOISE = "noise-truncated"


@dataclass(frozen=True)
class SourceConditionModel:
    """A power-law source condition and the exponents it induces.

    phi(t) = c * t^phi_exponent is the desingularizing function of the
    gradient inequality; rate_exponent = 2 mu / (2 mu + 1) is the optimal
    order of convergence in the noise level.
    """

    mu: float
    c: float
    gamma: float
    kappa: float
    phi_exponent: float
    rate_exponent: float


@dataclass(frozen=True)
class EstimateTrack:
    """Per-prefix regression outputs plus stability and noise diagnostics."""

    k_values: np.ndarray
    mu_k: np.ndarray
    c_k: np.ndarray
    stable_window: Optional[tuple[int, int]] = None
    mu_hat: Optional[float] = None
    c_hat: Optional[float] = None
    verdict: str = VERDICT_UNSTABLE
    noise_takeover_k: Optional[int] = None
    skipped_k: tuple = ()


def gamma_to_mu(gamma: float | np.ndarray) -> float | np.ndarray:
    """Invert gamma = (2 mu + 2) / (2 mu + 1), elementwise.

    gamma = 1 (unbounded smoothness) gives a non-finite mu; gamma >= 2 maps
    to mu <= 0 and is passed through (the collapse pattern of noisy runs
    must stay visible in the track). A scalar gamma gives a numpy float.
    """
    gamma = np.asarray(gamma, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (2.0 - gamma) / (2.0 * gamma - 2.0)


def mu_to_model(mu: float, c: float) -> SourceConditionModel:
    """Populate every exponent derived from (mu, c)."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    if c <= 0:
        raise ValueError("c must be positive")
    return SourceConditionModel(
        mu=mu, c=c,
        gamma=(2.0 * mu + 2.0) / (2.0 * mu + 1.0),
        kappa=-(mu + 1.0) / (2.0 * mu + 1.0),
        phi_exponent=mu / (2.0 * mu + 1.0),
        rate_exponent=2.0 * mu / (2.0 * mu + 1.0),
    )


def regress_prefix(trace: IterationTrace, k: int) -> tuple[float, float]:
    """Least-squares fit of log G_i = gamma log R_i + b over i = 1..k.

    Returns (gamma_hat, c_log_hat) with c_log_hat = -b, i.e. the log of the
    constant in G = R^gamma / c.
    """
    if k < 2:
        raise ValueError("need at least two iterations to regress")
    if k > len(trace):
        raise ValueError(f"trace has only {len(trace)} iterations")
    lr = np.log(trace.residuals[:k])
    lg = np.log(trace.gradient_norms[:k])
    gamma, b, degenerate = _ols(k, lr.sum(), (lr * lr).sum(), lg.sum(), (lr * lg).sum())
    if degenerate:
        raise ValueError("all residuals equal; regression is singular")
    return float(gamma), float(-b)


def _ols(k, s1, s2, sy, sxy):
    """Line fit y = gamma x + b from the sums over k points.

    s1 = sum x, s2 = sum x^2, sy = sum y, sxy = sum x y, each a scalar or an
    array of running sums. Returns (gamma, b, degenerate); degenerate marks
    fits whose x values (nearly) all coincide, where gamma and b mean nothing.
    """
    den = k * s2 - s1 * s1
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = (k * sxy - s1 * sy) / den
        b = (sy - gamma * s1) / k
    # relative test: exact ties cancel only to rounding in the running sums
    degenerate = ~np.isfinite(gamma) | (den <= 1e-13 * k * np.maximum(s2, 1e-30))
    return gamma, b, degenerate


def estimate_track(trace: IterationTrace, k_min: int = DEFAULT_K_MIN,
                   w_min: int = DEFAULT_W_MIN, eps_mu: float = DEFAULT_EPS_MU,
                   eps_c_rel: float = DEFAULT_EPS_C_REL) -> EstimateTrack:
    """Per-prefix estimates for k = k_min..K with stability/noise diagnostics.

    All prefixes are evaluated in one pass over running sums. Iterations at
    or past an exact-convergence zero (R or G equal to 0) are excluded;
    degenerate prefixes are skipped and listed in ``skipped_k``.
    """
    track = _prefix_fits(trace, k_min)
    window = detect_stable_window(track, w_min=w_min, eps_mu=eps_mu,
                                  eps_c_rel=eps_c_rel)
    takeover = detect_noise_takeover(trace)
    k_values, mu_k = track.k_values, track.mu_k

    mu_hat = c_hat = None
    if window is not None:
        k1, k2 = window
        mask = (k_values >= k1) & (k_values <= k2)
        mu_hat = float(np.median(mu_k[mask]))
        c_hat = float(np.median(track.c_k[mask]))

    verdict = VERDICT_UNSTABLE
    if takeover is not None and _collapses_after(k_values, mu_k, takeover):
        verdict = VERDICT_NOISE
    elif window is not None:
        frac = (window[1] - window[0] + 1) / len(k_values)
        if frac >= STABLE_WINDOW_FRACTION:
            verdict = VERDICT_STABLE

    return replace(track, stable_window=window, mu_hat=mu_hat, c_hat=c_hat,
                   verdict=verdict, noise_takeover_k=takeover)


def _prefix_fits(trace: IterationTrace, k_min: int) -> EstimateTrack:
    """The regression columns of :func:`estimate_track`, without diagnostics.

    A function of its own so that the running sums are freed before the
    window search allocates its own arrays.
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

    lr = np.log(R[:K_use])
    lg = np.log(G[:K_use])
    k = np.arange(1, K_use + 1, dtype=float)
    s1 = np.cumsum(lr)
    s2 = np.cumsum(lr * lr)
    sy = np.cumsum(lg)
    sxy = np.cumsum(lr * lg)
    gamma, b, degenerate = _ols(k, s1, s2, sy, sxy)
    mu = gamma_to_mu(gamma)
    c = np.exp(-b)

    sel = np.arange(k_min - 1, K_use)
    degenerate = degenerate[sel]
    k_values = sel + 1
    return EstimateTrack(k_values=k_values,
                         mu_k=np.where(degenerate, np.nan, mu[sel]),
                         c_k=np.where(degenerate, np.nan, c[sel]),
                         skipped_k=tuple(int(x) for x in k_values[degenerate]))


def _collapses_after(k_values: np.ndarray, mu_k: np.ndarray, k_star: int) -> bool:
    """True when the estimates eventually drop below zero past k_star."""
    after = mu_k[k_values > k_star]
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
    Of several longest windows the earliest is returned. Absence is a value,
    not an error.

    Every sub-window of a stable window is stable, so whether a stable
    window of a given length exists is monotone in the length: a binary
    search over lengths finds the longest, testing all starts at once. A
    coarse search comes first, over the extremes of aligned blocks of
    WINDOW_STRIDE entries: L consecutive blocks are stable exactly when the
    L * WINDOW_STRIDE entries they cover are, since max and min are exact.
    With L the longest such run, every window of (L + 2) * WINDOW_STRIDE - 1
    entries covers L + 1 whole blocks, so the fine search needs only the
    lengths from L * WINDOW_STRIDE to (L + 2) * WINDOW_STRIDE - 2.
    """
    if not (eps_mu >= 0.0 and eps_c_rel >= 0.0):
        raise ValueError("eps_mu and eps_c_rel must be non-negative")
    n = track.mu_k.size
    shortest = max(w_min, 1)
    if shortest > n:
        return None
    eligible = (np.isfinite(track.mu_k) & np.isfinite(track.c_k)
                & (track.mu_k > 0.0) & (track.c_k > 0.0))
    # placeholders keep the window extremes finite; the ineligible count
    # rules out every window that covers one
    mu = np.where(eligible, track.mu_k, 0.0)
    c = np.where(eligible, track.c_k, 1.0)
    bad = ~eligible

    n_blocks = n // WINDOW_STRIDE

    def blocks(a, op):
        return op.reduce(a[:n_blocks * WINDOW_STRIDE].reshape(n_blocks, WINDOW_STRIDE), axis=1)

    runs, _ = _longest_stable(blocks(mu, np.maximum), blocks(mu, np.minimum),
                              blocks(c, np.maximum), blocks(c, np.minimum),
                              blocks(bad, np.logical_or), eps_mu, eps_c_rel, 1, n_blocks)
    found, starts = _longest_stable(mu, mu, c, c, bad, eps_mu, eps_c_rel,
                                    max(shortest, runs * WINDOW_STRIDE),
                                    min(n, (runs + 2) * WINDOW_STRIDE - 2))
    if starts is None:
        return None
    first = int(np.argmax(starts))
    return int(track.k_values[first]), int(track.k_values[first + found - 1])


def _longest_stable(mu_hi, mu_lo, c_hi, c_lo, bad, eps_mu: float, eps_c_rel: float,
                    shortest: int, longest: int) -> tuple[int, Optional[np.ndarray]]:
    """Longest stable run of entries, by binary search over its width.

    Entry i carries upper and lower bounds of mu_k and c_k (the values
    themselves, or the extremes of a block) and whether it is ineligible.
    Searches the widths from shortest to longest and returns the largest
    with a stable run and, for every start, whether the run from there is
    stable; (0, None) when not even the shortest width has one.

    The extremes over h = ceil(longest / 2) entries are built once: every
    width from h to 2h takes one op per array from them, which serves all
    widths of a narrow search (the fine one); narrower widths halve their
    own way down.
    """
    if shortest > longest:
        return 0, None
    n_bad = np.concatenate(([0], np.cumsum(bad)))
    base = (longest + 1) // 2
    arrays = ((mu_hi, np.maximum), (mu_lo, np.minimum), (c_hi, np.maximum), (c_lo, np.minimum))
    halves = [_window_extreme(a, base, op) for a, op in arrays]

    def extremes(width: int) -> list[np.ndarray]:
        if width < base:
            return [_window_extreme(a, width, op) for a, op in arrays]
        n = mu_hi.size
        return [op(m[:n - width + 1], m[width - base:n - base + 1])
                for m, (_, op) in zip(halves, arrays)]

    def stable_starts(width: int) -> np.ndarray:
        ok = n_bad[width:] == n_bad[:-width]
        mu_max, mu_min, c_max, c_min = extremes(width)
        with np.errstate(over="ignore"):
            ok &= ~(mu_max - mu_min > eps_mu)
            ok &= ~(c_max / c_min > 1.0 + eps_c_rel)
        return ok

    starts = stable_starts(shortest)
    if not starts.any():
        return 0, None
    found, too_long = shortest, longest + 1
    while too_long - found > 1:
        width = (found + too_long) // 2
        candidate = stable_starts(width)
        if candidate.any():
            found, starts = width, candidate
        else:
            too_long = width
    return found, starts


def _window_extreme(a: np.ndarray, width: int, op) -> np.ndarray:
    """op (np.maximum or np.minimum) of `a` over every run of `width` entries.

    A run of width w is covered by two runs of h = ceil(w/2) entries, the
    first and the last, so the extremes over width w come from those over
    width h by one elementwise op; log2(w) ops in all. Returns an array of
    length a.size - width + 1.
    """
    if width == 1:
        return a
    n = a.size
    half = (width + 1) // 2
    m = _window_extreme(a, half, op)
    return op(m[:n - width + 1], m[width - half:n - half + 1])


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
    for start in candidates.tolist():
        if (lb[start + TAKEOVER_PERSISTENCE] >= TAKEOVER_MIN_RISE * lb[start]
                and running_min[start] >= lb[start] * (1.0 - 1e-12)):
            return start + 1
    return None


def _rolling_slopes(x: np.ndarray, y: np.ndarray, window: int) -> np.ndarray:
    """OLS slope of y against x over each trailing window; NaN where undefined.

    Computed in chunks of SLOPE_CHUNK windows, with a local offset subtracted
    from both series: on long runs the per-step increments can sit ten orders
    of magnitude below the running totals, and the shift (which leaves slopes
    unchanged) keeps the variance sums free of catastrophic cancellation.
    """
    n = x.size
    if n < window:
        return np.full(0, np.nan)
    out = np.empty(n - window + 1)
    c = np.concatenate
    for start in range(0, n - window + 1, SLOPE_CHUNK):
        stop = min(start + SLOPE_CHUNK, n - window + 1)
        seg = slice(start, stop + window - 1)
        xs = x[seg] - x[start]
        ys = y[seg] - y[start]
        cx = c(([0.0], np.cumsum(xs)))
        cy = c(([0.0], np.cumsum(ys)))
        cxx = c(([0.0], np.cumsum(xs * xs)))
        cxy = c(([0.0], np.cumsum(xs * ys)))
        sx = cx[window:] - cx[:-window]
        sy = cy[window:] - cy[:-window]
        sxx = cxx[window:] - cxx[:-window]
        sxy = cxy[window:] - cxy[:-window]
        den = window * sxx - sx * sx
        with np.errstate(divide="ignore", invalid="ignore"):
            out[start:stop] = np.where(den > 0.0,
                                       (window * sxy - sx * sy) / den, np.nan)
    return out


def detect_discretization_saturation(trace: IterationTrace) -> Optional[int]:
    """Onset of the well-posed regime: lower-bound slope locked near one.

    Computes the rolling slope of log(R^2/G) against log(R) over trailing
    windows of SATURATION_WINDOW iterations. If the final window sits inside
    SATURATION_BAND the run has saturated; the onset is the first window of
    the closing in-band stretch. Returns the iteration number, or None when
    the trailing slope is still at the ill-posed rate.
    """
    lb = trace.lower_bounds
    R = trace.residuals
    ok = np.isfinite(lb) & (lb > 0.0) & (R > 0.0)
    stop = int(np.argmin(ok)) if not ok.all() else ok.size
    if stop < SATURATION_WINDOW + 1:
        return None
    x = np.log(R[:stop])
    y = np.log(lb[:stop])
    slopes = _rolling_slopes(x, y, SATURATION_WINDOW)
    lo, hi = SATURATION_BAND
    in_band = np.isfinite(slopes) & (slopes >= lo) & (slopes <= hi)
    if in_band.size == 0 or not in_band[-1]:
        return None
    out = np.nonzero(~in_band)[0]
    first = 0 if out.size == 0 else int(out[-1]) + 1
    # slopes[j] covers iterations j+1 .. j+window; report the window end
    return first + SATURATION_WINDOW

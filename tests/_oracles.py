"""Independent closed-form references used to check the iterative code paths.

Everything here is computed directly from per-mode formulas, never by
running the iteration under test. The file readers at the end are the ones
the package used before every entry line went through one np.loadtxt call,
and coarse_to_fine_stable_window is its window search from before the fine
search was restricted to where a window can lie, or read the track by
chunks. prefix_fits_oracle and saturation_oracle are the estimator's prefix
fits and saturation detector from before they worked in place and by
chunks: every sum, fit and slope allocated anew over the whole trace, and
the detector logged and sloped the whole trace from its first window on.
regress_prefix, the fit of one prefix, and mu_to_model, the exponents of a
source condition written out one by one, have no caller in the package.
sine_basis_oracle is deriv2's DST-II basis as the package built it before
its sine basis was applied by FFT: the n x n array, gathered from one table.
deriv2_kernel is the Green's function the package discretized into deriv2's
matrix before deriv2 became its singular system alone; dense_deriv2 is that
matrix under the built-in problem's data, as an ingested .mtx holds it.
"""

import math
import tempfile
import warnings
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from klsmooth import estimator
from klsmooth.estimator import (DEFAULT_EPS_C_REL, DEFAULT_EPS_MU, DEFAULT_W_MIN,
                                SATURATION_BAND, SATURATION_WINDOW, WINDOW_STRIDE, EstimateTrack,
                                _ols, gamma_to_mu)
from klsmooth.landweber import IterationTrace, diagonal_trace, write_trace_csv
from klsmooth.operators import (SV_FLOOR, SpectralDecomposition, _utf8_text, dense_operator,
                                kernel_operator, svd)
from klsmooth.problems import ProblemSpec, make_deriv2


def diagonal_landweber_oracle(sigmas, x_true, n_iters, step=None, data=None):
    """Exact per-iteration (R, G, err) for diagonal Landweber from x0 = 0.

    Each mode evolves independently: with q_i = 1 - step * sigma_i^2 the
    residual component after k updates is data_i * q_i^k, hence

        R_k^2 = sum_i data_i^2 q_i^(2k)
        G_k^2 = sum_i sigma_i^2 data_i^2 q_i^(2k)
        err_k^2 = sum_i (data_i / sigma_i * (1 - q_i^k) - x_i)^2
    """
    s = np.asarray(sigmas, dtype=float)
    x = np.asarray(x_true, dtype=float)
    if step is None:
        step = 1.0 / s.max() ** 2
    y = s * x if data is None else np.asarray(data, dtype=float)
    q = 1.0 - step * s * s
    R = np.empty(n_iters)
    G = np.empty(n_iters)
    E = np.empty(n_iters)
    for k in range(1, n_iters + 1):
        fk = q ** k
        r = y * fk
        R[k - 1] = np.linalg.norm(r)
        G[k - 1] = np.linalg.norm(s * r)
        E[k - 1] = np.linalg.norm((y / s) * (1.0 - fk) - x)
    return R, G, E


def known_svd_problem(seed, m, n, rank, noise=0.0):
    """A dense m x n problem A = U diag(sigma) V* of the given rank, and its data.

    sigma_1 = 1, sigma_rank = 0.01 and the others log-uniform in [0.01, 0.5]:
    the slowest mode stays far from converged over a few thousand steps, and
    the gap below sigma_1 lets power iteration find ||A|| in a few dozen.
    x_true has a coefficient of size 0.5-1.5 and random sign on every right
    singular vector, its null-space part included when rank < n. The data
    are A x_true plus, with noise > 0, a random vector of that relative norm
    in R^m, which has a part outside range(A) when rank < m. Returns the
    ProblemSpec and the data.
    """
    rng = np.random.default_rng(seed)
    inner = np.sort(10.0 ** rng.uniform(-2, np.log10(0.5), rank - 2))[::-1]
    sigmas = np.concatenate(([1.0], inner, [0.01]))
    u = np.linalg.qr(rng.standard_normal((m, rank)))[0]
    v = np.linalg.qr(rng.standard_normal((n, n)))[0]
    x_true = v @ (rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.5, n))
    a = (u * sigmas) @ v[:, :rank].T
    y = a @ x_true
    data = y
    if noise > 0:
        e = rng.standard_normal(m)
        data = y + noise * np.linalg.norm(y) * e / np.linalg.norm(e)
    return ProblemSpec(operator=dense_operator(a), y_clean=y, x_true=x_true,
                       label="known-svd"), data


def general_svd(matrix):
    """The singular system of a matrix by np.linalg.svd, whatever its
    symmetry, truncated at SV_FLOOR sigma_1 as svd() truncates."""
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    r = int((s >= SV_FLOOR * s[0]).sum())
    return SpectralDecomposition(sigmas=s[:r], u=u[:, :r], v=vt[:r].T, method="svd")


def with_system(p, sd=None):
    """p with the singular system sd, by default svd(p.operator), attached
    to its operator, as a run attaches the SVD it takes."""
    return replace(p, operator=replace(p.operator,
                                       singular_system=svd(p.operator) if sd is None else sd))


def system_trace(sd, data, beta, max_iters, x_true):
    """diagonal_trace at the step beta from the singular system sd, with data
    and x_true split on its vectors as landweber_run splits them."""
    coeffs, data_out = sd.split(data)
    x_coeffs, x_out = sd.split(x_true, right=True)
    return diagonal_trace(sd.sigmas, coeffs, beta, max_iters, x_coeffs,
                          outside=(data_out, x_out))


def right_vectors(sd):
    """The right singular vectors v_i of a computed decomposition as an
    n x r array: the stored v, or sign(lam_i) u_i for a symmetric one."""
    return sd.v if sd.signs is None else sd.u * sd.signs


def sine_basis_oracle(n):
    """The orthonormal DST-II basis of order n as an n x n array: column
    k = 1..n is sqrt(2/n) sin(pi k (2i + 1) / (2n)), the last scaled by
    sqrt(1/2). Each sine is read from a table of sin(pi j / (2n)), j < 4n,
    at j = k (2i + 1) mod 4n; a float argument leaves orthogonality at 1e-13."""
    table = np.sin(np.arange(4 * n) * (np.pi / (2 * n)))
    table *= np.sqrt(2.0 / n)
    index = np.multiply.outer(np.arange(1, 2 * n, 2), np.arange(1, n + 1))
    index %= 4 * n
    u = np.take(table, index)
    u[:, -1] *= np.sqrt(0.5)
    return u


def deriv2_kernel(s, t):
    """Green's function of the second derivative with zero boundary values,
    min(s,t) (max(s,t) - 1): the products s (t - 1) for s <= t and
    t (s - 1) otherwise, evaluated into one array (0-d for scalars) by
    masked in-place products."""
    k = np.asarray(np.maximum(s, t))
    k -= 1.0
    np.multiply(k, s, out=k, where=s <= t)
    np.multiply(k, t, out=k, where=s > t)
    return k


def dense_deriv2(n):
    """make_deriv2(n) on its n x n matrix, kernel_operator(deriv2_kernel, n),
    with no singular system: the problem as an ingested .mtx of that matrix
    and its data gives it."""
    return replace(make_deriv2(n), operator=kernel_operator(deriv2_kernel, n))


def known_symmetric_problem(seed, n, rank, noise=0.0, centro=False):
    """A symmetric indefinite n x n problem A = Q diag(lam) Q* of the given
    rank, symmetrized bit for bit, and its data.

    |lam| follows known_svd_problem's sigmas (1, log-uniform in [0.01, 0.5],
    0.01), each with a random sign, and lam = 0 past the rank. x_true has a
    coefficient of size 0.5-1.5 and random sign on every eigenvector, its
    null-space part included when rank < n. The data are A x_true plus, with
    noise > 0, a random vector of that relative norm. With centro=True (n
    even) the eigenvectors are [w; J w] / sqrt(2) and [z; -J z] / sqrt(2)
    for orthonormal w and z of order n/2, J the exchange matrix, and A is
    also centrosymmetric bit for bit. Returns the ProblemSpec and the data.
    """
    rng = np.random.default_rng(seed)
    inner = np.sort(10.0 ** rng.uniform(-2, np.log10(0.5), rank - 2))[::-1]
    lams = np.concatenate(([1.0], inner, [0.01], np.zeros(n - rank)))
    lams *= rng.choice([-1.0, 1.0], n)
    if centro:
        w, z = (np.linalg.qr(rng.standard_normal((n // 2, n // 2)))[0] for _ in range(2))
        q = np.sqrt(0.5) * np.block([[w, z], [w[::-1], -z[::-1]]])
    else:
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a = (q * lams) @ q.T
    if centro:
        a = 0.5 * (a + a[::-1, ::-1])   # equal to its mirror J A J entry by entry
    a = 0.5 * (a + a.T)   # a + a.T is symmetric entry by entry, and keeps the mirror
    x_true = q @ (rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.5, n))
    y = a @ x_true
    data = y
    if noise > 0:
        e = rng.standard_normal(n)
        data = y + noise * np.linalg.norm(y) * e / np.linalg.norm(e)
    return ProblemSpec(operator=dense_operator(a), y_clean=y, x_true=x_true,
                       label="known-symmetric"), data


def planted_symmetric_problem(seed, n, abs_lams):
    """A symmetric indefinite n x n problem A = Q diag(lam) Q*, symmetrized
    bit for bit, with |lam| = abs_lams (0 past their number), each with a
    random sign.

    x_true = Q (|lam| w) with w of size 0.5-1.5 and random sign satisfies
    the source condition with mu = 1/2, and the data are A x_true.
    """
    rng = np.random.default_rng(seed)
    abs_lams = np.concatenate((abs_lams, np.zeros(n - len(abs_lams))))
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a = (q * (abs_lams * rng.choice([-1.0, 1.0], n))) @ q.T
    a = 0.5 * (a + a.T)   # a + a.T is symmetric entry by entry
    x_true = q @ (abs_lams * rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.5, n))
    return ProblemSpec(operator=dense_operator(a), y_clean=a @ x_true, x_true=x_true,
                       label="planted-symmetric")


def power_law_verif_terms(eta, beta, mu, n):
    """Summands |<y,u_i>|^2 / sigma_i^(2+4 mu) = i^-(2 eta - 4 beta mu)."""
    i = np.arange(1, n + 1, dtype=float)
    return i ** (-(2.0 * eta - 4.0 * beta * mu))


def brute_force_least_squares(xs, ys):
    """Two-parameter line fit via the explicit normal-equation inverse."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    a = np.column_stack([xs, np.ones_like(xs)])
    ata = a.T @ a
    slope, intercept = np.linalg.solve(ata, a.T @ ys)
    return float(slope), float(intercept)


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

    The single-prefix form of the running-sum fit estimate_track makes for
    every k at once, by the same line fit.

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


def stable_window_oracle(track, w_min, eps_mu, eps_c_rel):
    """Longest stable window by one left-to-right pass with monotone deques.

    For every right end the deques hold the window's running max and min of
    mu_k and c_k; the left end advances until the window is stable again.
    The first window of the longest length wins.
    """
    mu = track.mu_k
    c = track.c_k
    kv = track.k_values
    n = mu.size
    eligible = np.isfinite(mu) & np.isfinite(c) & (mu > 0.0) & (c > 0.0)

    best = None
    left = 0
    mu_max, mu_min, c_max, c_min = deque(), deque(), deque(), deque()
    for right in range(n):
        if not eligible[right]:
            left = right + 1
            mu_max.clear(); mu_min.clear(); c_max.clear(); c_min.clear()
            continue
        while mu_max and mu[mu_max[-1]] <= mu[right]:
            mu_max.pop()
        mu_max.append(right)
        while mu_min and mu[mu_min[-1]] >= mu[right]:
            mu_min.pop()
        mu_min.append(right)
        while c_max and c[c_max[-1]] <= c[right]:
            c_max.pop()
        c_max.append(right)
        while c_min and c[c_min[-1]] >= c[right]:
            c_min.pop()
        c_min.append(right)
        while (mu[mu_max[0]] - mu[mu_min[0]] > eps_mu
               or c[c_max[0]] / c[c_min[0]] > 1.0 + eps_c_rel):
            if mu_max[0] == left:
                mu_max.popleft()
            if mu_min[0] == left:
                mu_min.popleft()
            if c_max[0] == left:
                c_max.popleft()
            if c_min[0] == left:
                c_min.popleft()
            left += 1
        if right - left + 1 >= w_min:
            if best is None or (right - left) > (best[1] - best[0]):
                best = (left, right)
    if best is None:
        return None
    return int(kv[best[0]]), int(kv[best[1]])


def brute_force_stable_window(track, w_min, eps_mu, eps_c_rel):
    """Longest stable window by trying every start and growing it to the right.

    O(n^2): from each start the running extremes of mu_k and c_k extend one
    entry at a time until the window breaks. A longer window replaces the
    best only when strictly longer, so the earliest of the longest wins.
    """
    mu = track.mu_k
    c = track.c_k
    kv = track.k_values
    n = mu.size
    eligible = np.isfinite(mu) & np.isfinite(c) & (mu > 0.0) & (c > 0.0)
    best = None
    for left in range(n):
        mu_hi = mu_lo = c_hi = c_lo = None
        for right in range(left, n):
            if not eligible[right]:
                break
            mu_hi = mu[right] if mu_hi is None else max(mu_hi, mu[right])
            mu_lo = mu[right] if mu_lo is None else min(mu_lo, mu[right])
            c_hi = c[right] if c_hi is None else max(c_hi, c[right])
            c_lo = c[right] if c_lo is None else min(c_lo, c[right])
            if mu_hi - mu_lo > eps_mu or c_hi / c_lo > 1.0 + eps_c_rel:
                break
            length = right - left + 1
            if length >= max(w_min, 1) and (best is None or length > best[1] - best[0] + 1):
                best = (left, right)
    if best is None:
        return None
    return int(kv[best[0]]), int(kv[best[1]])


def coarse_to_fine_stable_window(track: EstimateTrack, w_min: int = DEFAULT_W_MIN,
                                 eps_mu: float = DEFAULT_EPS_MU,
                                 eps_c_rel: float = DEFAULT_EPS_C_REL
                                 ) -> Optional[tuple[int, int]]:
    """Longest contiguous k-range where mu_k and c_k are simultaneously stable.

    klsmooth's detect_stable_window before its fine search was restricted to
    the neighbourhoods of stable block runs: the fine search here runs over
    all n entries.

    Stability means max - min of mu_k <= eps_mu and max / min of c_k <=
    1 + eps_c_rel over the window, with at least w_min entries. Entries with
    mu_k <= 0 (gamma outside (1,2)) or non-finite values break contiguity.
    Of several longest windows the earliest is returned. Absence is a value,
    not an error.

    An ineligible entry becomes NaN in both rows of one (2, n) array of
    mu_k and c_k: every max and min over a window that covers it is NaN,
    and both stability tests fail on NaN. Every sub-window of a stable
    window is stable, so whether a stable window of a given length exists
    is monotone in the length (see :func:`_longest_stable`). A coarse
    search comes first, over the extremes of aligned blocks of
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
    values = np.array((track.mu_k, track.c_k), dtype=float)
    values[:, ~((values > 0.0) & (values < np.inf)).all(axis=0)] = np.nan

    n_blocks = n // WINDOW_STRIDE
    blocks = values[:, :n_blocks * WINDOW_STRIDE].reshape(2, n_blocks, WINDOW_STRIDE)
    runs, _ = _longest_stable(blocks.max(axis=2), blocks.min(axis=2),
                              eps_mu, eps_c_rel, 1, n_blocks)
    found, starts = _longest_stable(values, values, eps_mu, eps_c_rel,
                                    max(shortest, runs * WINDOW_STRIDE),
                                    min(n, (runs + 2) * WINDOW_STRIDE - 2))
    if starts is None:
        return None
    first = int(np.argmax(starts))
    return int(track.k_values[first]), int(track.k_values[first + found - 1])


def stable_block_groups(track: EstimateTrack, eps_mu: float = DEFAULT_EPS_MU,
                        eps_c_rel: float = DEFAULT_EPS_C_REL) -> int:
    """How many groups the stable w-runs of blocks form in detect_stable_window.

    w is the width below the longest stable run of blocks that its coarse
    search last found stable; runs that start over w + 1 blocks apart leave
    a gap between their neighbourhoods. Two groups or more is the case where
    the fine search's stretch holds entries of no neighbourhood. 0 when no
    two blocks in a row are stable, and the fine search covers the track.
    """
    values = np.array((track.mu_k, track.c_k), dtype=float)
    values[:, ~((values > 0.0) & (values < np.inf)).all(axis=0)] = np.nan
    n_blocks = values.shape[1] // WINDOW_STRIDE
    blocks = values[:, :n_blocks * WINDOW_STRIDE].reshape(2, n_blocks, WINDOW_STRIDE)
    runs, _, (w, shorter) = estimator._longest_stable(blocks.max(axis=2), blocks.min(axis=2),
                                                      eps_mu, eps_c_rel, 1, n_blocks)
    if runs < 2:
        return 0
    return 1 + int(np.count_nonzero(np.diff(np.flatnonzero(shorter)) > w + 1))


def _longest_stable(hi: np.ndarray, lo: np.ndarray, eps_mu: float, eps_c_rel: float,
                    shortest: int, longest: int) -> tuple[int, Optional[np.ndarray]]:
    """Longest stable run of entries, by doubling and then bisecting its width.

    Column i of hi and lo holds upper and lower bounds of (mu_k, c_k) at
    entry i (the values themselves, or the extremes of a block), NaN where
    the entry is ineligible. Searches the widths from shortest to longest
    and returns the largest with a stable run and, for every start, whether
    the run from there is stable; (0, None) when not even the shortest
    width has one.

    The extremes over every run of `span` entries serve every width from
    span to 2 span with one op per array, since the first and the last run
    of `span` entries cover the width (after Bender and Farach-Colton's
    sparse table). The span doubles as far as the shortest width allows
    (span <= shortest < 2 span), then on while twice the span is still
    stable, and the search bisects inside the last doubling.
    """
    if shortest > longest:
        return 0, None
    top, bot, span = hi, lo, 1

    def extremes(width: int) -> tuple[np.ndarray, np.ndarray]:
        shift = width - span
        return (np.maximum(top[:, :top.shape[1] - shift], top[:, shift:]),
                np.minimum(bot[:, :bot.shape[1] - shift], bot[:, shift:]))

    def stable(wide_top: np.ndarray, wide_bot: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return ((wide_top[0] - wide_bot[0] <= eps_mu)
                    & (wide_top[1] / wide_bot[1] <= 1.0 + eps_c_rel))

    while 2 * span <= shortest:
        top, bot = extremes(2 * span)
        span *= 2
    starts = stable(*extremes(shortest))
    if not starts.any():
        return 0, None
    found, too_long = shortest, longest + 1
    while too_long - found > 1:
        doubling = 2 * span < too_long
        width = 2 * span if doubling else (found + too_long) // 2
        wide = extremes(width)
        candidate = stable(*wide)
        if candidate.any():
            found, starts = width, candidate
            if doubling:
                (top, bot), span = wide, width
        else:
            too_long = width
    return found, starts


def noise_takeover_oracle(trace, persistence=10, min_rise=1.001):
    """First sustained rise of R^2/G, by a step-by-step scan of the trace.

    Counts consecutive iterations where the lower bound rises while the
    residual falls; every time the count reaches `persistence` the run's
    start is a candidate and the count restarts. The first candidate that
    rises by `min_rise` over the run and never falls back below its start
    afterwards is the onset (1-based). Non-finite lower bounds end the trace.
    """
    lb = np.asarray(trace.lower_bounds, dtype=float)
    R = np.asarray(trace.residuals, dtype=float)
    finite = np.isfinite(lb)
    if not finite.all():
        stop = int(np.argmin(finite))
        lb, R = lb[:stop], R[:stop]
    run = 0
    for j in range(lb.size - 1):
        run = run + 1 if (lb[j + 1] > lb[j] and R[j + 1] < R[j]) else 0
        if run == persistence:
            start = j - persistence + 1
            run = 0
            if (lb[start + persistence] >= min_rise * lb[start]
                    and lb[start:].min() >= lb[start] * (1.0 - 1e-12)):
                return start + 1
    return None


def _ols_allocating(k, s1, s2, sy, sxy):
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


def prefix_fits_oracle(trace: IterationTrace, k_min: int) -> EstimateTrack:
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
    gamma, b, degenerate = _ols_allocating(k, s1, s2, sy, sxy)
    mu = gamma_to_mu(gamma)
    c = np.exp(-b)

    degenerate = degenerate[k_min - 1:]
    k_values = np.arange(k_min, K_use + 1)
    return EstimateTrack(k_min=k_min,
                         mu_k=np.where(degenerate, np.nan, mu[k_min - 1:]),
                         c_k=np.where(degenerate, np.nan, c[k_min - 1:]),
                         skipped_k=tuple(int(x) for x in k_values[degenerate]))


def rolling_slopes_oracle(x: np.ndarray, y: np.ndarray, window: int) -> np.ndarray:
    """OLS slope of y against x over each trailing window; NaN where undefined.

    Computed in chunks of SLOPE_CHUNK windows, with a local offset subtracted
    from both series: on long runs the per-step increments can sit ten orders
    of magnitude below the running totals, and the shift (which leaves slopes
    unchanged) keeps the variance sums free of catastrophic cancellation.
    SLOPE_CHUNK is read from klsmooth.estimator at each call, so that a test
    that changes it there chunks both detectors alike.
    """
    n = x.size
    if n < window:
        return np.full(0, np.nan)
    out = np.empty(n - window + 1)
    c = np.concatenate
    for start in range(0, n - window + 1, estimator.SLOPE_CHUNK):
        stop = min(start + estimator.SLOPE_CHUNK, n - window + 1)
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


def saturation_oracle(trace: IterationTrace) -> Optional[int]:
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
    slopes = rolling_slopes_oracle(x, y, SATURATION_WINDOW)
    lo, hi = SATURATION_BAND
    in_band = np.isfinite(slopes) & (slopes >= lo) & (slopes <= hi)
    if in_band.size == 0 or not in_band[-1]:
        return None
    out = np.nonzero(~in_band)[0]
    first = 0 if out.size == 0 else int(out[-1]) + 1
    # slopes[j] covers iterations j+1 .. j+window; report the window end
    return first + SATURATION_WINDOW


def saturating_trace(seed: int, n: int, kink: int, early_slope: float, noise: float,
                     spikes=(), breaks=(), flat_start: int = 0) -> IterationTrace:
    """A trace whose lower bound R^2/G turns from early_slope to slope one in log R.

    log R falls by random steps from 0 or 0.7, by about 25 in all on
    traces of over 1,000 entries, except over its first flat_start entries,
    which stay equal (degenerate prefix fits). log(R^2/G) follows
    log R with slope early_slope before entry `kink` and with slope one from
    there, plus Gaussian noise of `noise` in the log. Each entry listed in
    spikes has its lower bound raised by a factor e^5, which takes the
    window that starts there out of SATURATION_BAND. breaks lists (entry,
    kind) pairs: a lower bound set to NaN, 0 or inf ("nan", "zero", "inf"),
    or R or G set to 0 ("r0", "g0"), which also makes the lower bound 0 or
    NaN. G is R^2 over the lower bound before the breaks.
    """
    rng = np.random.default_rng(seed)
    steps = rng.uniform(1e-3, 0.05, n) * min(1.0, 1000 / max(n, 1))
    steps[:flat_start] = 0.0
    log_r = rng.choice([0.0, 0.7]) - np.cumsum(steps)
    log_lb = np.cumsum(np.where(np.arange(n) < kink, early_slope, 1.0) * -steps)
    log_lb += noise * rng.standard_normal(n)
    log_lb[np.asarray(spikes, dtype=int)] += 5.0
    R, lb = np.exp(log_r), np.exp(log_lb)
    G = R * R / lb
    for i, kind in breaks:
        if kind == "r0":
            R[i] = lb[i] = 0.0
        elif kind == "g0":
            G[i], lb[i] = 0.0, np.nan
        else:
            lb[i] = {"nan": np.nan, "zero": 0.0, "inf": np.inf}[kind]
    return IterationTrace(residuals=R, gradient_norms=G, lower_bounds=lb)


def _by_iteration(n: int, k_values: np.ndarray, values: np.ndarray) -> np.ndarray:
    """values[j] placed at row k_values[j] - 1 of n rows, NaN elsewhere."""
    out = np.full(n, np.nan)
    rows = np.asarray(k_values) - 1
    keep = (rows >= 0) & (rows < n)
    out[rows[keep]] = np.asarray(values, dtype=float)[keep]
    return out


def trace_csv_by_column(trace, track=None, upper_bounds=None):
    """write_trace_csv's table written one column at a time: each value by
    f"{x:.17g}", each non-finite one blanked by its index, the track's
    entries placed at its k_values, rows joined by commas."""
    n = len(trace)
    mu_col = c_col = None
    if track is not None:
        mu_col = _by_iteration(n, track.k_values, track.mu_k)
        c_col = _by_iteration(n, track.k_values, track.c_k)
    header = ["k", "residual", "gradient_norm", "lower_bound", "error", "mu_k", "c_k"]
    columns = [trace.residuals, trace.gradient_norms, trace.lower_bounds, trace.errors,
               mu_col, c_col]
    if upper_bounds is not None:
        header.append("upper_bound")
        columns.append(upper_bounds)
    cells = [[str(k) for k in trace.k_values.tolist()]]
    for col in columns:
        if col is None:
            cells.append(("",) * n)
            continue
        col = np.asarray(col, dtype=float)
        text = [f"{x:.17g}" for x in col.tolist()]
        for i in np.flatnonzero(~np.isfinite(col)).tolist():
            text[i] = ""
        cells.append(text)
    rows = map(",".join, zip(*cells))
    return ",".join(header) + "\n" + "".join(row + "\n" for row in rows)


def written_trace_csv(trace, track=None, upper_bounds=None) -> str:
    """The text write_trace_csv writes for the trace, track and upper bounds."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace_csv(path, trace, track, upper_bounds)
        return path.read_text()


@_utf8_text
def matrix_market_oracle(path) -> np.ndarray:
    """read_matrix_market as it read files before its entries went through one
    np.loadtxt call: np.loadtxt, then float() per line for array entries, and
    coordinate entries split in Python. Kept as the readers' oracle.

    Read a real matrix in MatrixMarket array or coordinate format.

    An array entry line holds one value; a coordinate entry line holds
    ``i j value``, or just ``i j`` under the ``pattern`` field. Array
    entries are converted by one np.loadtxt call, which reads the file in C;
    when it fails or finds other than m n values, float() converts each
    entry line in turn. Coordinate entry lines are converted at once; when
    that fails, a pass over them finds the first bad one. Errors report the
    bad line's 1-based number, as do bytes that are not UTF-8.
    """
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        # the size line: the first after the header neither blank nor a comment
        for size_at, line in enumerate(fh, start=2):
            if (size_line := line.strip()) and size_line[0] != "%":
                break
        else:
            size_line = ""
        if not first:
            raise ValueError(f"{path}: empty file")
        header = first.split()
        if len(header) < 4 or header[0] != "%%MatrixMarket" or header[1] != "matrix":
            raise ValueError(f"{path}: line 1: not a MatrixMarket matrix header")
        fmt = header[2].lower()
        if fmt not in ("array", "coordinate"):
            raise ValueError(f"{path}: line 1: unsupported format {fmt!r}")
        qualifiers = [h.lower() for h in header[3:]]
        if "complex" in qualifiers:
            raise ValueError(f"{path}: line 1: complex matrices not supported")
        if len(header) >= 5 and header[4].lower() != "general":
            raise ValueError(f"{path}: line 1: only 'general' symmetry is supported")
        if not size_line:
            raise ValueError(f"{path}: missing size line")
        try:
            dims = [int(p) for p in size_line.split()]
        except ValueError:
            raise ValueError(f"{path}: line {size_at}: bad size line {size_line!r}") from None
        if fmt == "array":
            if len(dims) != 2:
                raise ValueError(f"{path}: line {size_at}: array size line needs 2 integers")
            m, n = dims
            # loadtxt accepts a subset of what float() does, one value per
            # line, and warns about a file with no entries
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                try:
                    values = np.loadtxt(path, comments=None, skiprows=size_at, ndmin=1,
                                        encoding="utf-8")
                except ValueError:
                    values = None
            if values is not None and values.shape == (m * n,):
                return np.ascontiguousarray(values.reshape(n, m).T)   # column-major entries
        rest = fh.readlines()
    entries = [text for line in rest if (text := line.strip()) and text[0] != "%"]

    def lineno(k: int) -> int:
        """The 1-based line number of entries[k - 1]."""
        return [i for i, line in enumerate(rest, start=size_at + 1)
                if (text := line.strip()) and text[0] != "%"][k - 1]

    if fmt == "array":
        if len(entries) != m * n:
            raise ValueError(f"{path}: expected {m * n} entries, found {len(entries)}")
        values = np.empty(m * n)
        for k, text in enumerate(entries, start=1):
            try:
                values[k - 1] = float(text)
            except ValueError:
                raise ValueError(f"{path}: line {lineno(k)}: bad value {text!r}") from None
        return np.ascontiguousarray(values.reshape(n, m).T)
    if len(dims) != 3:
        raise ValueError(f"{path}: line {size_at}: coordinate size line needs 3 integers")
    m, n, nnz = dims
    if len(entries) != nnz:
        raise ValueError(f"{path}: expected {nnz} entries, found {len(entries)}")
    width = 2 if qualifiers[0] == "pattern" else 3
    rows = [text.split() for text in entries]
    try:
        if any(len(parts) != width for parts in rows):
            raise ValueError
        fields = np.array(rows, dtype=str).reshape(nnz, width)
        i, j = fields[:, 0].astype(np.int64), fields[:, 1].astype(np.int64)
        values = fields[:, 2].astype(float) if width == 3 else 1.0
        if ((i < 1) | (i > m) | (j < 1) | (j > n)).any():
            raise ValueError
    except (ValueError, OverflowError):
        for k, parts in enumerate(rows, start=1):
            try:
                if len(parts) != width:
                    raise ValueError
                i, j = int(parts[0]), int(parts[1])
                if width == 3:
                    float(parts[2])
            except ValueError:
                raise ValueError(f"{path}: line {lineno(k)}: bad coordinate entry "
                                 f"{entries[k - 1]!r}") from None
            if not (1 <= i <= m and 1 <= j <= n):
                raise ValueError(f"{path}: line {lineno(k)}: index ({i},{j}) out of range")
        raise
    a = np.zeros((m, n))
    a[i - 1, j - 1] = values   # a repeated (i, j): the last entry holds
    return a


@_utf8_text
def vector_oracle(path) -> np.ndarray:
    """read_vector as it read files before np.loadtxt did: float() per line.

    Read a one-value-per-line vector of finite numbers; errors, bytes that
    are not UTF-8 among them, carry the line number."""
    values = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith(("%", "#")):
                continue
            try:
                value = float(text)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"{path}: line {lineno}: bad value {text!r}")
            values.append(value)
    if not values:
        raise ValueError(f"{path}: no values found")
    return np.asarray(values)

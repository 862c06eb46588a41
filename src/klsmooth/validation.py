"""Independent checks of an estimated smoothness exponent.

Three cross-checks, none of which reuses the regression path:

* two-sided error bounds along the iteration (observable lower bound
  R^2/G and the source-condition upper bound ||w||^(1/(2mu+1)) R^(2mu/(2mu+1)));
* a Tikhonov convergence-rate experiment with the a-priori parameter choice
  alpha = delta^(2/(2mu+1)), whose observed log-log rate must match
  2mu/(2mu+1);
* the spectral summability test sum |<y,u_i>|^2 / sigma_i^(2+4mu) < inf,
  evaluated on partial sums with a growth-ratio heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .landweber import IterationTrace
from .operators import ConvergenceError, LinearOperator, SpectralDecomposition
from .problems import ProblemSpec, noise_draw

# Growth ratio S_n / S_{n/2} above which the partial sums are judged
# divergent. Finite sums never literally diverge; this threshold flags even
# slow (logarithmic) growth while tolerating converged tails.
RATIO_THRESHOLD = 1.05
# On a computed basis, coefficients at or below this fraction of ||y|| are
# rounding and count in neither the summability test nor the decay fits
# (_counted_modes, the one rule); data with none above it have no part on
# the retained singular vectors.
COEFF_FLOOR = 1e-12
FIT_R2_MIN = 0.99
# max_mu_spectral bisects admissibility over this mu range to this width.
BISECT_BRACKET = (0.05, 2.0)
BISECT_TOL = 1e-3
DEFAULT_MU_GRID = (0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.75, 1.0)
DEFAULT_SEEDS = (0, 1, 2, 3, 4)
# relative noise levels of the rate experiment, strictly decreasing
DEFAULT_LEVELS = tuple(np.logspace(-3, -1, 10)[::-1].tolist())
# tighter than the 1e-10 agreement guaranteed against the filter factors,
# since the residual norm understates the solution error by ~1/alpha
CG_TOL = 1e-13


@dataclass(frozen=True)
class RateExperimentResult:
    """Observed vs. predicted Tikhonov convergence rates over noise levels."""

    noise_levels: list          # relative levels, strictly decreasing
    delta_abs: list
    errors: list                # seed-averaged ||x_alpha - x_true|| per level
    observed_exponent: float
    predicted_exponent: float
    seeds: list
    alphas: list
    solver: str                 # "filter-factors" or "cg"
    notes: list = field(default_factory=list)


@dataclass(frozen=True)
class SmoothnessVerdict:
    """Admissibility of tested exponents under the spectral summability test."""

    mu_tested: list
    partial_sum_growth: list
    admissible: list
    mu_max_estimate: Optional[float] = None


def tikhonov_solve(op: LinearOperator, y: np.ndarray, alpha: float) -> np.ndarray:
    """Minimize ||A x - y||^2 + alpha ||x||^2 by conjugate gradients.

    Solves the SPD normal equations (A*A + alpha) x = A* y to a relative
    residual well below 1e-10 (iteration cap 10 n); the filter factors of
    :func:`rate_experiment` are tested against it.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    y = np.asarray(y, dtype=float)
    if y.shape != (op.shape[0],):
        raise ValueError(f"y must have length {op.shape[0]}")
    rhs = op.apply_adjoint(y)
    n = op.shape[1]
    x = np.zeros(n)
    r = rhs.copy()
    p = r.copy()
    rs = float(r @ r)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return x
    for _ in range(10 * n):
        ap = op.apply_adjoint(op.apply(p)) + alpha * p
        denom = float(p @ ap)
        if denom <= 0.0:
            break
        step = rs / denom
        x += step * p
        r -= step * ap
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= CG_TOL * rhs_norm:
            return x
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise ConvergenceError("conjugate gradients did not reach tolerance")


def _filter_factor_error(sd: SpectralDecomposition, coeffs: np.ndarray, alpha: float,
                         x_coeffs: np.ndarray, x_out: float) -> float:
    """||x_alpha - x_true|| from the filter factors, given the data's
    coefficients <y_delta, u_i> and x_true by its split."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    s = sd.sigmas
    # sigma y / (sigma^2 + alpha) in this operation order: reports of
    # diagonal runs keep their rate errors bit for bit
    dev = s * coeffs / (s * s + alpha) - x_coeffs
    return float(np.sqrt(dev @ dev + x_out))


def apriori_alpha(delta_abs: float, mu: float) -> float:
    """A-priori regularization parameter delta^(2/(2 mu + 1)).

    delta = 0 returns alpha = 0, i.e. the unregularized limit.
    """
    if delta_abs < 0:
        raise ValueError("delta_abs must be non-negative")
    if mu <= 0:
        raise ValueError("mu must be positive")
    return float(delta_abs ** (2.0 / (2.0 * mu + 1.0)))


def rate_exponent(mu: float) -> float:
    """The optimal order 2 mu / (2 mu + 1) of convergence in the noise level
    under a source condition with exponent mu."""
    return 2.0 * mu / (2.0 * mu + 1.0)


def rate_inputs(levels, seeds) -> tuple[list, list]:
    """The levels sorted decreasing and the seeds as ints; a ValueError
    unless there are at least 3 distinct levels, all in (0, 1), and a seed."""
    levels = sorted((float(l) for l in levels), reverse=True)
    if len(levels) < 3:
        raise ValueError("need at least 3 noise levels")
    if len(set(levels)) < len(levels):
        raise ValueError("noise levels must be distinct")
    if not all(0.0 < l < 1.0 for l in levels):
        raise ValueError("levels must lie in (0, 1)")
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    return levels, seeds


def rate_experiment(p: ProblemSpec, mu_hat: float, levels,
                    seeds=DEFAULT_SEEDS) -> RateExperimentResult:
    """Measure the Tikhonov convergence rate under the a-priori choice for mu_hat.

    For each relative noise level and seed: perturb the data, set alpha from
    the absolute noise norm, solve, and record the reconstruction error.
    Errors are seed-averaged per level; the observed exponent is the slope of
    log(error) against log(delta_abs). Solver failures exclude the affected
    level with a note.

    When the operator has a singular system, known or attached by the run,
    each error comes from the filter factors sigma / (sigma^2 + alpha) in
    closed form, with no solve:

        ||x_alpha - x_true||^2 = sum_i (sigma_i/(sigma_i^2 + alpha) <y_delta, u_i>
                                        - <x_true, v_i>)^2 + ||x_true - V V* x_true||^2.

    Otherwise :func:`tikhonov_solve` computes each x_alpha by CG. Each
    seed's noise e is drawn once, as :func:`add_noise` draws it, and scaled
    to each level: y_delta = y + (delta / ||e||) e. The filter factors then
    read <y_delta, u_i> = <y, u_i> + (delta / ||e||) <e, u_i>, with y and
    every e projected by one product; a diagonal operator's coefficients
    are the vectors themselves, so its errors are those of add_noise bit for
    bit.
    """
    if p.x_true is None:
        raise ValueError("rate experiment needs the exact solution")
    levels, seeds = rate_inputs(levels, seeds)

    sd = p.operator.singular_system
    y = p.y_clean
    y_norm = float(np.linalg.norm(y))
    draws = [noise_draw(y.size, seed) for seed in seeds]
    draw_norms = [np.linalg.norm(e) for e in draws]
    if sd is not None:
        x_coeffs, x_out = sd.split(p.x_true, right=True)
        # one row per vector: each seed's coefficients are contiguous, as a
        # fresh vector is, so a diagonal run's dot products sum as before
        c_y, *c_e = np.ascontiguousarray(sd.coefficients(np.vstack([y] + draws).T).T)

    kept_levels, kept_deltas, kept_alphas, kept_errors, notes = [], [], [], [], []
    for level in levels:
        delta = level * y_norm
        alpha = apriori_alpha(delta, mu_hat)
        errs = []
        try:
            for j, (e, e_norm) in enumerate(zip(draws, draw_norms)):
                scale = delta / e_norm
                if sd is None:
                    x_alpha = tikhonov_solve(p.operator, y + e * scale, alpha)
                    errs.append(float(np.linalg.norm(x_alpha - p.x_true)))
                else:
                    errs.append(_filter_factor_error(sd, c_y + c_e[j] * scale, alpha,
                                                     x_coeffs, x_out))
        except ConvergenceError as exc:
            notes.append(f"level {level:g} excluded: {exc}")
            continue
        kept_levels.append(level)
        kept_deltas.append(delta)
        kept_alphas.append(alpha)
        kept_errors.append(float(np.mean(errs)))
    if len(kept_levels) < 2:
        raise ConvergenceError("too few usable noise levels for a rate fit")
    slope = float(np.polyfit(np.log(kept_deltas), np.log(kept_errors), 1)[0])
    return RateExperimentResult(
        noise_levels=kept_levels, delta_abs=kept_deltas,
        errors=kept_errors, observed_exponent=slope,
        predicted_exponent=rate_exponent(mu_hat),
        seeds=seeds, alphas=kept_alphas, notes=notes,
        solver="cg" if sd is None else "filter-factors")


def _counted_modes(sd: SpectralDecomposition, y: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mode numbers i, log sigma_i and log |<y,u_i>| of the modes that count.

    A diagonal operator's coefficients are the data themselves, and every
    nonzero one counts. A computed basis leaves rounding of up to about
    eps ||y|| on every mode, and which rounding depends on the decomposition
    and the BLAS thread count, so there only |<y,u_i>| > COEFF_FLOOR ||y||
    counts. Raises ValueError with fewer than 4 modes, or with data on none
    of them beyond rounding.
    """
    if sd.sigmas.size < 4:
        raise ValueError("spectral decomposition too small for the summability test")
    abs_c = np.abs(sd.coefficients(y))
    floor = COEFF_FLOOR * np.linalg.norm(y)
    if not abs_c.max() > floor:
        raise ValueError("the data have no part on any retained singular vector")
    i = np.flatnonzero(abs_c != 0.0 if sd.u is None else abs_c > floor)
    return i + 1.0, np.log(sd.sigmas[i]), np.log(abs_c[i])


def _growth_ratio(log_s: np.ndarray, log_c: np.ndarray, mu: float) -> float:
    """S_n / S_{n/2} of the terms |c_i|^2 / sigma_i^(2+4 mu), in log space
    to dodge overflow."""
    log_terms = 2.0 * log_c - (2.0 + 4.0 * mu) * log_s
    partial = np.cumsum(np.exp(log_terms - log_terms.max()))
    half = partial[log_terms.size // 2 - 1]
    if half == 0.0:
        return np.inf
    return float(partial[-1] / half)


def verify_smoothness(sd: SpectralDecomposition, y: np.ndarray, mu_list) -> SmoothnessVerdict:
    """Test each mu for summability of |<y,u_i>|^2 / sigma_i^(2+4 mu).

    A mu is admissible when the partial sums over the counted modes
    (:func:`_counted_modes`) have saturated, i.e. the growth ratio
    S_n / S_{n/2} stays at or below RATIO_THRESHOLD. Admissibility is
    monotone (smaller mu is easier), which the construction preserves.
    Raises ValueError with fewer than 4 modes, or with data on none of them
    beyond rounding (every |<y,u_i>| at most COEFF_FLOOR ||y||).
    """
    _, log_s, log_c = _counted_modes(sd, y)
    mu_sorted = sorted(float(m) for m in mu_list)
    growth = [_growth_ratio(log_s, log_c, mu) for mu in mu_sorted]
    admissible = [ratio <= RATIO_THRESHOLD for ratio in growth]
    # enforce downward closure against borderline numerical ties
    for j in range(len(admissible) - 2, -1, -1):
        if admissible[j + 1]:
            admissible[j] = True
    mu_max = None
    adm = [m for m, a in zip(mu_sorted, admissible) if a]
    if adm:
        mu_max = max(adm)
    return SmoothnessVerdict(mu_tested=mu_sorted, partial_sum_growth=growth,
                             admissible=admissible, mu_max_estimate=mu_max)


def _fit_r2(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Slope and coefficient of determination of an OLS line fit."""
    coeffs = np.polyfit(x, y, 1)
    resid = y - np.polyval(coeffs, x)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return float(coeffs[0]), 1.0
    return float(coeffs[0]), 1.0 - float(np.sum(resid ** 2)) / ss_tot


def max_mu_spectral(sd: SpectralDecomposition, y: np.ndarray) -> Optional[float]:
    """Largest mu compatible with the spectral summability test.

    Both stages read the modes the summability test counts
    (:func:`_counted_modes`). Stage one fits decay exponents: b from
    log sigma_i against log i and s from log |<y,u_i>| against log sigma_i.
    When both fits are credible (R^2 >= FIT_R2_MIN) the closed form
    mu = (s - 1)/2 - 1/(4 b) is returned. Otherwise the growth-ratio test
    is bisected over BISECT_BRACKET. None means even the smallest tested mu
    is inadmissible. Raises ValueError as :func:`verify_smoothness` does.
    """
    i, log_s, log_c = _counted_modes(sd, y)
    if i.size >= 4:
        b_slope, r2_b = _fit_r2(np.log(i), log_s)
        s_slope, r2_s = _fit_r2(log_s, log_c)
        b = -b_slope
        if r2_b >= FIT_R2_MIN and r2_s >= FIT_R2_MIN and b > 0.0:
            mu = (s_slope - 1.0) / 2.0 - 1.0 / (4.0 * b)
            return float(mu) if mu > 0.0 else None

    def admissible(mu: float) -> bool:
        return _growth_ratio(log_s, log_c, mu) <= RATIO_THRESHOLD

    lo, hi = BISECT_BRACKET
    if not admissible(lo):
        return None
    if admissible(hi):
        return float(hi)
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            lo = mid
        else:
            hi = mid
    return float(lo)


def bound_curves(trace: IterationTrace, mu: float, w_norm: Optional[float] = None
                 ) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Observable lower bound and source-condition upper bound per iteration.

    lower_k = R_k^2 / G_k needs nothing but the trace (recomputed here so the
    check stays independent of the logged column); upper_k =
    ||w||^(1/(2mu+1)) * R_k^(2mu/(2mu+1)) additionally needs the norm of the
    source element and mu > 0. Iterations with G_k = 0 yield NaN markers.
    """
    R = trace.residuals
    G = trace.gradient_norms
    with np.errstate(divide="ignore", invalid="ignore"):
        lower = np.where(G > 0.0, R * R / np.where(G > 0.0, G, 1.0), np.nan)
    upper = None
    if w_norm is not None:
        if w_norm <= 0 or mu <= 0:
            raise ValueError("w_norm and mu must be positive")
        upper = w_norm ** (1.0 / (2.0 * mu + 1.0)) * R ** rate_exponent(mu)
    return lower, upper

"""Landweber iteration with per-iteration residual/gradient/error logging.

The iteration x_{k+1} = x_k - beta A*(A x_k - y), started from x_0 = 0 with
the step beta = 1 / ||A||^2, is gradient descent on the squared residual.
After every update the trace records

    R_k = ||A x_k - y||,   G_k = ||A*(A x_k - y)||,   R_k^2 / G_k,

and, when the exact solution is known, ||x_k - x_true||. The ratio R^2/G is
an observable lower bound on the reconstruction error (Cauchy-Schwarz) and
drives the downstream diagnostics.

An operator with a singular system has the trace in closed form (every mode
evolves on its own), which :func:`diagonal_trace` evaluates in blocks of
iterations without iterating. Diagonal operators and deriv2 carry theirs, and
a run attaches an SVD it computes to the operator. Otherwise the iteration
runs in :func:`matvec_trace`, which also serves as the reference the closed
form is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .operators import LinearOperator, decimal_block, decimal_block_rows, operator_norm
from .problems import ProblemSpec

# The iteration has converged once R_k or beta^(1/2) G_k (a residual's
# worth of gradient) falls to this share of ||data||. The matvec loop's
# residual floors at rounding, about eps ||data||, while the closed form decays
# on to zero; a floor well above rounding stops both at the same iteration,
# and keeps log(0) out of the regression.
EARLY_STOP_REL = 1e-13

# The closed form's tables of powers get about this many entries (0.5 MB of
# float64), so one block spans 2^16 / n iterations, but never fewer than
# MIN_BLOCK_ROWS: each block also makes a dozen passes over whole n-vectors,
# and with fewer rows than that the matvec loop would be faster. A chunk of
# blocks, computed by one matrix product, holds weights of about as many.
BLOCK_ELEMENTS = 1 << 16
MIN_BLOCK_ROWS = 8

# A mode is slow over a run of K iterations when q = 1 - beta sigma^2 > 0 and
# K |log q| <= SLOW_REACH. With s = K log q and t = k / K in (0, 1], its
# q^k = exp(t s) and q^(2k) = exp(2 t s) have |2 t s| <= 2 SLOW_REACH, so
# the exponential series cut after degree SLOW_DEGREE leaves at most
# (2 SLOW_REACH)^(P+1) / (P+1)! of a term (4e-20 here), and the slow modes'
# share of R_k^2, G_k^2 and E_k^2 is a polynomial of degree P in t whose
# coefficients are power sums of s. The error's u^2 (1 - q^k)^2 part starts
# at degree 2, so relative to its own size the cut leaves
# 2^(P+1) SLOW_REACH^(P-1) / (P+1)!: SLOW_DEGREE is the least P that keeps
# both below eps / 4. In the canned figures (K = 2000) all but the first
# 5-25 modes are slow, and the closed form pays modes times K only on those.
SLOW_REACH = 0.125
SLOW_DEGREE = 13

Columns = tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]


@dataclass(frozen=True)
class LandweberConfig:
    """Run parameters. The step is always 1 / ||A||^2 (see :func:`resolve_step`)."""

    max_iters: int = 2000

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class IterationTrace:
    """Per-iteration record, index-aligned over k = 1..K (after each update)."""

    residuals: np.ndarray
    gradient_norms: np.ndarray
    lower_bounds: np.ndarray
    errors: Optional[np.ndarray] = None
    step_beta: float = 0.0
    path: Optional[str] = None   # "closed-form" or "matvec"

    def __len__(self) -> int:
        return self.residuals.size

    @property
    def k_values(self) -> np.ndarray:
        return np.arange(1, len(self) + 1)


def resolve_step(norm_est: float) -> float:
    """The step 1 / ||A||^2, the midpoint of the range (0, 2 / ||A||^2) in
    which the iteration converges, from the estimated operator norm.

    A norm whose square, or 2 over it, is not a finite positive float leaves
    no step size; that is a numerical failure (RuntimeError), whichever path
    estimated the norm.
    """
    norm_sq = norm_est * norm_est
    if not (0.0 < norm_sq < math.inf and 2.0 / norm_sq < math.inf):
        raise RuntimeError(f"operator norm {norm_est:.6g} is out of range: "
                           "no finite step size 1/||A||^2 exists")
    return 1.0 / norm_sq


def landweber_run(p: ProblemSpec, data: np.ndarray,
                  cfg: Optional[LandweberConfig] = None) -> IterationTrace:
    """Run Landweber iteration on A x = data and log the trace.

    Stops early once the residual or gradient norm falls to the rounding
    floor EARLY_STOP_REL ||data|| (the normal-equation solution reached to
    working precision). Non-finite values abort with the
    offending iteration index. An operator with a singular system takes the
    closed form, and that system also supplies ||A||; all others run the
    matvec loop.
    """
    cfg = cfg or LandweberConfig()
    op = p.operator
    data = np.asarray(data, dtype=float)
    if data.shape != (op.shape[0],):
        raise ValueError(f"data must have length {op.shape[0]}, got shape {data.shape}")
    sd = op.singular_system
    beta = resolve_step(operator_norm(op))
    if sd is None:
        path = "matvec"
        R, G, E = matvec_trace(op, data, beta, cfg.max_iters, p.x_true)
    else:
        path = "closed-form"
        coeffs, data_out = sd.split(data)
        x_coeffs, x_out = (None, 0.0) if p.x_true is None else sd.split(p.x_true, right=True)
        R, G, E = diagonal_trace(sd.sigmas, coeffs, beta, cfg.max_iters, x_coeffs,
                                 outside=(data_out, x_out))
    # R^2 / G in place, NaN where G = 0
    positive = G > 0.0
    lb = np.square(R)
    np.divide(lb, G, out=lb, where=positive)
    lb[~positive] = np.nan
    return IterationTrace(residuals=R, gradient_norms=G, lower_bounds=lb, errors=E,
                          step_beta=beta, path=path)


def matvec_trace(op: LinearOperator, data: np.ndarray, beta: float, max_iters: int,
                 x_true: Optional[np.ndarray] = None) -> Columns:
    """(R, G, E) by running the iteration from 0, two matvecs per step.

    E is None without x_true. Columns end at the early stop, if any.
    """
    R = np.empty(max_iters)
    G = np.empty(max_iters)
    E = np.empty(max_iters) if x_true is not None else None
    x = np.zeros(op.shape[1])
    n_done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        r_floor, g_floor = _stop_floors(float(np.linalg.norm(data)), beta)
        g = op.apply_adjoint(-data)
    for k in range(1, max_iters + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            x = x - beta * g
            r = op.apply(x) - data
            g = op.apply_adjoint(r)
            rn = float(np.linalg.norm(r))
            gn = float(np.linalg.norm(g))
        if not (np.isfinite(rn) and np.isfinite(gn)):
            raise RuntimeError(f"non-finite residual/gradient at iteration {k}")
        R[k - 1] = rn
        G[k - 1] = gn
        if E is not None:
            E[k - 1] = float(np.linalg.norm(x - x_true))
        n_done = k
        if rn <= r_floor or gn <= g_floor:
            break
    return R[:n_done], G[:n_done], None if E is None else E[:n_done]


def diagonal_trace(sigmas: np.ndarray, data: np.ndarray, beta: float, max_iters: int,
                   x_true: Optional[np.ndarray] = None,
                   outside: tuple[float, float] = (0.0, 0.0)) -> Columns:
    """(R, G, E) of the iteration from 0, in closed form from a singular system.

    data and x_true are coefficients on the left and right singular vectors
    of the sigmas (for a diagonal operator, the vectors themselves). outside
    holds the squared norms of the parts of data and x_true that no mode
    reaches; the iteration never changes them, so they add to every R_k^2
    and E_k^2. With q = 1 - beta sigma^2 and r0 = -data, the residual after
    k updates is q^k r0 mode by mode, so

        R_k^2 = sum_i q_i^(2k) r0_i^2 + outside[0],
        G_k^2 = sum_i q_i^(2k) sigma_i^2 r0_i^2,
        x_k - x_true = -x_true - (r0/sigma) (1 - q^k),  plus outside[1] in E_k^2.

    The modes split in two. Slow modes (q > 0, finite inputs and
    max_iters |log q| <= SLOW_REACH) never come near convergence within the
    run, and their shares of R_k^2, G_k^2 and E_k^2 are polynomials in
    t = k / max_iters (see SLOW_REACH), evaluated by a Vandermonde product.
    The error of a slow mode is e = u c - x_true q^k, with u = data / sigma
    - x_true (0 on an exact mode) and c = 1 - q^k, so

        e^2 = u^2 c^2 - 2 u x_true c q^k + x_true^2 q^(2k),

    whose series in t s (s = max_iters log q) have the coefficients
    2^p - 2, -2 (1 - 2^p) and 2^p over p!. The first two vanish at p = 0,
    so u enters only as u s, about -max_iters beta sigma (data - sigma
    x_true): the 1/sigma of a noisy small-sigma mode cancels in the
    formula, not in rounding, and the sum keeps its digits under noise.

    The other (fast) modes take tables of q^(2j) and 1 - q^j, j = 1..J,
    built once, with J = 2^16 / (fast modes). The block after k0 iterations
    uses q^(k0+j) = q^k0 q^j and 1 - q^(k0+j) = (1 - q^k0) + q^k0 (1 - q^j),
    with q^k0 evaluated afresh, never as a running product, so rounding does
    not build up over blocks. Blocks go in chunks of as many as keep the
    chunk's weights within the table's 2^16 entries. The weights r0^2,
    (sigma r0)^2 and, on the exact modes, x_true^2, each scaled by every
    block's q^(2k0), stack into one array, and its product with the q^(2j)
    table writes R^2, G^2 and the exact modes' share of E^2 for the whole
    chunk straight into the trace. A fast mode is exact when data_i ==
    sigma_i x_true_i bit for bit (noise-free diagonal data): its error is
    -x_true q^k. The other fast modes take a per-mode pass over each block:
    they lie beyond the series' reach, and written as (-x_true - r0/sigma) +
    (r0/sigma) q^k their error cancels badly under noise. The slow modes'
    series is evaluated over the chunk by one product, and a run with no
    slow mode is computed as if the split did not exist. Each chunk is then
    scanned for its first row at the stop floor or its first non-finite
    row, so early stop and abort happen at the same iteration as in
    :func:`matvec_trace`.
    """
    s = np.asarray(sigmas, dtype=float)
    data = np.asarray(data, dtype=float)
    data_out, x_out = outside
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # a ||data|| that overflows gives infinite floors, as in matvec_trace
        floors = np.array(_stop_floors(float(np.sqrt(data @ data + data_out)), beta))[:, None]
        q = 1.0 - beta * s * s
        log_q = np.where(q > 0.0, np.log1p(-beta * s * s), 0.0)
        slow = _slow_modes(s, q, log_q, data, x_true, max_iters)
        slow_coefs = None
        if slow.any():
            slow_coefs = _slow_coefficients(s[slow], log_q[slow], data[slow],
                                            None if x_true is None else x_true[slow],
                                            max_iters)
            fast = ~slow
            s, q, log_q, data = s[fast], q[fast], log_q[fast], data[fast]
            x_true = None if x_true is None else x_true[fast]
        nonpos = np.flatnonzero(q <= 0.0)
        r0 = -data
        weights = [r0 * r0, (s * r0) ** 2]
        per_mode = False
        if x_true is not None:
            exact = _exact_modes(s, data, x_true)
            if exact.any():
                weights.append(np.where(exact, x_true * x_true, 0.0))
            per_mode = not exact.all()
            if per_mode:
                pull = np.where(exact, 0.0, r0 / s)
                start = np.where(exact, 0.0, -x_true)
        weights = np.stack(weights)[:, None, :]
        nw = len(weights)
        rows, chunk = _block_sizes(s.size, nw, max_iters)
        q_2j, comp_j = _powers(q, log_q, nonpos, np.arange(1, rows + 1.0)[:, None],
                              complement=per_mode)
        np.square(q_2j, out=q_2j)
        q_2j = q_2j.T
        if per_mode:
            buf = np.empty_like(comp_j)
    # whole blocks, so the columns have room for the last one's unused rows;
    # E in an array of its own, as one array for all three raised the peak
    # resident memory of long runs
    size = -(-max_iters // rows) * rows
    RG = np.empty((2, size))
    E = np.empty(size) if x_true is not None else None
    n_done = max_iters
    with np.errstate(over="ignore", invalid="ignore"):
        for c0 in range(0, max_iters, chunk):
            m = min(chunk, max_iters - c0)
            k0 = np.arange(c0, c0 + m, rows, dtype=float)[:, None]
            q_k0, comp_k0 = _powers(q, log_q, nonpos, k0, complement=per_mode)
            # R^2, G^2 and the exact modes' E^2 over the chunk's blocks,
            # straight into the columns
            scaled = weights * (q_k0 * q_k0)
            blocks = len(k0)
            rg, out = scaled[:2], RG[:, c0:c0 + blocks * rows].reshape(2, blocks, rows)
            if blocks == 1:
                # one two-row GEMM, not two matrix-vector products that round otherwise
                rg, out = rg[:, 0], out[:, 0]
            np.matmul(rg, q_2j, out=out)
            if nw == 3:
                np.matmul(scaled[2], q_2j, out=E[c0:c0 + blocks * rows].reshape(blocks, rows))
            norms = RG[:, c0:c0 + m]
            norms[0] += data_out
            if slow_coefs is not None:
                t = np.arange(c0 + 1.0, c0 + m + 1.0) / max_iters
                # a sum of squares, whatever its rounding
                slow_sq = np.maximum(slow_coefs @ _power_rows(t), 0.0)
                norms += slow_sq[:2]
            np.sqrt(norms, out=norms)
            if E is not None:
                err_sq = x_out if slow_coefs is None else slow_sq[2] + x_out
                if per_mode:
                    # block by block: written as a product it would cancel
                    dev_sq = np.empty(m)
                    for b, j0 in enumerate(range(0, m, rows)):
                        dev = np.multiply(comp_j[:m - j0], pull * q_k0[b], out=buf[:m - j0])
                        np.subtract(start - pull * comp_k0[b], dev, out=dev)
                        dev_sq[j0:j0 + rows] = np.einsum("ij,ij->i", dev, dev)
                    err_sq = dev_sq + err_sq
                err = E[c0:c0 + m]
                if nw == 3:
                    err_sq = np.add(err, err_sq, out=err)
                np.sqrt(err_sq, out=err)
            # a non-finite norm makes the sum non-finite
            if np.isfinite(norms.sum()) and (norms > floors).all():
                continue
            bad = ~np.isfinite(norms).all(axis=0)
            stop = (norms <= floors).any(axis=0)
            first_bad = int(np.argmax(bad)) if bad.any() else m
            first_stop = int(np.argmax(stop)) if stop.any() else m
            if first_bad < m and first_bad <= first_stop:
                raise RuntimeError(
                    f"non-finite residual/gradient at iteration {c0 + first_bad + 1}")
            if first_stop < m:
                n_done = c0 + first_stop + 1
                break
    return RG[0, :n_done], RG[1, :n_done], None if E is None else E[:n_done]


def _block_sizes(fast: int, weight_rows: int, max_iters: int) -> tuple[int, int]:
    """Iterations per block and per chunk of :func:`diagonal_trace`'s fast
    modes: the table of powers and a chunk's scaled weights, weight_rows per
    block, each fill about BLOCK_ELEMENTS."""
    rows = min(max_iters, max(MIN_BLOCK_ROWS, BLOCK_ELEMENTS // max(fast, 1)))
    return rows, rows * max(1, BLOCK_ELEMENTS // max(weight_rows * fast, 1))


def _slow_modes(sigmas: np.ndarray, q: np.ndarray, log_q: np.ndarray, data: np.ndarray,
                x_true: Optional[np.ndarray], max_iters: int) -> np.ndarray:
    """Which modes :func:`diagonal_trace` sums as a series (see SLOW_REACH).

    Non-finite inputs stay with the fast modes, whose blocks abort on them.
    """
    slow = (q > 0.0) & (max_iters * np.abs(log_q) <= SLOW_REACH) & np.isfinite(data)
    if x_true is not None:
        slow &= np.isfinite(x_true) & np.isfinite(data / sigmas)
    return slow


def _exact_modes(sigmas: np.ndarray, data: np.ndarray, x_true: np.ndarray) -> np.ndarray:
    """Modes whose data are sigma x_true bit for bit: their error is -x_true q^k."""
    return data == sigmas * x_true


def _slow_coefficients(sigmas: np.ndarray, log_q: np.ndarray, data: np.ndarray,
                       x_true: Optional[np.ndarray], max_iters: int) -> np.ndarray:
    """Coefficients of t^0..t^SLOW_DEGREE in the slow modes' R_k^2 and G_k^2,
    and E_k^2 when x_true is given, one row each; t = k / max_iters.

    Each row is a set of power sums sum_i w_i s_i^p with s = max_iters log q,
    times the series coefficient of its term over p!.
    """
    p = np.arange(SLOW_DEGREE + 1)
    two_p = 2.0 ** p
    scaled = max_iters * log_q
    r0_sq = data * data
    weights = [r0_sq, sigmas * sigmas * r0_sq]
    if x_true is not None:
        exact = _exact_modes(sigmas, data, x_true)
        # u s, with the power of s that the c q^k and c^2 series start with
        us = np.where(exact, 0.0, data / sigmas - x_true) * scaled
        weights += [x_true * x_true, us * x_true, us * us]
    sums = np.stack(weights) @ _power_rows(scaled).T
    # R^2 and G^2 weigh q^(2k) = exp(2 t s)
    coefs = sums[:2] * two_p
    if x_true is not None:
        err = two_p * sums[2]
        err[1:] -= 2.0 * (1.0 - two_p[1:]) * sums[3, :-1]
        err[2:] += (two_p[2:] - 2.0) * sums[4, :-2]
        coefs = np.vstack((coefs, err))
    return coefs / np.array([math.factorial(k) for k in p], dtype=float)


def _power_rows(x: np.ndarray) -> np.ndarray:
    """Rows x^0, x^1, ..., x^SLOW_DEGREE, by running products.

    One product per row: an accumulate whose output overlaps its input
    makes numpy buffer the whole table, several times slower.
    """
    rows = np.empty((SLOW_DEGREE + 1, x.size))
    rows[0] = 1.0
    rows[1] = x
    for k in range(2, SLOW_DEGREE + 1):
        np.multiply(rows[k - 1], x, out=rows[k])
    return rows


def _stop_floors(data_norm: float, beta: float) -> tuple[float, float]:
    """The floors of R_k and G_k below which the iteration has converged."""
    floor = EARLY_STOP_REL * data_norm
    return floor, floor / np.sqrt(beta)


def _powers(q: np.ndarray, log_q: np.ndarray, nonpos: np.ndarray, k,
            complement: bool) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """q^k and, if asked for, 1 - q^k for integer k (a scalar or a column).

    Where q > 0 both come from k log1p(-beta sigma^2) through exp and expm1:
    that never rounds q itself, whose rounding error would grow k-fold, and
    1 - q^k keeps its digits as q -> 1. The modes listed in nonpos (beta
    sigma^2 >= 1) take the plain power.
    """
    t = k * log_q
    q_k = np.exp(t)
    comp = -np.expm1(t) if complement else None
    if nonpos.size:
        q_k[..., nonpos] = np.power(q[nonpos], k)
        if complement:
            comp[..., nonpos] = 1.0 - q_k[..., nonpos]
    return q_k, comp


def write_trace_csv(path, trace: IterationTrace, track=None, upper_bounds=None) -> None:
    """Write the trace as CSV, one row per iteration, a block of rows at a time.

    Values are written at 17 significant digits by :func:`decimal_block`, so
    they read back bit-exactly; non-finite cells stay empty, as does every
    cell of a column that is not given. The estimator's columns mu_k, c_k
    come from the track, an :class:`~klsmooth.estimator.EstimateTrack`, whose
    entries belong to the iterations from its k_min on, so the cells of
    other iterations are empty. An upper-bound column is appended when bound
    curves were computed. k prints as an integer, as %.17g prints any
    integer below 1e17.

    No table of the trace is built: each block's rows are copied from the
    columns into one buffer of :func:`decimal_block_rows` rows, the
    estimates of the block's iterations placed by their offset from k_min,
    and the block's text goes to the file as bytes.
    """
    n = len(trace)
    header = "k,residual,gradient_norm,lower_bound,error,mu_k,c_k"
    # mu_k and c_k, columns 5 and 6, go by iteration below
    columns = [trace.residuals, trace.gradient_norms, trace.lower_bounds, trace.errors,
               None, None]
    if upper_bounds is not None:
        header += ",upper_bound"
        columns.append(upper_bounds)
    # (column, values) of the columns with a value at every iteration
    spans = [(j, col) for j, col in enumerate(columns, start=1) if col is not None]
    first = 0 if track is None else track.k_min - 1     # the row of the track's entry 0
    rows = decimal_block_rows(len(columns) + 1)
    buf = np.full((min(rows, n), len(columns) + 1), np.nan)
    k = np.arange(1.0, len(buf) + 1.0)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, n, rows):
            block = buf[:n - start]
            m = len(block)
            np.add(k[:m], start, out=block[:, 0])
            for j, col in spans:
                block[:, j] = col[start:start + m]
            if track is not None:
                # trace rows lo to hi - 1, in this block, hold track entries lo - first on
                lo, hi = max(start, first), min(start + m, first + track.mu_k.size)
                for j, col in ((5, track.mu_k), (6, track.c_k)):
                    if hi - lo < m:
                        block[:, j] = np.nan
                    if lo < hi:
                        block[lo - start:hi - start, j] = col[lo - first:hi - first]
            fh.write(decimal_block(block, blank_nonfinite=True))

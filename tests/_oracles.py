"""Independent closed-form references used to check the iterative code paths.

Everything here is computed directly from per-mode formulas, never by
running the iteration under test.
"""

from collections import deque

import numpy as np

from klsmooth.operators import SV_FLOOR, SpectralDecomposition, dense_operator
from klsmooth.problems import ProblemSpec


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


def right_vectors(sd):
    """The right singular vectors v_i of a computed decomposition as an
    n x r array: the stored v, or sign(lam_i) u_i for a symmetric one."""
    return sd.v if sd.signs is None else sd.u * sd.signs


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


def trace_csv_by_column(trace, mu_k=None, c_k=None, k_values=None, upper_bounds=None):
    """trace_to_csv's table written one column at a time: each value by
    f"{x:.17g}", each non-finite one blanked by its index, rows joined by
    commas."""
    from klsmooth.landweber import _by_iteration

    n = len(trace)
    mu_col = c_col = None
    if mu_k is not None:
        mu_col = _by_iteration(n, k_values, mu_k)
        if c_k is not None:
            c_col = _by_iteration(n, k_values, c_k)
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

"""Benchmark problem generators, noise injection, and external-file ingestion.

Every generator returns a :class:`ProblemSpec` whose clean data ``y_clean``
is computed by applying the discretized operator to the exact solution, so
the pair is consistent by construction. For the power-law family the
source-condition exponent has the closed form mu = (2*eta - 1) / (4*beta)
and the preimage w with x = (A*A)^mu w is stored alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .operators import (LinearOperator, SineBasis, SpectralDecomposition, diagonal_operator,
                        kernel_operator, dense_operator, midpoint_nodes, read_matrix_market,
                        read_vector)

# sigma_i = e^{-i} squares to e^{-2i}, which flushes to zero past i ~ 370;
# the cap keeps every sigma_i^2 representable.
EXP_OPERATOR_MAX_N = 400

DEFAULT_GRAVITY_DEPTH = 0.25

# Each kind's label, formatted from its maker's parameters; the CLI labels a
# config that fails before its problem exists by the same template.
LABELS = {
    "power_law": "power-law(eta={eta:g}, beta={beta:g}, n={n})",
    "exp_solution": "supersmooth(beta={beta:g}, n={n})",
    "exp_operator": "exp-operator(eta={eta:g}, n={n}), source condition violated",
    "deriv2": "deriv2(n={n})",
    "gravity": "gravity(n={n}, depth={depth:g}), severely ill-posed candidate",
    "external": "external({matrix_path})",
}


@dataclass(frozen=True)
class ProblemSpec:
    """An inverse problem instance with optional ground truth.

    Attributes:
        operator: the forward map A.
        x_true: exact solution, when known.
        y_clean: consistent clean data A x_true (or loaded data).
        mu_exact: analytic source-condition exponent, when one exists.
        source_w: preimage w with x_true = (A*A)^mu_exact w, when available.
        label: human-readable problem name.
    """

    operator: LinearOperator
    y_clean: np.ndarray
    x_true: Optional[np.ndarray] = None
    mu_exact: Optional[float] = None
    source_w: Optional[np.ndarray] = None
    label: str = ""


@dataclass(frozen=True)
class NoisyData:
    """Data perturbed by white Gaussian noise rescaled to an exact norm."""

    y_delta: np.ndarray
    delta_abs: float
    rel_level: float
    seed: int


def make_power_law(n: int, eta: float, beta: float) -> ProblemSpec:
    """Diagonal benchmark sigma_i = i^-beta, x_i = i^-eta.

    Requires eta > 1/2 so the solution is square-summable in the limit;
    mu_exact = (2*eta - 1) / (4*beta).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if eta <= 0.5:
        raise ValueError("eta must exceed 1/2")
    if beta <= 0:
        raise ValueError("beta must be positive")
    i = np.arange(1, n + 1, dtype=float)
    sigmas = i ** (-beta)
    x_true = i ** (-eta)
    mu = (2.0 * eta - 1.0) / (4.0 * beta)
    with np.errstate(over="ignore", invalid="ignore"):
        w = x_true * sigmas ** (-2.0 * mu)
    if not (np.isfinite(mu) and np.isfinite(w).all()):
        raise ValueError(f"eta = {eta:g} and beta = {beta:g} are out of range: "
                         "mu or the source element w is not finite")
    op = diagonal_operator(sigmas)
    return ProblemSpec(operator=op, y_clean=op.apply(x_true), x_true=x_true,
                       mu_exact=mu, source_w=w,
                       label=LABELS["power_law"].format(eta=eta, beta=beta, n=n))


def make_exp_solution(n: int, beta: float) -> ProblemSpec:
    """Supersmooth benchmark: sigma_i = i^-beta, x_i = e^-i.

    The solution lies in the range of (A*A)^mu for every mu > 0, so no
    single exponent describes it; mu_exact is left unset.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if beta <= 0:
        raise ValueError("beta must be positive")
    i = np.arange(1, n + 1, dtype=float)
    sigmas = i ** (-beta)
    x_true = np.exp(-i)
    op = diagonal_operator(sigmas)
    return ProblemSpec(operator=op, y_clean=op.apply(x_true), x_true=x_true,
                       label=LABELS["exp_solution"].format(beta=beta, n=n))


def make_exp_operator(n: int, eta: float) -> ProblemSpec:
    """Violated-smoothness benchmark: sigma_i = e^-i, x_i = i^-eta.

    The solution misses the range of (A*A)^mu for every mu > 0.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if n > EXP_OPERATOR_MAX_N:
        raise ValueError(f"n capped at {EXP_OPERATOR_MAX_N} to keep sigma_i^2 above underflow")
    if eta <= 0:
        raise ValueError("eta must be positive")
    i = np.arange(1, n + 1, dtype=float)
    sigmas = np.exp(-i)
    x_true = i ** (-eta)
    op = diagonal_operator(sigmas)
    return ProblemSpec(operator=op, y_clean=op.apply(x_true), x_true=x_true,
                       label=LABELS["exp_operator"].format(eta=eta, n=n))


def gravity_kernel(s, t, depth):
    """The gravity surveying kernel depth (depth^2 + (s - t)^2)^(-3/2),
    evaluated into one array by in-place operations."""
    k = s - t
    k *= k
    k += depth ** 2
    k **= -1.5
    k *= depth
    return k


def _deriv2_system(n: int) -> SpectralDecomposition:
    """deriv2's singular system: its matrix is -(n^2 T)^-1, T = tridiag(-1, 2, -1)
    with 3 in both corners, whose eigenvectors are the DST-II basis
    sin(pi k (2i + 1) / (2n)), k = 1..n, of eigenvalues 4 sin^2(pi k / (2n))
    (Strang, SIAM Rev. 41, 1999), so sigma_k = 1 / (2n sin(pi k / (2n)))^2,
    non-increasing in k. The basis is a :class:`SineBasis`, applied by FFT
    and never built."""
    sigmas = 1.0 / np.square(2 * n * np.sin(np.arange(1, n + 1) * (np.pi / (2 * n))))
    return SpectralDecomposition(sigmas=sigmas, u=SineBasis(n), signs=np.full(n, -1.0),
                                 method="dst")


def make_deriv2(n: int) -> ProblemSpec:
    """Second-derivative integral equation on [0,1], exact solution x(t) = t.

    The operator is its singular system alone, with no n x n matrix: the
    midpoint discretization of the Green's function min(s,t) (max(s,t) - 1),
    applied as -U diag(sigma) U* x by two FFTs in O(n) memory. Its rounding,
    unlike a BLAS product's, does not depend on the thread count, and it lies
    within 4e-15 of the matrix product, relative in norm, from n = 8 to 2048.
    """
    if n < 8:
        raise ValueError("n must be >= 8")
    op = LinearOperator(shape=(n, n), singular_system=_deriv2_system(n))
    x_true = midpoint_nodes(n)
    return ProblemSpec(operator=op, y_clean=op.apply(x_true), x_true=x_true,
                       label=LABELS["deriv2"].format(n=n))


def make_gravity(n: int, depth: float = DEFAULT_GRAVITY_DEPTH) -> ProblemSpec:
    """Gravity surveying kernel depth*(depth^2 + (s-t)^2)^(-3/2) on [0,1].

    Severely (exponentially) ill-posed; the smooth trigonometric solution
    sin(pi t) + 0.5 sin(2 pi t) keeps the data consistent by construction.
    """
    if n < 8:
        raise ValueError("n must be >= 8")
    if depth <= 0:
        raise ValueError("depth must be positive")
    # the kernel peaks at s = t, at depth (depth^2)^(-3/2)
    with np.errstate(over="ignore", divide="ignore"):
        square = np.float64(depth) ** 2
        peak = depth * square ** -1.5
    if square == np.inf:
        raise OverflowError(f"depth = {depth:g} is out of range: depth^2 overflows")
    if not np.isfinite(peak):
        raise ValueError(f"depth = {depth:g} is out of range: the kernel's peak "
                         "depth (depth^2)^(-3/2) overflows")
    op = kernel_operator(lambda s, t: gravity_kernel(s, t, depth), n)
    t = midpoint_nodes(n)
    x_true = np.sin(np.pi * t) + 0.5 * np.sin(2.0 * np.pi * t)
    return ProblemSpec(operator=op, y_clean=op.apply(x_true), x_true=x_true,
                       label=LABELS["gravity"].format(n=n, depth=depth))


def add_noise(p: ProblemSpec, rel_level: float, seed: int) -> NoisyData:
    """Add white Gaussian noise rescaled so ||y - y_delta|| = rel_level * ||y|| exactly."""
    if rel_level < 0:
        raise ValueError("rel_level must be non-negative")
    y = p.y_clean
    if rel_level == 0.0:
        return NoisyData(y_delta=y.copy(), delta_abs=0.0, rel_level=0.0, seed=seed)
    e = noise_draw(y.size, seed)
    delta_abs = rel_level * float(np.linalg.norm(y))
    e *= delta_abs / np.linalg.norm(e)
    return NoisyData(y_delta=y + e, delta_abs=delta_abs, rel_level=rel_level, seed=seed)


def noise_draw(size: int, seed: int) -> np.ndarray:
    """The white Gaussian noise :func:`add_noise` rescales, for one seed."""
    return np.random.default_rng(seed).standard_normal(size)


def load_external(matrix_path, y_path, x_true_path=None) -> ProblemSpec:
    """Build a dense problem from a MatrixMarket matrix and plain-text vectors."""
    a = read_matrix_market(matrix_path)
    y = read_vector(y_path)
    if y.size != a.shape[0]:
        raise ValueError(
            f"dimension mismatch: matrix is {a.shape[0]}x{a.shape[1]}, y has length {y.size}")
    x_true = None
    if x_true_path is not None:
        x_true = read_vector(x_true_path)
        if x_true.size != a.shape[1]:
            raise ValueError(
                f"dimension mismatch: matrix is {a.shape[0]}x{a.shape[1]}, "
                f"x_true has length {x_true.size}")
    op = dense_operator(a)
    return ProblemSpec(operator=op, y_clean=y, x_true=x_true,
                       label=LABELS["external"].format(matrix_path=matrix_path))

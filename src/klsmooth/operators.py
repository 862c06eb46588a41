"""Linear operators: forward/adjoint application, norm estimation, SVD, file I/O.

An operator is an explicit m-by-n real matrix or its singular system:

* an operator whose system is known stands on that system alone, with no
  matrix, and is applied through it: a diagonal operator -- infinite-
  dimensional, truncated to n modes -- by its ``canonical`` system (the
  singular values, positive and non-increasing, on the unit vectors), and
  deriv2 by its ``dst`` system (a :class:`SineBasis` applied by FFT);
* a dense operator has a matrix. Integral operators on [0,1]
  (:func:`kernel_operator`) are dense matrices built by the midpoint rule on
  the nodes of :func:`midpoint_nodes`. A run attaches the system that
  :func:`svd` computes once for a dense operator, wherever it can.

Operators are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Optional

import numpy as np

# svd() runs no full factorization over this size in min(m, n): a matrix
# over it that the block refuses takes the matvec loop and CG.
SVD_SIZE_LIMIT = 2048

# Singular values below this fraction of sigma_1 are numerically void.
SV_FLOOR = 1e-14

# A matrix of 8 BLOCK rows and columns or more first tries a block of BLOCK
# columns on each side (_leading_block); a smaller one's full factorization
# costs about what the block does. The block is accepted only when at least
# BLOCK_BELOW_FLOOR of its singular values fall below SV_FLOOR sigma_1 and
# the probe estimate of its residual from BLOCK_PROBES random vectors is at
# most BLOCK_RESIDUAL sigma_1: rounding, which reads 2.3-4.7e-14 sigma_1 on
# gravity at n = 512 to 4096 and 1.9-2.8e-14 on planted rank-40 matrices.
BLOCK = 64
BLOCK_BELOW_FLOOR = 10
BLOCK_PROBES = 8
BLOCK_RESIDUAL = 10 * SV_FLOOR

_POWER_ITER_SEED = 74025  # fixed seed so the step-size choice is reproducible
# operator_norm stops once successive estimates agree to NORM_TOL relative,
# and fails after NORM_MAX_ITERS steps
NORM_TOL = 1e-10
NORM_MAX_ITERS = 10000


class ConvergenceError(RuntimeError):
    """Iterative computation did not reach tolerance."""


@dataclass(frozen=True)
class LinearOperator:
    """A bounded linear map between finite-dimensional Hilbert spaces.

    Attributes:
        shape: (m, n) output/input dimensions.
        matrix: the matrix; None for an operator applied through its known
            singular system.
        singular_system: its singular system, where known or computed.
    """

    shape: tuple[int, int]
    matrix: Optional[np.ndarray] = None
    singular_system: Optional[SpectralDecomposition] = None

    @property
    def kind(self) -> str:
        """The operator's kind: "diagonal" (no matrix: applied through its
        singular system) or "dense"."""
        return "diagonal" if self.matrix is None else "dense"

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Return A x."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.shape[1],):
            raise ValueError(f"expected input of length {self.shape[1]}, got shape {x.shape}")
        return self._through_system(x) if self.matrix is None else self.matrix @ x

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        """Return A* y (the transpose action for a matrix)."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.shape[0],):
            raise ValueError(f"expected input of length {self.shape[0]}, got shape {y.shape}")
        return self._through_system(y) if self.matrix is None else self.matrix.T @ y

    def _through_system(self, x: np.ndarray) -> np.ndarray:
        """U diag(sigma signs) U* x, which is A x and A* x alike: an operator
        without a matrix is symmetric, its system ``canonical`` (u None, so
        exactly sigma x) or deriv2's ``dst``."""
        sd = self.singular_system
        if sd.u is None:
            return sd.sigmas * x
        c = sd.u.T @ x
        c *= sd.sigmas * sd.signs
        return sd.u @ c

    @cached_property
    def symmetric(self) -> bool:
        """A dense matrix equal to its transpose bit for bit; tested once per
        operator, on first use, and defined for a matrix only.

        Each 64 x 64 tile of the upper triangle is compared with its mirror
        tile, which stays in cache and stops at the first unequal tile: 2.6
        against 16 ms for np.array_equal(a, a.T) at n = 1024, 12 against
        86 ms at n = 2048 (2 cores).
        """
        a, (m, n) = self.matrix, self.shape
        return m == n and all(np.array_equal(a[i:i + 64, j:j + 64], a[j:j + 64, i:i + 64].T)
                              for i in range(0, n, 64) for j in range(i, n, 64))

    @cached_property
    def centrosymmetric(self) -> bool:
        """A square matrix of even order equal to J A J bit for bit, tested
        once, as symmetric is (about 5 ms at n = 2048). The top n/2 rows
        against those of J A J test the whole matrix: the bottom rows are
        the same comparisons."""
        a, n = self.matrix, self.shape[0]
        return n % 2 == 0 and np.array_equal(a[:n // 2], a[::-1, ::-1][:n // 2])


@dataclass(frozen=True)
class SpectralDecomposition:
    """Singular values sigma_i with left and right singular vectors u_i, v_i.

    A v_i = sigma_i u_i. u = v = None is the canonical basis (u_i = v_i = e_i)
    of a diagonal operator, left implicit. A symmetric decomposition
    A = U diag(lam) U* ("eigh", "centro" or "dst") keeps no second n x r
    array: v = None, and v_i = signs_i u_i with signs_i = sign(lam_i). The
    bases are read only through the products u.T @ y and u @ c, so u may be
    an array or a :class:`SineBasis`, which applies its matrix by FFT. The
    ``method`` that computed it: "canonical" (a diagonal operator's own
    sigmas), "dst" (deriv2's sine basis), "svd", "eigh", "block" or "centro".
    """

    sigmas: np.ndarray
    u: Optional[np.ndarray | SineBasis] = None   # m x r, columns u_i
    v: Optional[np.ndarray] = None               # n x r, columns v_i
    method: str = field(kw_only=True)
    signs: Optional[np.ndarray] = field(default=None, kw_only=True)   # r values +-1

    def coefficients(self, y: np.ndarray) -> np.ndarray:
        """<y, u_i> for every retained i; for an n x k array y, the r x k
        coefficients of its columns by one product."""
        y = np.asarray(y, dtype=float)
        return y.copy() if self.u is None else self.u.T @ y

    def split(self, vec: np.ndarray, right: bool = False) -> tuple[np.ndarray, float]:
        """<vec, u_i> (or <vec, v_i> with right=True) for every retained i,
        and the squared norm of the part of vec outside the span of those
        vectors: the part no retained mode of A reaches.

        With v = signs u the right split is the left one with its
        coefficients times signs: negation is exact, so this equals the
        split by an explicit basis u * signs bit for bit.
        """
        vec = np.asarray(vec, dtype=float)
        basis = self.v if right and self.v is not None else self.u
        if basis is None:
            return vec.copy(), 0.0
        coeffs = basis.T @ vec
        rest = vec - basis @ coeffs
        if right and self.v is None:
            coeffs *= self.signs
        return coeffs, float(rest @ rest)


@dataclass(frozen=True)
class SineBasis:
    """The orthonormal DST-II basis of order n, an n x n matrix that is never
    built: column k = 1..n is sqrt(2/n) sin(pi k (2i + 1) / (2n)), i < n,
    and column n is scaled by a further sqrt(1/2).

    It offers the two products a :class:`SpectralDecomposition` takes of its
    basis, on a vector or on the n columns of an n x k array, each by one
    real FFT of length 2n (Makhoul, IEEE Trans. ASSP 28, 1980) in
    O(n log n): ``u.T @ y``, the orthonormal DST-II, and ``u @ c``, its
    inverse. With Y = rfft(y, 2n) the sum over i of y_i sin(pi k (2i + 1) / (2n))
    is -Im(e^(-i pi k / (2n)) Y_k), k = 1..n; the inverse puts the same
    twiddle, conjugated, on the bins of an irfft of length 2n.
    """

    n: int
    transposed: bool = False

    @property
    def T(self) -> SineBasis:
        return SineBasis(self.n, not self.transposed)

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        n = self.n
        if x.shape[0] != n:
            raise ValueError(f"expected {n} rows, got shape {x.shape}")
        twiddle = math.sqrt(2.0 / n) * np.exp(np.arange(1, n + 1) * (-0.5j * np.pi / n))
        twiddle[-1] *= math.sqrt(0.5)
        twiddle = twiddle.reshape((n,) + (1,) * (x.ndim - 1))
        if self.transposed:
            y = np.fft.rfft(x, 2 * n, axis=0)[1:]
            y *= twiddle
            return -y.imag
        z = np.zeros((n + 1,) + x.shape[1:], complex)
        np.multiply(x, twiddle.conj(), out=z[1:])
        z *= -1j * n
        z[n] *= 2.0   # irfft counts the Nyquist bin once, the others twice
        return np.fft.irfft(z, 2 * n, axis=0)[:n]


def diagonal_operator(sigmas) -> LinearOperator:
    """Operator acting componentwise as x_i -> sigma_i x_i.

    The sigmas must be strictly positive and non-increasing.
    """
    s = np.asarray(sigmas, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("sigmas must be a non-empty 1-d array")
    if not np.all(s > 0):
        raise ValueError("diagonal singular values must be strictly positive")
    if np.any(np.diff(s) > 0):
        raise ValueError("diagonal singular values must be non-increasing")
    n = s.size
    return LinearOperator(shape=(n, n),
                          singular_system=SpectralDecomposition(sigmas=s, method="canonical"))


def dense_operator(matrix) -> LinearOperator:
    """Operator backed by an explicit m-by-n matrix, with m, n >= 1."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError("matrix must be 2-d")
    if a.size == 0:
        raise ValueError(f"matrix is {a.shape[0]}x{a.shape[1]}: it has no entries")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return LinearOperator(shape=a.shape, matrix=a)


def midpoint_nodes(n: int) -> np.ndarray:
    """Midpoints of the n equal cells of [0,1]."""
    return (np.arange(n) + 0.5) / n


def kernel_operator(kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    n: int) -> LinearOperator:
    """Integral operator on [0,1] with the given kernel, midpoint rule, n cells.

    (A x)(s_i) ~= sum_j kernel(s_i, t_j) x(t_j) / n with s, t the
    :func:`midpoint_nodes`. The kernel is called with s as a column and t as
    a row, so it must broadcast; no n-by-n grids of nodes are built. A
    kernel that returns a writeable n x n float array hands it over: that
    array is scaled by 1/n in place and becomes the matrix, so the operator
    costs one n x n array. Any other result (a scalar, a row, a read-only
    view, another dtype) is broadcast into a new one first. The result is a
    plain dense operator with no singular system, such as gravity's.
    """
    if n < 2:
        raise ValueError("need at least 2 quadrature cells")
    t = midpoint_nodes(n)
    values = np.asarray(kernel(t[:, None], t[None, :]), dtype=float)
    if values.shape != (n, n) or not values.flags.writeable:
        values = np.broadcast_to(values, (n, n)).copy()
    values *= 1.0 / n
    return dense_operator(values)


def operator_norm(op: LinearOperator) -> float:
    """Estimate ||A|| = sigma_1.

    Exact from the operator's singular system, 0 where that has no mode (a
    zero matrix's computed one); power iteration on A*A otherwise,
    started from a fixed pseudo-random vector so repeated runs give identical steps.
    """
    if op.singular_system is not None:
        return float(op.singular_system.sigmas.max(initial=0.0))
    rng = np.random.default_rng(_POWER_ITER_SEED)
    v = rng.standard_normal(op.shape[1])
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(NORM_MAX_ITERS):
        with np.errstate(over="ignore", invalid="ignore"):
            w = op.apply_adjoint(op.apply(v))
            nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0  # v in the null space of a rank-deficient A
        if not np.isfinite(nw):
            raise ConvergenceError("operator norm overflowed during power iteration")
        new_est = np.sqrt(nw)  # ||A*A v|| with unit v converges to sigma_1^2
        v = w / nw
        if est > 0 and abs(new_est - est) <= NORM_TOL * new_est:
            return float(new_est)
        est = new_est
    raise ConvergenceError(f"power iteration did not converge in {NORM_MAX_ITERS} iterations")


def svd(op: LinearOperator) -> SpectralDecomposition:
    """Singular value decomposition, truncated at SV_FLOOR * sigma_1. A known
    singular system is returned as it is, untruncated. A matrix of 8 BLOCK
    rows and columns or more first tries :func:`_leading_block`, at any size;
    this is the one place that refuses a full factorization over
    SVD_SIZE_LIMIT in min(m, n). Exact tests, each run once per operator,
    then pick it: a matrix not symmetric bit for bit takes the SVD; a
    symmetric one "centro" where it is also centrosymmetric, else "eigh",
    about three times faster than the SVD: from A = V diag(lam) V*,
    sigma = |lam|, u = V and v = sign(lam) V (Golub and Van Loan, Matrix
    Computations, sections 8.1 and 8.6), kept as the signs alone.
    """
    if op.singular_system is not None:
        return op.singular_system
    a = op.matrix
    try:
        if min(op.shape) >= 8 * BLOCK and (sd := _leading_block(a)) is not None:
            return sd
        if min(op.shape) > SVD_SIZE_LIMIT:
            raise ValueError(f"operator exceeds the dense SVD limit {SVD_SIZE_LIMIT}")
        if op.symmetric:
            if op.centrosymmetric:
                return _symmetric_svd(*_centro_split(a), method="centro")
            return _symmetric_svd(*np.linalg.eigh(a), method="eigh")
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD failed to converge: {exc}") from exc
    r = 0 if s[0] == 0.0 else int((s >= SV_FLOOR * s[0]).sum())
    if r < s.size:
        # copies, so the vectors of the dropped modes are freed with u and vt
        u, vt = u[:, :r].copy(), vt[:r].copy()
    return SpectralDecomposition(sigmas=s[:r], u=u, v=vt.T, method="svd")


def _leading_block(a: np.ndarray) -> Optional[SpectralDecomposition]:
    """The singular system of an m x n matrix from BLOCK columns on each
    side, or None when they cannot stand in for the full factorization.

    A randomized range finder with one power step (Halko, Martinsson and
    Tropp, SIAM Review 53(2), 2011, algorithm 4.4 and section 5.1):
    Y = A Omega for a Gaussian Omega from the fixed seed, so one matrix
    always gives one result; Q = qr(Y) and P = qr(A* Q), and the SVD
    W S Z* of the BLOCK x BLOCK matrix B = Q* A P gives u = Q W and
    v = P Z. For a symmetric matrix P is the power step's Q = qr(A Q). The
    block is accepted only when
    - at least BLOCK_BELOW_FLOOR of the S fall below SV_FLOOR S_1: the
      spectrum crossed the floor inside the block;
    - the a-posteriori estimate 10 sqrt(2/pi) max_j ||(A - Q B P*) w_j||
      over BLOCK_PROBES fresh Gaussian w_j (section 4.3: it bounds
      ||A - Q B P*|| except with probability 10^-BLOCK_PROBES) is at most
      BLOCK_RESIDUAL S_1: nothing above rounding lies outside the block.
    Before either, the Gram matrix Y* Y refuses a slowly decaying spectrum
    after one product: it needs BLOCK_BELOW_FLOOR of its eigenvalues, the
    squared singular values of Y, at or below SV_FLOOR times the largest.
    That is a singular value at 1e-7 of the largest, far above the floor the
    first test asks for (gravity has 39 such at n = 512 to 2048; deriv2's
    tenth smallest eigenvalue is 3e-8 of the largest).
    """
    n = a.shape[1]
    rng = np.random.default_rng(_POWER_ITER_SEED)
    y = a @ rng.standard_normal((n, BLOCK))
    gram = np.linalg.eigvalsh(y.T @ y)   # ascending
    if not gram[BLOCK_BELOW_FLOOR - 1] <= SV_FLOOR * gram[-1]:
        return None
    q = np.linalg.qr(y)[0]
    p = np.linalg.qr(a.T @ q)[0]
    probes = rng.standard_normal((n, BLOCK_PROBES))
    ap = a @ np.hstack((p, probes))   # A P and the probes A w_j, by one product
    b = q.T @ ap[:, :BLOCK]
    w, s, zt = np.linalg.svd(b)
    if (s < SV_FLOOR * s[0]).sum() < BLOCK_BELOW_FLOOR:
        return None
    residual = ap[:, BLOCK:] - q @ (b @ (p.T @ probes))
    estimate = 10.0 * math.sqrt(2.0 / math.pi) * np.linalg.norm(residual, axis=0).max()
    if estimate > BLOCK_RESIDUAL * s[0]:
        return None
    r = int((s >= SV_FLOOR * s[0]).sum())
    return SpectralDecomposition(sigmas=s[:r], u=q @ w[:, :r], v=p @ zt[:r].T, method="block")


def _centro_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of the halves A11 + A12 J and A11 - A12 J of a
    symmetric, centrosymmetric matrix (A = J A J, J the exchange matrix),
    and their eigenvectors side by side, [W Z] (m x n). Each half is freed
    once decomposed.

    With n = 2m and A = [[A11, A12], [A21, A22]], A is orthogonally similar
    to diag(A11 + A12 J, A11 - A12 J) (Cantoni and Butler, Linear Algebra
    Appl. 13, 1976): an eigenvector w of the first half gives the mode
    [w; J w] / sqrt(2), and z of the second [z; -J z] / sqrt(2), with the
    same eigenvalues. A12 J is symmetric bit for bit when A is symmetric
    and centrosymmetric bit for bit, so both halves are too, and each is
    decomposed by eigh. gravity splits on n = 2^k grids. Two eigh of order
    m cost about a quarter of one of order n.
    """
    m = a.shape[0] // 2
    a11, a12j = a[:m, :m], a[:m, m:][:, ::-1]
    lam_w, w = np.linalg.eigh(a11 + a12j)
    lam_z, z = np.linalg.eigh(a11 - a12j)
    return np.concatenate((lam_w, lam_z)), np.hstack((w, z))


def _symmetric_svd(lam: np.ndarray, vecs: np.ndarray, method: str) -> SpectralDecomposition:
    """The singular system of V diag(lam) V*: modes by |lam| non-increasing,
    truncated at SV_FLOOR max |lam|. For "centro" vecs holds the halves'
    eigenvectors [W Z], and only the retained modes are unfolded, in their
    final order, into the columns of [[W, Z], [J W, -J Z]] / sqrt(2)."""
    abs_lam = np.abs(lam)
    order = np.argsort(-abs_lam, kind="stable")
    top = abs_lam[order[0]]
    order = order[:0 if top == 0.0 else int((abs_lam >= SV_FLOOR * top).sum())]
    lam = lam[order]   # none is 0: |lam| >= SV_FLOOR max |lam| > 0
    # a copy, so the dropped modes' vectors go with vecs; np.take gathers
    # the columns four times faster than vecs[:, order] at n = 1024
    if method != "centro":
        u = np.take(vecs, order, axis=1)
    else:
        m = vecs.shape[0]
        u = np.empty((2 * m, order.size))
        # u[:m] is contiguous, and mode="clip" takes without a buffer
        np.take(vecs, order, axis=1, out=u[:m], mode="clip")
        u[:m] *= math.sqrt(0.5)
        np.multiply(u[m - 1::-1], np.where(order < m, 1.0, -1.0), out=u[m:])   # J w, -J z
    return SpectralDecomposition(sigmas=np.abs(lam), u=u, signs=np.sign(lam), method=method)


# ---------------------------------------------------------------------------
# File formats: MatrixMarket for matrices, one-value-per-line for vectors.
# Writers use 17 significant digits so write+read round-trips bit-exactly.
# ---------------------------------------------------------------------------

def not_utf8(path) -> ValueError:
    """The error for a text file that is not UTF-8: it names the file, the
    first line that does not decode and that line's first bad byte."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ValueError(f"{path}: line {lineno}: not UTF-8 text "
                                  f"(byte {line[exc.start]:#04x})")
    return ValueError(f"{path}: not UTF-8 text")


def _utf8_text(read: Callable) -> Callable:
    """read(path) with a file that is not UTF-8 reported by :func:`not_utf8`."""
    @functools.wraps(read)
    def checked(path):
        try:
            return read(path)
        except UnicodeDecodeError:
            raise not_utf8(path) from None
    return checked


# decimal_block: a value whose decimal exponent lies beyond +-_DECIMAL_EXP is
# formatted by %, so that the products below stay normal and finite. Writers
# hand it _DECIMAL_BLOCK values at a time; the trace CSV fills each block's
# rows straight from the trace's columns. The size trades the fixed cost of
# a call, about 100 numpy calls (0.1-0.2 ms), against its work arrays, about
# 86 bytes per value at their peak (0.67 MiB at 8192), which bound a writer's
# memory and should stay inside L2. On a 2-core host with 2 MiB of L2 per
# core, 8192 values wrote the ten figure traces and a 70,000-row trace
# 14-15% faster than 4096; 16384 was 9-11% faster still, but at 1.35 MiB
# per call it would not fit a 1 MiB L2, and holds more than two float
# columns of that trace.
_DECIMAL_EXP = 250
_DECIMAL_BLOCK = 8192
_SPLIT = 134217729.0   # 2^27 + 1, Dekker's splitting constant
_ROW18 = np.arange(18, dtype=np.uint8)[:, None]
_LEAD = np.array([48, 46, 48, 48, 48], np.uint8)[:, None]


@functools.cache
def _decimal_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """decimal_rows' tables, built on first use.

    scale: a row for each e from _DECIMAL_EXP down to -_DECIMAL_EXP (one
    gather of whole rows is three times faster than of four columns) holding
    hi, lo, and hi's Dekker halves, of 10^(16 - e): hi rounds 10^(16 - e) and
    lo rounds 10^(16 - e) - hi, both computed from Python ints (int / int
    rounds correctly), so hi + lo holds 10^(16 - e) to about 2^-106.
    groups: "0000" to "9999", each as the uint32 of its four ASCII bytes.
    zeros: the trailing zeros of each 4-digit group, 4 for "0000".
    suffix: "e-251" to "e+251" as 5 rows of bytes, NUL after two digits.
    """
    hi, lo = [], []
    q = 10 ** (_DECIMAL_EXP - 16)
    for _ in range(16 - _DECIMAL_EXP, 0):        # 10^j = 1 / q for j < 0
        h = 1 / q
        a, b = h.as_integer_ratio()               # h = a / b, b a power of 2
        hi.append(h)
        lo.append(math.ldexp((b - a * q) / q, 1 - b.bit_length()))
        q //= 10
    p = 1
    for _ in range(16 + _DECIMAL_EXP + 1):
        h = float(p)
        hi.append(h)
        lo.append(float(p - int(h)))
        p *= 10
    hi, lo = np.array(hi), np.array(lo)
    c = _SPLIT * hi
    hi1 = c - (c - hi)
    scale = np.stack([hi, lo, hi1, hi - hi1], axis=1)
    g = np.arange(10000, dtype=np.int16)
    ascii4 = np.empty((10000, 4), np.uint8)
    for k in range(4):
        ascii4[:, 3 - k] = g // 10 ** k % 10 + 48
    groups = ascii4.view(np.uint32).ravel()
    zeros = np.zeros(10000, np.uint8)
    for k in range(1, 5):
        zeros += g % 10 ** k == 0
    e = np.arange(-_DECIMAL_EXP - 1, _DECIMAL_EXP + 2)
    a = np.abs(e)
    three = a >= 100
    suffix = np.stack([np.full(e.size, ord("e")), np.where(e < 0, ord("-"), ord("+")),
                       48 + np.where(three, a // 100, a // 10),
                       48 + np.where(three, a // 10 % 10, a % 10),
                       np.where(three, 48 + a % 10, 0)]).astype(np.uint8)
    return scale, groups, zeros, suffix


def _scaled(ax: np.ndarray, e: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer part (int64) and fraction of ax * 10^(16 - e), good to about 1e-13
    for ax * 10^(16 - e) below 10^18."""
    p, err = _product(ax, *np.take(scale, _DECIMAL_EXP - e, axis=0).T)
    whole = np.floor(p)
    p -= whole
    p += err
    carry = np.floor(p)
    p -= carry
    return whole.astype(np.int64) + carry.astype(np.int64), p


def _product(ax: np.ndarray, hi: np.ndarray, lo: np.ndarray, hi1: np.ndarray,
             hi2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p and err with p + err = ax (hi + lo) to about 2^-106: Dekker's exact
    product of ax with hi, whose halves are hi1 and hi2, plus ax lo. The
    gathered table rows hi to hi2 are freed when it returns."""
    p = ax * hi
    a1 = _SPLIT * ax
    a1 -= a1 - ax                  # ax = a1 + a2, its Dekker halves
    a2 = ax - a1
    err = a1 * hi1
    err -= p
    err += a1 * hi2
    err += a2 * hi1
    err += a2 * hi2
    err += ax * lo
    return p, err


def _decimal_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits N (int64) and decimal exponent e of each value,
    and where they are exact: N = round(|x| 10^(16 - e)) in [10^16, 10^17),
    0 with e = 0 for a zero.

    N is not settled where e lies beyond +-_DECIMAL_EXP, where the fraction of
    the product lies within 1e-6 of a half (the product is good to about
    1e-13), or for a non-finite value.
    """
    scale = _decimal_tables()[0]
    ax = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(ax))
    exact = np.abs(e) <= _DECIMAL_EXP                  # False for 0, inf and nan
    e = np.where(exact, e, 0).astype(np.int16)
    ax = np.where(exact, ax, 1.0)
    digits, frac = _scaled(ax, e, scale)
    # log10 can be one off near a power of ten: correct e by the product, not
    # by its rounding. A product within 1e-6 below 10^16 or 10^17 counts as
    # that edge; either exponent then prints 1 followed by zeros.
    edge = digits + (frac > 1 - 1e-6)
    step = (edge >= 10 ** 17).astype(np.int64) - (edge < 10 ** 16)
    fix = np.flatnonzero(step)
    if fix.size:
        e_fix = e[fix] + step[fix]
        inside = np.abs(e_fix) <= _DECIMAL_EXP
        exact[fix] &= inside
        e[fix] = e_fix * inside
        digits[fix], frac[fix] = _scaled(ax[fix], e[fix], scale)
        edge[fix] = digits[fix] + (frac[fix] > 1 - 1e-6)
    exact &= (edge >= 10 ** 16) & (edge < 10 ** 17) & (np.abs(frac - 0.5) > 1e-6)
    digits += frac > 0.5
    up = digits == 10 ** 17                            # rounded up to 1 in the next decade
    digits -= up * (9 * 10 ** 16)
    e += up
    zero = x == 0
    digits *= ~zero
    e *= ~zero
    return digits, e, exact | zero


def _ascii_digits(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 digits of each N as ASCII, in rows 1 to 17 of a (19, n) array
    whose rows 0 and 18 are NUL, and the number of trailing zeros of each N
    (16 for 0), both read from the 4-digit group tables."""
    groups, zeros = _decimal_tables()[1:3]
    n = digits.size
    # digits 1-4, 5-8, 9-12 and 13-16, as the index type, which np.take
    # would otherwise copy them to
    g = np.empty((4, n), np.intp)
    d = np.zeros((19, n), np.uint8)
    np.floor_divide(digits, 10 ** 8, out=g[1])          # d0 .. d8
    np.subtract(digits, g[1] * 10 ** 8, out=g[3])      # d9 .. d16
    np.floor_divide(g[1], 10 ** 8, out=g[0])            # d0
    d[1] = g[0]
    d[1] += 48
    g[1] -= g[0] * 10 ** 8
    g[0] = g[1] // 10 ** 4
    g[1] -= g[0] * 10 ** 4
    g[2] = g[3] // 10 ** 4
    g[3] -= g[2] * 10 ** 4
    z = np.take(zeros, g)
    trailing = z[3] + (g[3] == 0) * (z[2] + (g[2] == 0) * (z[1] + (g[1] == 0) * z[0]))
    ascii = np.take(groups, g).view(np.uint8).reshape(4, n, 4)
    d[2:18].reshape(4, 4, n)[...] = ascii.transpose(0, 2, 1)
    return d, trailing


def decimal_block(block, blank_nonfinite: bool = False) -> bytes:
    """The rows of a 2-d array as ASCII text: each value exactly as "%.17g" % x
    prints it, which reads back bit for bit, values joined by commas and each
    row ended by a newline. Non-finite values print as nan, inf and -inf, or
    as empty cells under blank_nonfinite.

    The text is the cells of :func:`_decimal_cells` in value order with their
    NUL bytes dropped. Their work arrays are freed when that returns, so they
    and the text are never held at once.
    """
    block = np.asarray(block, dtype=float)
    cells = _decimal_cells(block.ravel(), block.shape[1], blank_nonfinite)
    return cells.T.tobytes().translate(None, b"\0")


def _decimal_cells(x: np.ndarray, cols: int, blank_nonfinite: bool) -> np.ndarray:
    """A (25, n) array of bytes: column j is the text of x[j], then a comma,
    or a newline after each cols-th value.

    The text is laid out by %g's rule in a 24-byte cell per value (enough for
    -1.2345678901234567e-308) whose unused bytes are NUL. The cell is the
    sign, then either "0." and up to three zeros followed by the digits
    (-4 <= e < 0), or the digits with the point after digit e (0 <= e < 17)
    or after the first one, followed by the exponent ("e-05", "e+123").
    Trailing zeros after the point, and a point with no digit after it, are
    NUL. No Python call is made per value but for the rare value whose
    digits are not settled (see :func:`_decimal_digits`), which is formatted
    by % instead, unless it is non-finite under blank_nonfinite and its cell
    stays empty.
    """
    digits, e, exact = _decimal_digits(x)
    n = x.size
    fixed = (e >= -4) & (e < 17)
    # a value whose digits are not settled gets no sign, "0.", digit or
    # exponent: its cell is empty until % fills it
    small = (fixed & (e < 0) & exact).view(np.uint8)
    body = _body(digits, e, exact, fixed & (e >= 0), small)
    lead = (_ROW18[:5] < 1 - e) * _LEAD    # "0." and -1 - e zeros, where small
    tail = np.take(_decimal_tables()[3], e + _DECIMAL_EXP + 1, axis=1) * (exact & ~fixed)

    cells = np.empty((25, n), np.uint8)
    cells[0] = (np.signbit(x) & exact) * np.uint8(45)
    _blend(cells[1:6], body[:5], lead, small)
    _blend(cells[6:19], body[5:], body[:13], small)
    _blend(cells[19:24], tail, body[13:], small)
    cells[24] = 44                        # a comma after each value, a newline after each row
    cells[24, cols - 1::cols] = 10
    slow = np.flatnonzero(~exact & (np.isfinite(x) | (not blank_nonfinite)))
    if slow.size:
        text = np.array(["%.17g" % v for v in x[slow].tolist()], dtype="S24")
        cells[:24, slow] = text.view(np.uint8).reshape(-1, 24).T
    return cells


def _body(digits: np.ndarray, e: np.ndarray, exact: np.ndarray, whole: np.ndarray,
          small: np.ndarray) -> np.ndarray:
    """The 18 body rows of each cell of :func:`_decimal_cells`: row i holds
    digit i up to digit `point`, then the point (NUL when no digit follows
    it), then digit i - 1; "0.ddd" has no point in its body. Trailing zeros
    go, but not those before the point, and a value whose digits are not
    settled keeps none. The digit rows are freed when it returns."""
    padded, trailing = _ascii_digits(digits)
    d, shifted = padded[1:], padded[:-1]   # digit i and digit i - 1 in row i
    keep = (np.maximum(17 - trailing, (e + 1) * whole) * exact).astype(np.uint8)
    d *= _ROW18 < keep
    point = np.where(whole, e, 17 * small).astype(np.uint8)
    body = d - shifted
    body *= _ROW18 <= point
    body += shifted
    # the point, in row point + 1 where there is one
    at = np.flatnonzero(point < 17)
    body[point[at] + 1, at] = (keep[at] > point[at] + 1) * np.uint8(46)
    return body


def _blend(out: np.ndarray, a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> None:
    """out = a + mask (b - a) in uint8, written in place: b where mask is 1, a
    where it is 0."""
    np.subtract(b, a, out=out)
    out *= mask
    out += a


def decimal_block_rows(cols: int) -> int:
    """How many rows of a table with cols columns go to one
    :func:`decimal_block` call: _DECIMAL_BLOCK values' worth, at least one."""
    return max(1, _DECIMAL_BLOCK // cols)


def decimal_rows(table, blank_nonfinite: bool = False) -> Iterator[bytes]:
    """The text of a 2-d array, as :func:`decimal_block` gives it, one block of
    :func:`decimal_block_rows` rows at a time."""
    table = np.asarray(table, dtype=float)
    step = decimal_block_rows(table.shape[1])
    for start in range(0, len(table), step):
        yield decimal_block(table[start:start + step], blank_nonfinite)


def write_matrix_market(path, matrix) -> None:
    """Write a dense matrix in MatrixMarket array format."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError("matrix must be 2-d")
    m, n = a.shape
    with open(path, "wb") as fh:
        fh.write(f"%%MatrixMarket matrix array real general\n{m} {n}\n".encode())
        # column-major, a block of columns copied at a time
        step = max(1, _DECIMAL_BLOCK // max(m, 1))
        for j in range(0, n, step):
            fh.writelines(decimal_rows(a[:, j:j + step].reshape(-1, 1, order="F")))


def _bad_value(text: str, row) -> str:
    return f"bad value {text!r}"


def _entries(path, skip: int, fields: str, comments, valid: Callable = np.isfinite,
             bad: Callable = _bad_value) -> np.ndarray:
    """The lines after the first ``skip`` that hold more than whitespace and
    comments, as one structured array: a column per letter of ``fields``,
    ``i`` and ``j`` int64 and ``v`` float.

    One np.loadtxt call reads them, each line cut at the first of the
    ``comments`` characters, and valid(*columns) must hold on every row. When
    either fails, the lines are halved until the first bad one is left, each
    half read the same way, so the search never disagrees with the read. The
    ValueError names that line, with bad(text, row) as the message: row is the
    line's record, or None where np.loadtxt refuses the line.
    """
    dtype = np.dtype([(f, np.int64 if f in "ij" else float) for f in fields])

    def load(source, skiprows=0) -> Optional[np.ndarray]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)     # no entry lines
            try:
                return np.loadtxt(source, dtype, comments=comments, skiprows=skiprows,
                                  ndmin=1, encoding="utf-8")
            except ValueError:
                return None

    def good(table: Optional[np.ndarray]) -> bool:
        return table is not None and valid(*(table[f] for f in fields)).all()

    table = load(path, skip)
    if good(table):
        return table
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()[skip:]
    lo, hi = 0, len(lines)              # lines[lo:hi] holds the first bad line
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if good(load(lines[lo:mid])):
            lo = mid
        else:
            hi = mid
    row = load(lines[lo:hi])
    if good(row):                       # no line is bad on its own
        raise ValueError(f"{path}: entries that np.loadtxt cannot read")
    text = lines[lo]
    for c in comments:
        text = text.partition(c)[0]
    raise ValueError(f"{path}: line {skip + lo + 1}: "
                     f"{bad(text.strip(), None if row is None else row[0])}")


@_utf8_text
def read_matrix_market(path) -> np.ndarray:
    """Read a real matrix in MatrixMarket array or coordinate format.

    An array entry line holds one value; a coordinate entry line holds
    ``i j value``, or just ``i j`` under the ``pattern`` field. Values must be
    finite, and ``%`` starts a comment on any line. Numbers, the sizes among
    them, follow np.loadtxt's grammar: the entry lines are read by
    :func:`_entries`, one call that is repeated by halves only to name a bad
    line. Errors report the bad line's 1-based number, as do bytes that are
    not UTF-8.
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
            dims = np.loadtxt([size_line], np.int64, comments="%", ndmin=1).tolist()
            if min(dims) < 0:
                raise ValueError
        except ValueError:
            raise ValueError(f"{path}: line {size_at}: bad size line {size_line!r}") from None
    need = 2 if fmt == "array" else 3
    if len(dims) != need:
        raise ValueError(f"{path}: line {size_at}: {fmt} size line needs {need} integers")
    m, n = dims[:2]
    if fmt == "array":
        values = _entries(path, size_at, "v", "%")["v"]
        if values.size != m * n:
            raise ValueError(f"{path}: expected {m * n} entries, found {values.size}")
        return np.ascontiguousarray(values.reshape(n, m).T)   # column-major entries

    def bad_entry(text: str, row) -> str:
        if row is not None and np.isfinite(row[-1]):      # read, yet not valid
            return f"index ({row[0]},{row[1]}) out of range"
        return f"bad coordinate entry {text!r}"

    fields = "ij" if qualifiers[0] == "pattern" else "ijv"
    table = _entries(path, size_at, fields, "%", lambda i, j, v=1.0: (
        (1 <= i) & (i <= m) & (1 <= j) & (j <= n) & np.isfinite(v)), bad_entry)
    if table.size != dims[2]:
        raise ValueError(f"{path}: expected {dims[2]} entries, found {table.size}")
    a = np.zeros((m, n))
    # a repeated (i, j): the last entry holds
    a[table["i"] - 1, table["j"] - 1] = table["v"] if "v" in fields else 1.0
    return a


def write_vector(path, vec) -> None:
    """Write a vector as one full-precision decimal per line."""
    v = np.asarray(vec, dtype=float)
    if v.ndim != 1:
        raise ValueError("vector must be 1-d")
    with open(path, "wb") as fh:
        fh.writelines(decimal_rows(v[:, None]))


@_utf8_text
def read_vector(path) -> np.ndarray:
    """Read a vector of finite numbers, one per line, by np.loadtxt's grammar
    (see :func:`_entries`); ``%`` and ``#`` start comments. Errors, bytes
    that are not UTF-8 among them, carry the line number."""
    values = _entries(path, 0, "v", ("%", "#"))["v"]
    if not values.size:
        raise ValueError(f"{path}: no values found")
    return values

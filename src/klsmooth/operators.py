"""Linear operators: forward/adjoint application, norm estimation, SVD, file I/O.

Two operator kinds are supported:

* ``diagonal`` -- infinite-dimensional diagonal operator truncated to n modes,
  stored as its singular values (positive, non-increasing).
* ``dense``    -- an explicit m-by-n real matrix. Integral operators on [0,1]
  (:func:`kernel_operator`) are dense matrices built by the midpoint rule on
  the nodes of :func:`midpoint_nodes`.

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

# plan() refuses a dense operator over this size in min(m, n); beyond it use
# the diagonal kind or skip spectral verification.
SVD_SIZE_LIMIT = 2048

# Singular values below this fraction of sigma_1 are numerically void.
SV_FLOOR = 1e-14

# A symmetric matrix of 8 BLOCK columns or more first tries a block of
# BLOCK columns (_leading_block); a smaller one's full eigh costs about what
# the block does. The block is accepted only when at least BLOCK_BELOW_FLOOR
# of its Ritz values fall below SV_FLOOR sigma_1 and the probe estimate of
# its residual from BLOCK_PROBES random vectors is at most BLOCK_RESIDUAL
# sigma_1: rounding, which reads 1.6-2.5e-14 sigma_1 on gravity at n = 512
# to 2048.
BLOCK = 64
BLOCK_BELOW_FLOOR = 10
BLOCK_PROBES = 8
BLOCK_RESIDUAL = 10 * SV_FLOOR

_POWER_ITER_SEED = 74025  # fixed seed so the step-size choice is reproducible


class ConvergenceError(RuntimeError):
    """Iterative computation did not reach tolerance; carries the best iterate."""

    def __init__(self, message: str, best: float | None = None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class LinearOperator:
    """A bounded linear map between finite-dimensional Hilbert spaces.

    Attributes:
        kind: "diagonal" or "dense".
        shape: (m, n) output/input dimensions.
        sigmas: singular values, diagonal kind only.
        matrix: the matrix, dense kind only.
    """

    kind: str
    shape: tuple[int, int]
    sigmas: Optional[np.ndarray] = None
    matrix: Optional[np.ndarray] = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Return A x."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.shape[1],):
            raise ValueError(f"expected input of length {self.shape[1]}, got shape {x.shape}")
        if self.kind == "diagonal":
            return self.sigmas * x
        return self.matrix @ x

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        """Return A* y (the transpose action for the dense kind)."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.shape[0],):
            raise ValueError(f"expected input of length {self.shape[0]}, got shape {y.shape}")
        if self.kind == "diagonal":
            return self.sigmas * y
        return self.matrix.T @ y

    @cached_property
    def symmetric(self) -> bool:
        """A dense matrix equal to its transpose bit for bit; tested once per
        operator, on first use, and defined for the dense kind only.

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
        """A square matrix that :func:`_splits`, tested once, as symmetric is."""
        return _splits(self.matrix)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Singular values sigma_i with left and right singular vectors u_i, v_i.

    A v_i = sigma_i u_i. u = v = None is the canonical basis (u_i = v_i = e_i)
    of a diagonal operator, left implicit. A symmetric decomposition
    A = U diag(lam) U* keeps no second n x r array: v = None, and its right
    vectors are v_i = signs_i u_i with signs_i = sign(lam_i). ``method``
    names what computed it: "canonical" (a diagonal operator's own sigmas),
    "svd", "eigh", "block" or "centro" (see :func:`svd`).
    """

    sigmas: np.ndarray
    u: Optional[np.ndarray] = None   # m x r, columns u_i
    v: Optional[np.ndarray] = None   # n x r, columns v_i
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
    return LinearOperator(kind="diagonal", shape=(n, n), sigmas=s)


def dense_operator(matrix) -> LinearOperator:
    """Operator backed by an explicit m-by-n matrix."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError("matrix must be 2-d")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return LinearOperator(kind="dense", shape=a.shape, matrix=a)


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
    plain dense operator.
    """
    if n < 2:
        raise ValueError("need at least 2 quadrature cells")
    t = midpoint_nodes(n)
    values = np.asarray(kernel(t[:, None], t[None, :]), dtype=float)
    if values.shape != (n, n) or not values.flags.writeable:
        values = np.broadcast_to(values, (n, n)).copy()
    values *= 1.0 / n
    return dense_operator(values)


def operator_norm(op: LinearOperator, tol: float = 1e-10, max_iters: int = 10000) -> float:
    """Estimate ||A|| = sigma_1.

    Exact for the diagonal kind; power iteration on A*A otherwise, started
    from a fixed pseudo-random vector so repeated runs give identical steps.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if op.kind == "diagonal":
        return float(op.sigmas.max())
    rng = np.random.default_rng(_POWER_ITER_SEED)
    v = rng.standard_normal(op.shape[1])
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(max_iters):
        with np.errstate(over="ignore", invalid="ignore"):
            w = op.apply_adjoint(op.apply(v))
            nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0  # v in the null space of a rank-deficient A
        if not np.isfinite(nw):
            raise ConvergenceError("operator norm overflowed during power iteration")
        new_est = np.sqrt(nw)  # ||A*A v|| with unit v converges to sigma_1^2
        v = w / nw
        if est > 0 and abs(new_est - est) <= tol * new_est:
            return float(new_est)
        est = new_est
    raise ConvergenceError(
        f"power iteration did not converge in {max_iters} iterations", best=float(est))


def plan(op: LinearOperator, block: bool = False) -> str:
    """The path :func:`svd` takes, from exact tests alone, each run once per
    operator: "canonical" (diagonal), "svd" (not symmetric bit for bit),
    "centro" (symmetric and :func:`_splits`) or "eigh". This is the one
    place that refuses a dense operator over SVD_SIZE_LIMIT. From 8 BLOCK
    columns svd() tries :func:`_leading_block` before the centrosymmetry
    test: ``block`` names it "block" there.
    """
    if op.kind == "diagonal":
        return "canonical"
    if min(op.shape) > SVD_SIZE_LIMIT:
        raise ValueError(f"operator exceeds the dense SVD limit {SVD_SIZE_LIMIT}")
    if not op.symmetric:
        return "svd"
    if block and op.shape[1] >= 8 * BLOCK:
        return "block"
    return "centro" if op.centrosymmetric else "eigh"


# plan_ns's fits, in nanoseconds, to one timing run of deriv2 from n = 32 to
# 2048 on 2 cores with 2 BLAS threads (Python 3.11, numpy 2.4.6, OpenBLAS):
# the SVD of an m x n matrix, m n (SVD_NS_PER_CUBE min(m, n) + SVD_NS_PER_ENTRY)
# within 26%, and eigh of order n, n^2 (EIGH_NS_PER_CUBE n + EIGH_NS_PER_ENTRY)
# within 21%.
SVD_NS_PER_CUBE = 0.37
SVD_NS_PER_ENTRY = 215.0
EIGH_NS_PER_CUBE = 0.083
EIGH_NS_PER_ENTRY = 108.0


def plan_ns(op: LinearOperator) -> float:
    """plan(op)'s decomposition in nanoseconds. "centro" is two eigh of order
    n/2, an upper bound where a half splits again (deriv2's odd half does);
    a block, accepted only after a product, is priced as its fallback."""
    path, (m, n) = plan(op), op.shape
    if path == "svd":
        return m * n * (SVD_NS_PER_CUBE * min(m, n) + SVD_NS_PER_ENTRY)
    count, order = {"canonical": (0, 0), "eigh": (1, n), "centro": (2, n / 2)}[path]
    return count * order * order * (EIGH_NS_PER_CUBE * order + EIGH_NS_PER_ENTRY)


def svd(op: LinearOperator) -> SpectralDecomposition:
    """Singular value decomposition, truncated at SV_FLOOR * sigma_1, by the
    path :func:`plan` names, or by :func:`_leading_block` where that block is
    tried and accepted. A diagonal operator keeps its stored sigmas (exact
    data, untruncated) and an implicit canonical basis. A symmetric matrix
    takes eigh, about three times faster than the SVD: from A = V diag(lam) V*,
    sigma = |lam|, u = V and v = sign(lam) V (Golub and Van Loan, Matrix
    Computations, sections 8.1 and 8.6), kept as the signs alone.
    """
    path = plan(op, block=True)
    if path == "canonical":
        return SpectralDecomposition(sigmas=op.sigmas.copy(), method="canonical")
    a = op.matrix
    try:
        if path == "block":
            sd = _leading_block(a)
            if sd is not None:
                return sd
            path = plan(op)
        if path == "centro":
            return _centro_halves(a)
        if path == "eigh":
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
    """The singular system of a symmetric matrix from a block of BLOCK
    columns, or None when that block cannot stand in for the full eigh.

    A randomized range finder with one power step and a Rayleigh-Ritz step
    (Halko, Martinsson and Tropp, SIAM Review 53(2), 2011, algorithms 4.4
    and 5.3): Y = A Omega for a Gaussian Omega from the fixed seed, so one
    matrix always gives one result; Q = qr(Y), one power step Q = qr(A Q),
    and the eigendecomposition W diag(lam) W* of Q* A Q gives the modes
    Q W. The block is accepted only when
    - at least BLOCK_BELOW_FLOOR of the Ritz values lam fall below
      SV_FLOOR max |lam|: the spectrum crossed the floor inside the block;
    - the a-posteriori estimate 10 sqrt(2/pi) max_j ||(I - Q Q*) A w_j||
      over BLOCK_PROBES fresh Gaussian w_j (section 4.3: it bounds
      ||(I - Q Q*) A|| except with probability 10^-BLOCK_PROBES) is at
      most BLOCK_RESIDUAL max |lam|: nothing above rounding lies outside Q.
    Before either, the Gram matrix Y* Y refuses a slowly decaying spectrum
    after one product: it needs BLOCK_BELOW_FLOOR of its eigenvalues, the
    squared singular values of Y, at or below SV_FLOOR times the largest.
    That is a singular value at 1e-7 of the largest, far above the floor the
    first test asks for (gravity has 39 such at n = 512 to 2048; deriv2's
    tenth smallest eigenvalue is 3e-8 of the largest).
    """
    n = a.shape[0]
    rng = np.random.default_rng(_POWER_ITER_SEED)
    y = a @ rng.standard_normal((n, BLOCK))
    gram = np.linalg.eigvalsh(y.T @ y)   # ascending
    if not gram[BLOCK_BELOW_FLOOR - 1] <= SV_FLOOR * gram[-1]:
        return None
    q = np.linalg.qr(a @ np.linalg.qr(y)[0])[0]
    # one product serves the Ritz step and the probe
    aq = a @ np.hstack((q, rng.standard_normal((n, BLOCK_PROBES))))
    aq, probe = aq[:, :BLOCK], aq[:, BLOCK:]
    b = q.T @ aq
    lam, w = np.linalg.eigh(0.5 * (b + b.T))
    top = np.abs(lam).max()
    if (np.abs(lam) < SV_FLOOR * top).sum() < BLOCK_BELOW_FLOOR:
        return None
    probe -= q @ (q.T @ probe)
    estimate = 10.0 * math.sqrt(2.0 / math.pi) * np.linalg.norm(probe, axis=0).max()
    if estimate > BLOCK_RESIDUAL * top:
        return None
    return _symmetric_svd(lam, q @ w, method="block")


def _centro_halves(a: np.ndarray) -> SpectralDecomposition:
    """The singular system of a symmetric matrix that :func:`_splits` (A = J A J,
    J the exchange matrix), from eigenproblems of half the size or less.

    With n = 2m and A = [[A11, A12], [A21, A22]], A is orthogonally similar
    to diag(A11 + A12 J, A11 - A12 J) (Cantoni and Butler, Linear Algebra
    Appl. 13, 1976): an eigenvector w of the first half gives the mode
    [w; J w] / sqrt(2), and z of the second [z; -J z] / sqrt(2), with the
    same eigenvalues. A12 J is symmetric bit for bit when A is symmetric
    and centrosymmetric bit for bit, so both halves are too, and each is
    decomposed by :func:`_centro_eigh`: split again while it :func:`_splits`,
    or by eigh. deriv2 and gravity split on n = 2^k grids, and deriv2's odd
    half (the Dirichlet Green's function on [0, 1/2]) splits again, so at
    n = 1024 it calls eigh on orders 512, 256, ..., 2, 1 and 1. Two eigh of
    order m cost about a quarter of one of order n.
    """
    return _symmetric_svd(*_centro_split(a), method="centro")


def _splits(a: np.ndarray) -> bool:
    """Whether a square matrix has even order and equals J A J bit for bit
    (about 5 ms at n = 2048). The top m rows against those of J A J test the
    whole matrix: the bottom rows are the same comparisons."""
    n = a.shape[0]
    return n % 2 == 0 and np.array_equal(a[:n // 2], a[::-1, ::-1][:n // 2])


def _centro_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of the halves A11 + A12 J and A11 - A12 J of a
    symmetric matrix that :func:`_splits`, and their eigenvectors side by
    side, [W Z] (m x n), each half by :func:`_centro_eigh`. Each half is
    freed once decomposed.
    """
    m = a.shape[0] // 2
    a11, a12j = a[:m, :m], a[:m, m:][:, ::-1]
    lam_w, w = _centro_eigh(a11 + a12j)
    lam_z, z = _centro_eigh(a11 - a12j)
    return np.concatenate((lam_w, lam_z)), np.hstack((w, z))


def _centro_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a symmetric matrix, unsorted: from
    its halves, recursively, while it is centrosymmetric bit for bit, and by
    eigh otherwise."""
    if not _splits(a):
        return np.linalg.eigh(a)
    lam, wz = _centro_split(a)
    return lam, _unfold(wz, np.arange(a.shape[0]))


def _unfold(wz: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Columns ``order`` of [[W, Z], [J W, -J Z]] / sqrt(2), the modes of a
    centrosymmetric matrix from the eigenvectors [W Z] of its halves."""
    m = wz.shape[0]
    out = np.empty((2 * m, order.size))
    # out[:m] is contiguous, and mode="clip" takes without a buffer
    np.take(wz, order, axis=1, out=out[:m], mode="clip")
    out[:m] *= math.sqrt(0.5)
    np.multiply(out[m - 1::-1], np.where(order < m, 1.0, -1.0), out=out[m:])   # J w, -J z
    return out


def _symmetric_svd(lam: np.ndarray, vecs: np.ndarray, method: str) -> SpectralDecomposition:
    """The singular system of V diag(lam) V*: modes by |lam| non-increasing,
    truncated at SV_FLOOR max |lam|. For "centro" vecs holds the halves'
    eigenvectors [W Z], and only the retained modes are unfolded, in their
    final order, into one n x r array."""
    abs_lam = np.abs(lam)
    order = np.argsort(-abs_lam, kind="stable")
    top = abs_lam[order[0]]
    order = order[:0 if top == 0.0 else int((abs_lam >= SV_FLOOR * top).sum())]
    lam = lam[order]   # none is 0: |lam| >= SV_FLOOR max |lam| > 0
    # a copy, so the dropped modes' vectors go with vecs; np.take gathers
    # the columns four times faster than vecs[:, order] at n = 1024
    u = _unfold(vecs, order) if method == "centro" else np.take(vecs, order, axis=1)
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


# decimal_rows: a value whose decimal exponent lies beyond +-_DECIMAL_EXP is
# formatted by %, so that the products below stay normal and finite; values
# are formatted _DECIMAL_BLOCK at a time, which keeps the work arrays in cache.
_DECIMAL_EXP = 250
_DECIMAL_BLOCK = 4096
_SPLIT = 134217729.0   # 2^27 + 1, Dekker's splitting constant
_ROW18 = np.arange(18, dtype=np.uint8)[:, None]


@functools.cache
def _decimal_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """decimal_rows' tables, built on first use.

    scale: rows hi, lo, and hi's Dekker halves, of 10^(16 - e) for e from
    _DECIMAL_EXP down to -_DECIMAL_EXP: hi rounds 10^(16 - e) and lo rounds
    10^(16 - e) - hi, both computed from Python ints (int / int rounds
    correctly), so hi + lo holds 10^(16 - e) to about 2^-106.
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
    scale = np.stack([hi, lo, hi1, hi - hi1])
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
    for ax * 10^(16 - e) below 10^18: Dekker's exact product of ax with
    10^(16 - e)'s high part, plus ax times its low part."""
    hi, lo, hi1, hi2 = np.take(scale, _DECIMAL_EXP - e, axis=1)
    p = ax * hi
    c = _SPLIT * ax
    a1 = c - (c - ax)
    a2 = ax - a1
    err = (((a1 * hi1 - p) + a1 * hi2) + a2 * hi1) + a2 * hi2    # p + err = ax * hi exactly
    whole = np.floor(p)
    t = (p - whole) + (err + ax * lo)
    carry = np.floor(t)
    return whole.astype(np.int64) + carry.astype(np.int64), t - carry


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
    e = np.where(exact, e, 0).astype(np.int64)
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
    """The 17 digits of each N as ASCII, in rows 0 to 16 of an (18, n) array
    whose row 17 is NUL, and the number of trailing zeros of each N (16 for
    0), both read from the 4-digit group tables."""
    groups, zeros = _decimal_tables()[1:3]
    n = digits.size
    high = (digits // 10 ** 8).astype(np.int32)        # d0 .. d8
    low = (digits - high * np.int64(10 ** 8)).astype(np.int32)
    g = np.empty((5, n), np.int32)
    g[0] = high // 10 ** 8
    g[2] = high - g[0] * 10 ** 8
    g[1] = g[2] // 10 ** 4
    g[2] -= g[1] * 10 ** 4
    g[3] = low // 10 ** 4
    g[4] = low - g[3] * 10 ** 4
    ascii = np.take(groups, g).view(np.uint8).reshape(5, n, 4)
    d = np.zeros((18, n), np.uint8)
    d[0] = ascii[0, :, 3]
    d[1:17].reshape(4, 4, n)[...] = ascii[1:].transpose(0, 2, 1)
    z = np.take(zeros, g[1:])
    trailing = z[3] + (g[4] == 0) * (z[2] + (g[3] == 0) * (z[1] + (g[2] == 0) * z[0]))
    return d, trailing


def _decimal_block(x: np.ndarray, sep: np.ndarray, blank_nonfinite: bool) -> str:
    """Each value of x as "%.17g" % x prints it, followed by its separator byte.

    The text is laid out by %g's rule in a 24-byte cell per value (enough for
    -1.2345678901234567e-308) whose unused bytes are NUL, and the NULs are
    dropped at the end. The cell is the sign, then either "0." and up to
    three zeros followed by the digits (-4 <= e < 0), or the digits with the
    point after digit e (0 <= e < 17) or after the first one, followed by the
    exponent ("e-05", "e+123"). Trailing zeros after the point, and a point
    with no digit after it, are NUL. A value whose digits are not settled
    (see :func:`_decimal_digits`) is formatted by % instead, but for a
    non-finite one under blank_nonfinite, whose cell stays empty.
    """
    digits, e, exact = _decimal_digits(x)
    d, trailing = _ascii_digits(digits)
    n = x.size
    fixed = (e >= -4) & (e < 17)
    small = (fixed & (e < 0)).view(np.uint8)
    whole = fixed & (e >= 0)
    # the digits written: trailing zeros go, but not those before the point
    keep = np.where(whole, np.maximum(17 - trailing, e + 1), 17 - trailing).astype(np.uint8)
    d *= _ROW18 < keep
    # body row i: digit i up to digit `point`, then the point (NUL when no
    # digit follows it), then digit i - 1; "0.ddd" has no point in its body
    point = np.where(whole, e, 17 * small).astype(np.uint8)
    shifted = np.zeros((18, n), np.uint8)
    shifted[1:] = d[:17]
    dot = (keep > point + 1) * np.uint8(46)
    body = (shifted + (_ROW18 <= point) * (d - shifted)
            + (_ROW18 == point + 1) * (dot - shifted))
    lead = np.empty((5, n), np.uint8)     # "0." and -1 - e zeros
    lead[0] = 48
    lead[1] = 46
    lead[2:] = (_ROW18[:3] < -1 - e) * np.uint8(48)
    tail = np.take(_decimal_tables()[3], e + _DECIMAL_EXP + 1, axis=1) * ~fixed

    cells = np.empty((25, n), np.uint8)
    cells[0] = np.signbit(x) * np.uint8(45)
    cells[1:6] = body[:5] + small * (lead - body[:5])
    cells[6:19] = body[5:] + small * (body[:13] - body[5:])
    cells[19:24] = tail + small * (body[13:] - tail)
    cells[:24] *= exact
    cells[24] = sep
    slow = np.flatnonzero(~exact & (np.isfinite(x) | (not blank_nonfinite)))
    if slow.size:
        text = np.array(["%.17g" % v for v in x[slow].tolist()], dtype="S24")
        cells[:24, slow] = text.view(np.uint8).reshape(-1, 24).T
    return cells.T.tobytes().translate(None, b"\0").decode("ascii")


def decimal_rows(table, blank_nonfinite: bool = False) -> Iterator[str]:
    """The rows of a 2-d array as text, a block of rows at a time: each value
    exactly as "%.17g" % x prints it, which reads back bit for bit, values
    joined by commas and each row ended by a newline. Non-finite values print
    as nan, inf and -inf, or as empty cells under blank_nonfinite.

    No Python call is made per value but for the rare value whose digits the
    double-double product cannot settle (see :func:`_decimal_block`).
    """
    table = np.asarray(table, dtype=float)
    rows, cols = table.shape
    step = max(1, _DECIMAL_BLOCK // cols)
    sep = np.tile(np.array([44] * (cols - 1) + [10], np.uint8), step)
    for start in range(0, rows, step):
        block = table[start:start + step].ravel()
        yield _decimal_block(block, sep[:block.size], blank_nonfinite)


def write_matrix_market(path, matrix) -> None:
    """Write a dense matrix in MatrixMarket array format."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError("matrix must be 2-d")
    m, n = a.shape
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix array real general\n{m} {n}\n")
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
    with open(path, "w") as fh:
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

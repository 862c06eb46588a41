import numpy as np
import pytest
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from klsmooth import cli, operators
from klsmooth.cli import ExperimentConfig, run_pipeline
from klsmooth.operators import (BLOCK, ConvergenceError, SineBasis,
                                SpectralDecomposition,
                                _decimal_digits, _symmetric_svd, decimal_rows,
                                dense_operator, diagonal_operator,
                                kernel_operator, midpoint_nodes, operator_norm,
                                read_matrix_market, read_vector, svd, write_matrix_market,
                                write_vector)
from klsmooth.problems import ProblemSpec, make_deriv2, make_gravity
from klsmooth.validation import DEFAULT_LEVELS

from _oracles import (deriv2_kernel, known_svd_problem, known_symmetric_problem,
                      matrix_market_oracle, planted_symmetric_problem, right_vectors,
                      sine_basis_oracle, vector_oracle)


def test_apply_diagonal():
    op = diagonal_operator([1.0, 0.5])
    assert np.allclose(op.apply(np.array([2.0, 2.0])), [2.0, 1.0])


def test_apply_identity():
    op = diagonal_operator(np.ones(7))
    x = np.arange(7.0)
    assert np.array_equal(op.apply(x), x)


def test_apply_dense_permutation():
    op = dense_operator([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(op.apply(np.array([3.0, 7.0])), [7.0, 3.0])
    assert np.allclose(op.apply_adjoint(np.array([3.0, 7.0])), [7.0, 3.0])


def test_apply_adjoint_diagonal():
    op = diagonal_operator([1.0, 0.5])
    assert np.allclose(op.apply_adjoint(np.array([2.0, 2.0])), [2.0, 1.0])


def test_dimension_mismatch():
    op = dense_operator(np.ones((3, 2)))
    with pytest.raises(ValueError):
        op.apply(np.ones(3))
    with pytest.raises(ValueError):
        op.apply_adjoint(np.ones(2))


def test_diagonal_validation():
    with pytest.raises(ValueError):
        diagonal_operator([1.0, -0.5])
    with pytest.raises(ValueError):
        diagonal_operator([0.5, 1.0])  # increasing


def test_adjoint_identity_random_dense():
    rng = np.random.default_rng(3)
    op = dense_operator(rng.standard_normal((5, 4)))
    x = rng.standard_normal(4)
    y = rng.standard_normal(5)
    lhs = float(op.apply(x) @ y)
    rhs = float(x @ op.apply_adjoint(y))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


@pytest.mark.parametrize("make_op", [
    lambda rng: diagonal_operator(np.sort(rng.uniform(0.1, 2.0, 12))[::-1]),
    lambda rng: dense_operator(rng.standard_normal((9, 6))),
    lambda rng: kernel_operator(deriv2_kernel, 16),
])
def test_adjoint_consistency_100_pairs(make_op):
    rng = np.random.default_rng(11)
    op = make_op(rng)
    norm = operator_norm(op)
    for _ in range(100):
        x = rng.standard_normal(op.shape[1])
        y = rng.standard_normal(op.shape[0])
        gap = abs(float(op.apply(x) @ y) - float(x @ op.apply_adjoint(y)))
        assert gap <= 1e-10 * norm * np.linalg.norm(x) * np.linalg.norm(y)


def test_norm_diagonal_exact():
    assert operator_norm(diagonal_operator([1.0, 0.5, 0.25])) == 1.0


def test_norm_dense_diagonal():
    assert operator_norm(dense_operator([[3.0, 0.0], [0.0, 4.0]])) == pytest.approx(4.0, rel=1e-9)


def test_norm_golden_ratio():
    # largest singular value of [[1,1],[0,1]] solves s^4 - 3 s^2 + 1 = 0
    expected = np.sqrt((3.0 + np.sqrt(5.0)) / 2.0)
    assert expected == pytest.approx(1.6180339887, abs=1e-9)
    got = operator_norm(dense_operator([[1.0, 1.0], [0.0, 1.0]]))
    assert got == pytest.approx(expected, rel=1e-9)


def test_norm_deterministic():
    op = dense_operator(np.random.default_rng(5).standard_normal((20, 15)))
    assert operator_norm(op) == operator_norm(op)


def test_norm_nonconvergence_reports_best(monkeypatch):
    monkeypatch.setattr(operators, "NORM_MAX_ITERS", 2)
    op = dense_operator(np.diag([2.0, 1.0]))
    with pytest.raises(ConvergenceError, match="did not converge in 2 iterations"):
        operator_norm(op)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**31 - 1))
def test_norm_dominates_random_vectors(seed):
    rng = np.random.default_rng(seed)
    op = dense_operator(rng.standard_normal((6, 5)))
    norm = operator_norm(op)
    x = rng.standard_normal(5)
    assert np.linalg.norm(op.apply(x)) <= norm * np.linalg.norm(x) * (1.0 + 1e-8)


def test_svd_diagonal():
    sd = svd(diagonal_operator([1.0, 0.5]))
    assert np.allclose(sd.sigmas, [1.0, 0.5])
    assert sd.u is None  # the canonical basis


def test_svd_diagonal_coefficients_need_no_basis():
    s = np.linspace(1.0, 0.1, 5000)
    sd = svd(diagonal_operator(s))
    assert sd.u is None
    y = np.random.default_rng(2).standard_normal(5000)
    assert np.array_equal(sd.coefficients(y), y)


def test_svd_permuted_diagonal():
    sd = svd(dense_operator([[0.0, 2.0], [1.0, 0.0]]))
    assert np.allclose(sd.sigmas, [2.0, 1.0])


def test_svd_reconstruction_and_singular_system():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((12, 9))
    op = dense_operator(a)
    sd = svd(op)
    u = sd.u
    assert np.linalg.norm(u.T @ u - np.eye(sd.sigmas.size)) <= 1e-12
    gaps = np.abs(np.linalg.norm(a.T @ u, axis=0) - sd.sigmas)
    assert np.all(gaps <= 1e-8 * sd.sigmas[0])
    assert np.linalg.norm(a - u @ (u.T @ a)) <= 1e-8 * sd.sigmas[0]


def test_svd_takes_the_eigensolver_only_for_a_symmetric_matrix(monkeypatch):
    # a matrix one ulp from symmetric takes the SVD; a LinAlgError of either
    # becomes a ConvergenceError. The planted matrix is not centrosymmetric,
    # so the full eigh runs
    calls, eigh = [], np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    a = planted_symmetric_problem(2, 16, np.geomspace(1.0, 1e-3, 16)).operator.matrix
    sd = svd(dense_operator(a))
    assert calls == [(16, 16)]
    assert np.abs(a @ right_vectors(sd) - sd.u * sd.sigmas).max() <= 1e-14 * sd.sigmas[0]
    nudged = a.copy()
    nudged[0, 1] = np.nextafter(nudged[0, 1], np.inf)
    op = dense_operator(nudged)
    assert not op.symmetric
    svd(op)
    assert calls == [(16, 16)]

    def failing(a):
        raise np.linalg.LinAlgError("planted")
    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(ConvergenceError, match="planted"):
        svd(dense_operator(a))


def _flat_tail(level, modes, n=512):
    """|lam| from 1 down to 1e-12 over 30 modes, then `modes` more at `level`."""
    return planted_symmetric_problem(3, n, np.concatenate((np.geomspace(1.0, 1e-12, 30),
                                                           np.full(modes, level)))).operator


@pytest.mark.parametrize("make, refused_by, modes", [
    # the Gram matrix of A Omega refuses slow decay after one product; deriv2
    # at n = 1000 is centrosymmetric only to 1 ulp, so the halves refuse it too
    (lambda: kernel_operator(deriv2_kernel, 1000), "sketch", None),
    (lambda: planted_symmetric_problem(3, 512, np.geomspace(1.0, 1e-6, 512)).operator,
     "sketch", None),
    # no singular value of B below the floor: 482 modes at 1e-8
    (lambda: _flat_tail(1e-8, 482), "floor", 512),
    # 300 modes of +-2e-14, just above the floor: B holds 34 of them at
    # 2e-14, and the floor test refuses it
    (lambda: _flat_tail(2e-14, 300), "floor", 330),
    # 400 modes of +-5e-15, each below the floor: 34 values of B fall below
    # it, and only the probe sees the 1.2e-12 sigma_1 the block cannot hold
    (lambda: _flat_tail(5e-15, 400), "probe", 30),
], ids=["deriv2-1000", "slow-geometric", "flat-1e-8-tail", "tail-above-floor",
        "tail-below-floor"])
def test_refused_block_runs_the_full_eigh_once(monkeypatch, make, refused_by, modes):
    op = make()
    n = op.shape[1]
    oracle = _symmetric_svd(*np.linalg.eigh(op.matrix), method="eigh")
    calls = []

    def counted(f):
        def call(a, *args, **kwargs):
            calls.append((f.__name__, a.shape))
            return f(a, *args, **kwargs)
        return call
    for name in ("eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    sd = svd(op)
    assert sd.method == "eigh"
    # the sketch refuses before B is formed; past it, B's SVD is the only one
    block = [] if refused_by == "sketch" else [("svd", (BLOCK, BLOCK))]
    assert calls == block + [("eigh", (n, n))]
    assert np.array_equal(sd.sigmas, oracle.sigmas)
    if modes is not None:
        assert sd.sigmas.size == modes
    if refused_by == "probe":
        monkeypatch.setattr(operators, "BLOCK_RESIDUAL", np.inf)
        assert svd(dense_operator(op.matrix)).method == "block"


def _mirror_nudged(n):
    """deriv2 on n cells, centrosymmetric bit for bit, with a[0, 1] and
    a[1, 0] one ulp up: still symmetric, no longer equal to its mirror."""
    a = kernel_operator(deriv2_kernel, n).matrix.copy()
    a[0, 1] = a[1, 0] = np.nextafter(a[0, 1], np.inf)
    return dense_operator(a)


@pytest.mark.parametrize("make", [
    lambda: kernel_operator(deriv2_kernel, 255),   # odd order
    lambda: _mirror_nudged(256),
], ids=["odd-255", "mirror-nudged-256"])
def test_centro_refusal_runs_the_full_eigh_once(monkeypatch, make):
    # deriv2 at n = 1000, 1 ulp from centrosymmetric, is refused in
    # test_refused_block_runs_the_full_eigh_once
    op = make()
    n = op.shape[1]
    assert op.symmetric
    calls, eigh = [], np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert svd(op).method == "eigh"
    assert calls == [(n, n)]


def test_block_decomposition_failure_is_a_convergence_error(monkeypatch):
    def failing(a, *args, **kwargs):
        raise np.linalg.LinAlgError("planted")
    monkeypatch.setattr(np.linalg, "qr", failing)   # the block alone calls qr
    with pytest.raises(ConvergenceError, match="planted"):
        svd(make_gravity(512).operator)


@pytest.mark.parametrize("make, signs", [
    (lambda: make_deriv2(256).operator, {-1.0}),   # negative definite, by its sine basis
    (lambda: planted_symmetric_problem(5, 64, np.geomspace(1.0, 1e-3, 64)).operator,
     {-1.0, 1.0}),                                  # indefinite, by eigh
], ids=["deriv2-256", "planted-indefinite-64"])
def test_right_split_by_signs_matches_an_explicit_basis(make, signs):
    # a symmetric decomposition keeps v = sign(lam) u as the signs alone;
    # its right split equals the split by the explicit n x r basis bit for
    # bit. deriv2's sine basis has no array to make that basis of: there the
    # same property reads as the left split with its coefficients times signs
    sd = svd(make())
    assert sd.v is None and set(sd.signs.tolist()) == signs
    n = sd.sigmas.size
    rng = np.random.default_rng(4)
    for vec in (rng.standard_normal(n), sd.u @ np.eye(n)[3] + 1e-3, np.ones(n)):
        coeffs, rest = sd.split(vec, right=True)
        if isinstance(sd.u, SineBasis):
            want, want_rest = sd.split(vec)
            want *= sd.signs
        else:
            explicit = SpectralDecomposition(sd.sigmas, u=sd.u, v=sd.u * sd.signs,
                                             method=sd.method)
            want, want_rest = explicit.split(vec, right=True)
        assert np.array_equal(coeffs, want) and rest == want_rest


@pytest.mark.parametrize("n", [8, 9, 255, 256, 777, 1024, 2048])
def test_sine_basis_products_match_the_gathered_basis(n):
    # u.T @ y and u @ c by FFT against the products of the n x n basis, on
    # a vector and on the columns of an n x 6 array, to 2e-15 of each
    # column's norm; the FFT is the more accurate of the two, within 3.2e-16
    # of a long-double product of the exact basis to n = 2048
    u, basis = sine_basis_oracle(n), SineBasis(n)
    rng = np.random.default_rng(n)
    for x in (rng.standard_normal(n), midpoint_nodes(n), rng.standard_normal((n, 6))):
        for got, want in ((basis.T @ x, u.T @ x), (basis @ x, u @ x)):
            assert got.shape == want.shape
            assert np.all(np.linalg.norm(got - want, axis=0)
                          <= 2e-15 * np.linalg.norm(want, axis=0))


def test_kernel_operator_scales_a_returned_array_in_place_and_copies_any_other():
    returned = []

    def kernel(s, t):
        returned.append(s + 2.0 * t)
        return returned[-1]
    op = kernel_operator(kernel, 4)
    assert op.matrix is returned[0]
    nodes = midpoint_nodes(4)
    assert np.array_equal(op.matrix, (nodes[:, None] + 2.0 * nodes[None, :]) * 0.25)
    # a scalar, a row and a read-only view are broadcast into a new array
    assert np.array_equal(kernel_operator(lambda s, t: 2.0, 4).matrix, np.full((4, 4), 0.5))
    assert np.array_equal(kernel_operator(lambda s, t: t, 4).matrix,
                          np.broadcast_to(nodes * 0.25, (4, 4)))
    view = np.broadcast_to(nodes, (4, 4))
    assert np.array_equal(kernel_operator(lambda s, t: view, 4).matrix, view * 0.25)


def test_svd_truncation_floor():
    op = dense_operator(np.diag([1.0, 1e-3, 1e-16]))
    sd = svd(op)
    assert sd.sigmas.size == 2


def test_svd_kernel_operator_is_dense():
    op = kernel_operator(deriv2_kernel, 16)
    assert op.kind == "dense"
    sd = svd(op)
    assert sd.sigmas.size > 0


def _planted_general(seed, n, sigmas):
    """An n x n problem U diag(sigmas) V*, U and V random orthogonal, with
    x_true = V (sigmas w) for w of size 0.5-1.5 and random sign."""
    rng = np.random.default_rng(seed)
    u, v = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    a = (u * sigmas) @ v.T
    x_true = v @ (sigmas * rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.5, n))
    return ProblemSpec(operator=dense_operator(a), y_clean=a @ x_true, x_true=x_true,
                       label="planted-general")


def test_svd_size_limit(monkeypatch):
    # over a limit of 512: sigma from 1 to 1e-6 over 600 modes, which the
    # sketch refuses, is refused with the limit's message and runs the loop
    # and CG; rank 40, which the block holds, takes it at any size
    monkeypatch.setattr(operators, "SVD_SIZE_LIMIT", 512)
    cfg = ExperimentConfig(landweber_max_iters=50, validation_run_tikhonov=True,
                           validation_levels=DEFAULT_LEVELS[-3:], validation_seeds=(0,),
                           validation_run_svd_check=True, estimator_k_min=2,
                           estimator_w_min=2, estimator_eps_mu=1e9, estimator_eps_c_rel=1e9)
    message = "operator exceeds the dense SVD limit 512"
    slow = _planted_general(2, 600, np.geomspace(1.0, 1e-6, 600))
    with pytest.raises(ValueError, match=message):
        svd(slow.operator)
    for p, paths, section in (
            (slow, ("matvec", "cg"), {"note": f"skipped: {message}"}),
            (known_svd_problem(1, 600, 600, 40)[0], ("closed-form", "filter-factors"),
             {"decomposition": "block"})):
        monkeypatch.setattr(cli, "build_problem", lambda cfg: p)
        report = run_pipeline(cfg)["report"]
        assert (report["landweber"]["path"], report["tikhonov_rate"]["solver"]) == paths
        assert section.items() <= report["svd_check"].items()


def test_a_known_singular_system_passes_the_size_limit(monkeypatch):
    # the limit bounds factorizations, and a known system needs none: it is
    # returned at any size, as a diagonal one is
    monkeypatch.setattr(operators, "SVD_SIZE_LIMIT", 16)
    for op, method in ((make_deriv2(32).operator, "dst"),
                       (diagonal_operator(np.geomspace(1.0, 1e-3, 32)), "canonical")):
        assert svd(op) is op.singular_system and op.singular_system.method == method
    with pytest.raises(ValueError, match="operator exceeds the dense SVD limit 16"):
        svd(kernel_operator(deriv2_kernel, 32))


# (operator, what svd() takes with the block refused, what it takes): the
# block stands in for "centro", "eigh" or "svd" when it is accepted
@pytest.mark.parametrize("make, unblocked, method", [
    (lambda: known_symmetric_problem(1, 64, 40)[0].operator, "eigh", "eigh"),
    (lambda: known_symmetric_problem(1, 64, 40, centro=True)[0].operator, "centro", "centro"),
    (lambda: known_svd_problem(1, 48, 32, 20)[0].operator, "svd", "svd"),
    (lambda: known_svd_problem(1, 700, 520, 40)[0].operator, "svd", "block"),
    (lambda: diagonal_operator(np.geomspace(1.0, 1e-3, 50)), "canonical", "canonical"),
    # deriv2's matrix without the built-in problem's known system
    (lambda: kernel_operator(deriv2_kernel, 256), "centro", "centro"),
    (lambda: make_gravity(256).operator, "centro", "centro"),
    (lambda: kernel_operator(deriv2_kernel, 1024), "centro", "centro"),
    (lambda: make_gravity(1024).operator, "centro", "block"),
    (lambda: kernel_operator(deriv2_kernel, 1000), "eigh", "eigh"),
    (lambda: make_deriv2(1024).operator, "dst", "dst"),
], ids=["symmetric-64", "centro-64", "general-48x32", "general-700x520", "diagonal-50",
        "deriv2-256", "gravity-256", "deriv2-1024", "gravity-1024", "deriv2-1000",
        "make-deriv2-1024"])
def test_plan_names_the_path_svd_takes(monkeypatch, make, unblocked, method):
    op = make()
    assert svd(op).method == method
    monkeypatch.setattr(operators, "_leading_block", lambda a: None)
    assert svd(op).method == unblocked


def test_exact_tests_run_once_and_only_where_svd_needs_them(monkeypatch):
    calls, equal = [], np.array_equal

    def counted(a, b):
        calls.append(a.shape)
        return equal(a, b)
    # the centrosymmetry test compares the top n/2 rows with the mirror's;
    # the symmetry test compares 64 x 64 tiles
    monkeypatch.setattr(np, "array_equal", counted)
    # decomposed twice: the operator's own test runs once, and the halves,
    # decomposed by eigh, are not tested
    op = kernel_operator(deriv2_kernel, 512)
    assert svd(op).method == "centro"
    assert svd(op).method == "centro"
    assert calls.count((256, 512)) == 1 and (128, 256) not in calls
    # the block accepts gravity before either exact test
    calls.clear()
    op = make_gravity(1024).operator
    assert svd(op).method == "block"
    assert calls == [] and "symmetric" not in vars(op) and "centrosymmetric" not in vars(op)
    # a known system is neither tested nor factorized
    calls.clear()
    op = make_deriv2(512).operator
    assert svd(op) is op.singular_system
    assert calls == [] and "symmetric" not in vars(op)


def test_second_derivative_spectrum_decay():
    # leading singular values of the Green's-function operator follow (i pi)^-2
    sd = svd(kernel_operator(deriv2_kernel, 64))
    i = np.arange(1, 17)
    slope = np.polyfit(np.log(i), np.log(sd.sigmas[:16]), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.05)
    assert sd.sigmas[0] == pytest.approx(1.0 / np.pi**2, rel=0.01)


def test_matrix_market_roundtrip(tmp_path):
    rng = np.random.default_rng(21)
    a = rng.standard_normal((10, 8))
    path = tmp_path / "a.mtx"
    write_matrix_market(path, a)
    back = read_matrix_market(path)
    assert np.max(np.abs(back - a)) <= 1e-15 * np.max(np.abs(a))


def test_matrix_market_roundtrip_bit_exact(tmp_path):
    a = np.array([[np.pi, 1e-300], [1.0 / 3.0, -2.5e17]])
    path = tmp_path / "a.mtx"
    write_matrix_market(path, a)
    assert np.array_equal(read_matrix_market(path), a)


def test_matrix_market_coordinate(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "% comment line\n"
                    "2 3 2\n"
                    "1 2 4.5\n"
                    "2 3 -1.0\n")
    a = read_matrix_market(path)
    assert a.shape == (2, 3)
    assert a[0, 1] == 4.5 and a[1, 2] == -1.0 and a[0, 0] == 0.0


def test_matrix_market_repeated_coordinate_entry_last_holds(tmp_path):
    path = tmp_path / "r.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 2 4.5\n"
                    "2 1 1.0\n1 2 7.0\n")
    assert np.array_equal(read_matrix_market(path), [[0.0, 7.0], [1.0, 0.0]])


def test_writers_print_one_17_digit_value_per_line(tmp_path):
    a = np.array([[np.pi, -0.0, 5e-324], [1.0 / 3.0, np.inf, -2.5e17]])
    write_matrix_market(tmp_path / "a.mtx", a)
    values = [a[i, j] for j in range(3) for i in range(2)]   # column-major
    assert (tmp_path / "a.mtx").read_text() == (
        "%%MatrixMarket matrix array real general\n2 3\n"
        + "".join(f"{x:.17g}\n" for x in values))
    write_vector(tmp_path / "v.txt", a[0])
    assert (tmp_path / "v.txt").read_text() == "".join(f"{x:.17g}\n" for x in a[0])


@pytest.mark.parametrize("m, n", [(7, 20), (100, 3)])
def test_matrix_market_text_over_odd_blocks(tmp_path, monkeypatch, m, n):
    # 59 values a block: 8 columns of 7 entries (56 values) a block and a
    # partial last one of 4 columns, or each 100-entry column split into 59
    # and 41 values
    monkeypatch.setattr(operators, "_DECIMAL_BLOCK", 59)
    rng = np.random.default_rng(14)
    a = np.exp(rng.uniform(-80, 80, (m, n))) * rng.choice([-1.0, 1.0], (m, n))
    a.T.reshape(-1)[58:61] = (np.nan, -np.inf, -0.0)     # column-major entries 58 to 60
    write_matrix_market(tmp_path / "a.mtx", a)
    assert (tmp_path / "a.mtx").read_text() == (
        f"%%MatrixMarket matrix array real general\n{m} {n}\n"
        + "".join(f"{x:.17g}\n" for x in a.T.ravel().tolist()))


def percent_17g(values):
    return ["%.17g" % x for x in np.asarray(values, dtype=float).tolist()]


def formatted(values):
    """decimal_rows' text of each value, one value per row."""
    column = np.asarray(values, dtype=float).reshape(-1, 1)
    return b"".join(decimal_rows(column)).decode("ascii").split("\n")[:-1]


# frac(|x| 10^(16 - e)) is 0.49999943 here, too near a half for the product
# to settle the rounding (found by a search over uniform draws); the second
# value is an exact tie, rounded to even
NEAR_HALF = (0.6437573485641276, 1234567890123456.75)
# decimal exponents beyond the scale table's +-250
OUT_OF_RANGE = (1e-300, -3.5e251, 1e300, 5e-324)
POWERS_OF_TEN = [x for k in range(-30, 31) for ten in [float(f"1e{k}")]
                 for x in (np.nextafter(ten, 0.0), ten, np.nextafter(ten, np.inf))]
PINNED = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-5, 1e-4,
          0.5, 2.0**53, 2.0**53 + 2, 9999999999999999.0, 1e16, 99999999999999999.0,
          *NEAR_HALF, *OUT_OF_RANGE, *POWERS_OF_TEN)


def pinned(values):
    def pin(test):
        for x in values:
            test = example(float(x))(test)
        return test
    return pin


@settings(deadline=None, max_examples=300, derandomize=True)
@given(st.floats())
@pinned(PINNED)
def test_decimal_rows_prints_what_percent_17g_prints(x):
    assert formatted([x]) == percent_17g([x])


def test_decimal_rows_matches_percent_17g_on_random_bit_patterns():
    x = np.random.default_rng(20).integers(0, 2**64, 10**5, dtype=np.uint64).view(np.float64)
    got, want = formatted(x), percent_17g(x)
    bad = [(v.hex(), g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


def test_powers_of_ten_and_their_neighbours_are_settled_by_the_product():
    # log10 puts some a decade off (the double nearest 1e-21 lies below
    # 10^-21, yet its log10 rounds to -21), and an exact power such as 1e20
    # can come out of the product just below 10^16: the exponent is
    # corrected, and only 999999999999999.875, a tie at its 17th digit, is
    # left to %
    x = np.array(POWERS_OF_TEN)
    settled = _decimal_digits(x)[2]
    assert x[~settled].tolist() == [999999999999999.875]
    assert formatted(x) == percent_17g(x)


def test_decimal_rows_formats_unsettled_values_by_percent():
    # the last value, NEAR_HALF[0]'s neighbour, is settled by the product
    x = np.array([*NEAR_HALF, *OUT_OF_RANGE, np.nan, -np.inf, 0.6437573485641277])
    assert _decimal_digits(x)[2].tolist() == [False] * 8 + [True]
    assert formatted(x) == percent_17g(x)
    table = np.array([[np.nan, 1.0], [np.inf, -np.inf], [2.5, NEAR_HALF[0]]])
    assert b"".join(decimal_rows(table, blank_nonfinite=True)) == (
        b",1\n,\n2.5,0.64375734856412758\n")


def test_matrix_market_pattern_entries_are_ones(tmp_path):
    # under the pattern field an entry line holds only i j; a value is an error
    path = tmp_path / "p.mtx"
    path.write_text("%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 1\n")
    assert np.array_equal(read_matrix_market(path), [[1.0, 0.0], [1.0, 0.0]])
    path.write_text("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1 2.0\n")
    with pytest.raises(ValueError, match="line 3: bad coordinate entry"):
        read_matrix_market(path)


@pytest.mark.parametrize("content,fragment", [
    ("", "empty"),
    ("%%MatrixMarket vector\n1 1\n0\n", "header"),
    ("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n", "expected 4 entries"),
    ("%%MatrixMarket matrix array real general\n2 2\n1\nfoo\n3\n4\n", "line 4"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1.0\n", "out of range"),
    ("%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n3\n4\n", "general"),
    ("%%MatrixMarket matrix array complex general\n1 1\n1 0\n", "complex"),
    # each entry line holds exactly its fields: no value dropped or made up
    ("%%MatrixMarket matrix array real general\n1 1\n1 7\n", "line 3: bad value '1 7'"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n2 2\n",
     "line 3: bad coordinate entry '2 2'"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 3.5 9 9\n",
     "line 3: bad coordinate entry '1 1 3.5 9 9'"),
    # a negative size is refused on its line, not where it is used
    ("%%MatrixMarket matrix coordinate real general\n-1 5 0\n", "line 2: bad size line '-1 5 0'"),
    ("%%MatrixMarket matrix array real general\n% c\n-1 2\n", "line 3: bad size line '-1 2'"),
    ("%%MatrixMarket matrix array real general\n2 x\n", "line 2: bad size line '2 x'"),
    # every value is finite, so the matrix file names the line
    ("%%MatrixMarket matrix array real general\n1 2\n1\ninf\n", "line 4: bad value 'inf'"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 nan\n",
     "line 3: bad coordinate entry '1 2 nan'"),
])
def test_matrix_market_parse_errors(tmp_path, content, fragment):
    path = tmp_path / "bad.mtx"
    path.write_text(content)
    with pytest.raises(ValueError, match=fragment):
        read_matrix_market(path)


# Files drawn for the reader oracle: a MatrixMarket array, coordinate or
# pattern file, or a vector, with comment and blank lines among the entries
# and at most one defect.
_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
            1.7976931348623157e308)
_REAL = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from(_SPECIAL)).map("%.17g".__mod__)
_INTEGER = st.integers(-10**6, 10**6).map(str)
_BAD_VALUE = st.sampled_from(["foo", "1.2.3", "--1", "1e", "0x1", "1,5", "1d3", "e5", "+-2", ".",
                              "nan(1)", "infx"])
_BAD_INDEX = st.sampled_from(["1.0", "1e0", "x", "0x1", "--1", "1.", "+"])
_DEFECTS = (None, None, "token", "fields", "missing", "extra", "range")


@st.composite
def reader_files(draw):
    """(kind, text, None): kind "matrix" or "vector", and the file's text."""
    kind = draw(st.sampled_from(["array", "coordinate", "pattern", "vector"]))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    field = "pattern" if kind == "pattern" else draw(st.sampled_from(["real", "integer"]))
    value = _INTEGER if field == "integer" else _REAL
    if kind in ("array", "vector"):
        rows = [[draw(value)] for _ in range(m * n)]
    else:
        rows = [[str(draw(st.integers(1, m))), str(draw(st.integers(1, n)))]
                + [draw(value)] * (kind == "coordinate") for _ in range(draw(st.integers(0, 6)))]
    defect = draw(st.sampled_from(_DEFECTS)) if rows else None
    k = draw(st.integers(0, len(rows) - 1)) if rows else 0
    if defect == "token":
        c = draw(st.integers(0, len(rows[k]) - 1))
        numeric = kind in ("array", "vector") or c == 2
        bad = _BAD_VALUE | st.just("nan") if kind == "vector" else _BAD_VALUE
        rows[k][c] = draw(bad if numeric else _BAD_INDEX)
    elif defect == "fields":
        rows[k] = rows[k][:-1] if len(rows[k]) > 1 and draw(st.booleans()) else rows[k] + ["1"]
    elif defect == "missing":
        del rows[k]
    elif defect == "extra":
        rows.insert(k, rows[k])
    elif defect == "range" and kind in ("coordinate", "pattern"):
        c = draw(st.integers(0, 1))
        rows[k][c] = str(draw(st.sampled_from([0, -1, (m, n)[c] + 1])))
    filler = st.sampled_from(["", "   ", "% a comment", "%%", "\t"]
                             + ["# a comment"] * (kind == "vector"))
    sep = st.sampled_from([" ", "  ", "\t"])
    lines = []
    for row in rows:
        lines += draw(st.lists(filler, max_size=2))
        lines.append(draw(sep).join(row))
    if kind != "vector":
        size = f"{m} {n}" if kind == "array" else f"{m} {n} {len(rows) - (defect == 'extra')}"
        if defect == "missing":
            size = f"{m} {n}" + f" {len(rows) + 1}" * (kind != "array")
        lines = ([f"%%MatrixMarket matrix {'array' if kind == 'array' else 'coordinate'} "
                  f"{field} general"] + draw(st.lists(filler, max_size=1)) + [size] + lines)
    return ("vector" if kind == "vector" else "matrix", "\n".join(lines) + "\n", None)


def read_both(kind, text):
    """Each reader's array, or the message of the ValueError it raised: the
    klsmooth reader's, then the oracle's."""
    readers = ((read_vector, vector_oracle) if kind == "vector"
               else (read_matrix_market, matrix_market_oracle))
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.txt"
        path.write_text(text)
        for read in readers:
            try:
                out.append(read(path))
            except ValueError as exc:
                out.append(str(exc).replace(str(path), "f"))
    return out


MM = "%%MatrixMarket matrix {} real general\n{}\n"


@settings(max_examples=250, deadline=None, derandomize=True)
@given(reader_files())
# the grammar is np.loadtxt's, on the size line too: "_" in a number and
# non-ASCII digits are refused, where float() and int() read 10, 3, 2 and 1
@example(("matrix", MM.format("array", "1 1") + "1_0\n", "f: line 3: bad value '1_0'"))
@example(("vector", "2\n\u0663\n", "f: line 2: bad value '\u0663'"))
@example(("matrix", MM.format("array", "0_1 1") + "5\n", "f: line 2: bad size line '0_1 1'"))
@example(("matrix", MM.format("coordinate", "2 2 1") + "1 0_2 2\n",
          "f: line 3: bad coordinate entry '1 0_2 2'"))
# text after "%" on an entry line, or after "#" in a vector file, is a
# comment where it was an error
@example(("matrix", MM.format("array", "2 1") + "1.5 % first\n2.5\n",
          MM.format("array", "2 1") + "1.5\n2.5\n"))
@example(("matrix", MM.format("coordinate", "2 2 1") + "2 1 -3%a\n",
          MM.format("coordinate", "2 2 1") + "2 1 -3\n"))
@example(("vector", "4.25 # x\n-1\n", "4.25\n-1\n"))
def test_readers_match_the_oracle_readers(case):
    # each valid file gives the oracle's array bit for bit; each malformed
    # one the oracle's message, which names the same line. A third item
    # pins a declared change: the message of a file the oracle read, or the
    # text of the file the oracle reads as this one
    kind, text, declared = case
    new, old = read_both(kind, text)
    if declared is None:
        assert type(new) is type(old)
        if isinstance(old, str):
            assert new == old
        else:
            assert new.shape == old.shape and new.tobytes() == old.tobytes()
    elif declared.startswith("f: line"):
        assert isinstance(old, np.ndarray) and new == declared
    else:
        assert isinstance(old, str)
        assert new.tobytes() == read_both(kind, declared)[1].tobytes()


def test_gravity_reads_back_the_same_as_array_and_as_coordinate(tmp_path):
    a = make_gravity(64).operator.matrix
    write_matrix_market(tmp_path / "a.mtx", a)
    i, j = np.nonzero(np.ones_like(a))
    lines = [f"{r + 1} {c + 1} {a[r, c]:.17g}\n" for r, c in zip(i.tolist(), j.tolist())]
    (tmp_path / "c.mtx").write_text("%%MatrixMarket matrix coordinate real general\n"
                                    f"64 64 {a.size}\n" + "".join(lines))
    for name in ("a.mtx", "c.mtx"):
        back = read_matrix_market(tmp_path / name)
        assert back.flags.c_contiguous and back.tobytes() == a.tobytes()


def test_vector_roundtrip(tmp_path):
    v = np.array([1.0, -2.5e-300, np.pi, 1e200])
    path = tmp_path / "v.txt"
    write_vector(path, v)
    assert np.array_equal(read_vector(path), v)


def test_vector_parse_error_has_line_number(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("1.5\nnope\n")
    with pytest.raises(ValueError, match="line 2"):
        read_vector(path)

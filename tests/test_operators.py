import numpy as np
import pytest
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from klsmooth import operators
from klsmooth.operators import (BLOCK, ConvergenceError, SVD_SIZE_LIMIT, SpectralDecomposition,
                                _decimal_digits, _symmetric_svd, decimal_rows,
                                dense_operator, diagonal_operator,
                                kernel_operator, midpoint_nodes, operator_norm, plan,
                                read_matrix_market, read_vector, svd, write_matrix_market,
                                write_vector)
from klsmooth.problems import deriv2_kernel, make_deriv2, make_gravity

from _oracles import (known_svd_problem, known_symmetric_problem, matrix_market_oracle,
                      planted_symmetric_problem, right_vectors, vector_oracle)


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


def test_norm_invalid_tol():
    with pytest.raises(ValueError):
        operator_norm(diagonal_operator([1.0]), tol=0.0)


def test_norm_nonconvergence_reports_best():
    op = dense_operator(np.diag([2.0, 1.0]))
    with pytest.raises(ConvergenceError) as err:
        operator_norm(op, tol=1e-10, max_iters=2)
    assert err.value.best is not None


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


@pytest.mark.parametrize("make, refused_by", [
    # the Gram matrix of A Omega refuses slow decay after one product; deriv2
    # at n = 1000 is centrosymmetric only to 1 ulp, so the halves refuse it too
    (lambda: kernel_operator(deriv2_kernel, 1000), "sketch"),
    (lambda: planted_symmetric_problem(3, 512, np.geomspace(1.0, 1e-6, 512)).operator, "sketch"),
    # no Ritz value below the floor: 482 modes at 1e-8
    (lambda: _flat_tail(1e-8, 482), "ritz"),
    # 300 modes of +-2e-14, just above the floor: Ritz values fall below it,
    # and only the probe sees what the block cannot hold
    (lambda: _flat_tail(2e-14, 300), "probe"),
], ids=["deriv2-1000", "slow-geometric", "flat-1e-8-tail", "tail-above-floor"])
def test_refused_block_runs_the_full_eigh_once(monkeypatch, make, refused_by):
    op = make()
    n = op.shape[1]
    oracle = _symmetric_svd(*np.linalg.eigh(op.matrix), method="eigh")
    calls, eigh = [], np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    sd = svd(op)
    assert sd.method == "eigh"
    assert calls == ([(n, n)] if refused_by == "sketch" else [(BLOCK, BLOCK), (n, n)])
    assert np.array_equal(sd.sigmas, oracle.sigmas)
    if refused_by == "probe":
        assert sd.sigmas.size == 330
        monkeypatch.setattr(operators, "BLOCK_RESIDUAL", np.inf)
        assert svd(dense_operator(op.matrix)).sigmas.size <= BLOCK


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
    (lambda: make_deriv2(256).operator, {-1.0}),   # negative definite, by centro
    (lambda: planted_symmetric_problem(5, 64, np.geomspace(1.0, 1e-3, 64)).operator,
     {-1.0, 1.0}),                                  # indefinite, by eigh
], ids=["deriv2-256", "planted-indefinite-64"])
def test_right_split_by_signs_matches_an_explicit_basis(make, signs):
    # a symmetric decomposition keeps v = sign(lam) u as the signs alone;
    # its right split equals the split by the explicit n x r basis bit for bit
    sd = svd(make())
    assert sd.v is None and set(sd.signs.tolist()) == signs
    explicit = SpectralDecomposition(sd.sigmas, u=sd.u, v=sd.u * sd.signs, method=sd.method)
    rng = np.random.default_rng(4)
    for vec in (rng.standard_normal(sd.u.shape[0]), sd.u[:, 3] + 1e-3, np.ones(sd.u.shape[0])):
        coeffs, rest = sd.split(vec, right=True)
        want, want_rest = explicit.split(vec, right=True)
        assert np.array_equal(coeffs, want) and rest == want_rest


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


def test_svd_size_limit():
    # the plan refuses it before any exact test: Fake has no matrix
    class Fake:
        kind = "dense"
        shape = (SVD_SIZE_LIMIT + 1, SVD_SIZE_LIMIT + 1)
    with pytest.raises(ValueError):
        svd(Fake())
    with pytest.raises(ValueError, match=f"operator exceeds the dense SVD limit {SVD_SIZE_LIMIT}"):
        plan(Fake())


# (operator, its plan, what svd() takes): the block stands in for the plan
# when it is accepted
@pytest.mark.parametrize("make, planned, method", [
    (lambda: known_symmetric_problem(1, 64, 40)[0].operator, "eigh", "eigh"),
    (lambda: known_symmetric_problem(1, 64, 40, centro=True)[0].operator, "centro", "centro"),
    (lambda: known_svd_problem(1, 48, 32, 20)[0].operator, "svd", "svd"),
    (lambda: diagonal_operator(np.geomspace(1.0, 1e-3, 50)), "canonical", "canonical"),
    (lambda: make_deriv2(256).operator, "centro", "centro"),
    (lambda: make_gravity(256).operator, "centro", "centro"),
    (lambda: make_deriv2(1024).operator, "centro", "centro"),
    (lambda: make_gravity(1024).operator, "centro", "block"),
    (lambda: make_deriv2(1000).operator, "eigh", "eigh"),
], ids=["symmetric-64", "centro-64", "general-48x32", "diagonal-50", "deriv2-256",
        "gravity-256", "deriv2-1024", "gravity-1024", "deriv2-1000"])
def test_plan_names_the_path_svd_takes(monkeypatch, make, planned, method):
    op = make()
    assert plan(op) == planned
    assert svd(op).method == method
    # with the block refused, svd() takes the plan
    monkeypatch.setattr(operators, "_leading_block", lambda a: None)
    assert svd(op).method == planned


def test_exact_tests_run_once_and_only_where_svd_needs_them(monkeypatch):
    calls, splits = [], operators._splits

    def counted(a):
        calls.append(a.shape[0])
        return splits(a)
    monkeypatch.setattr(operators, "_splits", counted)
    # priced, then decomposed: the operator's own test runs once, the
    # halves' tests as the split recurses
    op = make_deriv2(512).operator
    assert operators.plan_ns(op) > 0
    assert svd(op).method == "centro"
    assert calls.count(512) == 1 and 256 in calls
    # the block accepts gravity before any centrosymmetry test
    calls.clear()
    op = make_gravity(1024).operator
    assert svd(op).method == "block"
    assert calls == [] and "centrosymmetric" not in vars(op)


def test_plan_prices_two_half_size_eigh_for_centro():
    sym = known_symmetric_problem(1, 64, 40)[0].operator
    centro = known_symmetric_problem(1, 64, 40, centro=True)[0].operator
    general = known_svd_problem(1, 48, 32, 20)[0].operator
    eigh_ns = lambda n: n * n * (operators.EIGH_NS_PER_CUBE * n + operators.EIGH_NS_PER_ENTRY)
    assert operators.plan_ns(sym) == eigh_ns(64)
    assert operators.plan_ns(centro) == 2 * eigh_ns(32)
    assert operators.plan_ns(general) == pytest.approx(
        48 * 32 * (operators.SVD_NS_PER_CUBE * 32 + operators.SVD_NS_PER_ENTRY))
    assert operators.plan_ns(diagonal_operator(np.ones(10))) == 0.0


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


def percent_17g(values):
    return ["%.17g" % x for x in np.asarray(values, dtype=float).tolist()]


def formatted(values):
    """decimal_rows' text of each value, one value per row."""
    column = np.asarray(values, dtype=float).reshape(-1, 1)
    return "".join(decimal_rows(column)).split("\n")[:-1]


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
    assert "".join(decimal_rows(table, blank_nonfinite=True)) == (
        ",1\n,\n2.5,0.64375734856412758\n")


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

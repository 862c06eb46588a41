import numpy as np
import pytest

from klsmooth.operators import kernel_operator, midpoint_nodes, write_matrix_market, write_vector
from klsmooth.problems import (DEFAULT_GRAVITY_DEPTH, EXP_OPERATOR_MAX_N, add_noise,
                               load_external,
                               make_deriv2, make_exp_operator, make_exp_solution,
                               make_gravity, make_power_law)

from _oracles import deriv2_kernel, dense_deriv2, power_law_verif_terms


@pytest.mark.parametrize("eta,beta,mu", [(1, 2.5, 0.1), (2, 2.0, 0.375), (3, 1.5, 5.0 / 6.0)])
def test_power_law_mu_exact(eta, beta, mu):
    p = make_power_law(50, eta, beta)
    assert p.mu_exact == pytest.approx(mu, abs=1e-12)


@pytest.mark.parametrize("make", [
    lambda: make_power_law(200, 2, 2),
    lambda: make_exp_solution(200, 1.5),
    lambda: make_exp_operator(100, 2),
    lambda: make_deriv2(64),
    lambda: make_gravity(64),
], ids=["power_law", "exp_solution", "exp_operator", "deriv2", "gravity"])
def test_generator_data_consistency(make):
    # the data against a matrix product that does not go through apply: a
    # diagonal operator's diag(sigma), deriv2's oracle kernel matrix
    p = make()
    op = p.operator
    if op.matrix is not None:
        a = op.matrix
    elif op.singular_system.u is None:
        a = np.diag(op.singular_system.sigmas)
    else:
        a = dense_deriv2(op.shape[0]).operator.matrix
    gap = np.linalg.norm(p.y_clean - a @ p.x_true)
    assert gap <= 1e-12 * np.linalg.norm(p.y_clean)


def test_power_law_source_element():
    p = make_power_law(300, 2, 2)
    # (A*A)^mu w applied componentwise must reproduce the exact solution
    lifted = p.operator.singular_system.sigmas ** (2.0 * p.mu_exact) * p.source_w
    assert np.linalg.norm(lifted - p.x_true) <= 1e-8 * np.linalg.norm(p.x_true)


def test_power_law_validation():
    with pytest.raises(ValueError):
        make_power_law(1, 2, 2)
    with pytest.raises(ValueError):
        make_power_law(10, 0.5, 2)
    with pytest.raises(ValueError):
        make_power_law(10, 2, 0)


def test_summability_separates_around_mu_exact():
    # steep operator decay makes the +-0.05 margin visible in the growth ratio
    eta, beta = 2.0, 4.0
    p = make_power_law(10**4, eta, beta)
    below = power_law_verif_terms(eta, beta, p.mu_exact - 0.05, 10**4)
    above = power_law_verif_terms(eta, beta, p.mu_exact + 0.05, 10**4)
    s_below = np.cumsum(below)
    s_above = np.cumsum(above)
    assert s_below[-1] / s_below[len(s_below) // 2 - 1] < 1.1
    assert s_above[-1] / s_above[len(s_above) // 2 - 1] > 1.5


def test_exp_solution_values():
    p = make_exp_solution(10, 1.5)
    assert p.x_true[0] == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert p.mu_exact is None
    assert "supersmooth" in p.label


def test_exp_solution_data_small_case():
    p = make_exp_solution(4, 1.0)
    expected = [np.exp(-1.0), np.exp(-2.0) / 2.0, np.exp(-3.0) / 3.0, np.exp(-4.0) / 4.0]
    assert np.allclose(p.y_clean, expected, rtol=1e-14)


def test_exp_solution_summable_for_large_mu():
    # direct summation of i^30 e^(-2i): partial sums saturate
    i = np.arange(1, 2001, dtype=float)
    terms = np.exp(30.0 * np.log(i) - 2.0 * i)
    partial = np.cumsum(terms)
    assert partial[-1] / partial[len(partial) // 2 - 1] < 1.0 + 1e-12


def test_exp_operator_values():
    p = make_exp_operator(10, 2)
    assert np.allclose(p.x_true[:3], [1.0, 0.25, 1.0 / 9.0], rtol=1e-14)
    assert p.mu_exact is None
    assert "violated" in p.label


def test_exp_operator_data_small_case():
    p = make_exp_operator(3, 1.0)
    expected = [np.exp(-1.0), np.exp(-2.0) / 2.0, np.exp(-3.0) / 3.0]
    assert np.allclose(p.y_clean, expected, rtol=1e-14)


def test_exp_operator_divergent_terms():
    # i^-4 e^(4 mu i) grows without bound for every mu > 0; sums evaluated
    # with the peak factored out so nothing overflows
    i = np.arange(1, 401, dtype=float)
    for mu in (0.05, 0.5):
        log_terms = 4.0 * mu * i - 4.0 * np.log(i)
        partial = np.cumsum(np.exp(log_terms - log_terms.max()))
        assert partial[-1] / partial[len(partial) // 2 - 1] > 1.5


def test_exp_operator_cap():
    make_exp_operator(EXP_OPERATOR_MAX_N, 2)
    with pytest.raises(ValueError):
        make_exp_operator(EXP_OPERATOR_MAX_N + 1, 2)


def test_deriv2_kernel_values():
    assert deriv2_kernel(0.25, 0.75) == pytest.approx(-0.0625, abs=1e-15)
    assert deriv2_kernel(0.75, 0.25) == pytest.approx(-0.0625, abs=1e-15)
    p = dense_deriv2(16)
    s, t = midpoint_nodes(16)[[2, 10]]
    assert p.operator.matrix[2, 10] * 16 == pytest.approx(s * (t - 1.0), rel=1e-13)


def test_deriv2_kernel_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(20):
        s, t = rng.uniform(0, 1, 2)
        assert deriv2_kernel(s, t) == pytest.approx(deriv2_kernel(t, s), rel=1e-14)


def test_deriv2_consistency():
    # y_clean is make_deriv2's operator applied to x_true, so it is checked
    # against the product of the matrix that operator stands for
    p = make_deriv2(64)
    a = dense_deriv2(64).operator
    assert np.linalg.norm(p.y_clean - a.apply(p.x_true)) <= 1e-12 * np.linalg.norm(p.y_clean)
    assert p.mu_exact is None


@pytest.mark.parametrize("n", [8, 9, 255, 777, 1024, 2048])
def test_deriv2_applies_its_matrix_through_its_system(n):
    """make_deriv2's operator has no matrix; A x and A* x through its sine
    basis match the oracle matrix's products on random vectors to 1e-14,
    relative in norm."""
    op, a = make_deriv2(n).operator, dense_deriv2(n).operator.matrix
    assert op.matrix is None and op.kind == "diagonal"
    rng = np.random.default_rng(n)
    for x in rng.standard_normal((3, n)):
        for got, want in ((op.apply(x), a @ x), (op.apply_adjoint(x), a.T @ x)):
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("n", [8, 9, 255, 256, 777, 1024])
def test_deriv2_singular_system_matches_the_eigh_of_its_matrix(n):
    """make_deriv2's closed-form DST-II system against np.linalg.eigh of the
    built matrix: every eigenvalue -sigma_k to 1e-15 sigma_1, each mode up to
    sign within 8 eps sigma_1 / gap_k (the accuracy eigh's own vectors have
    by the sin-theta bound; deriv2's smallest gaps fall as n^-4), and an
    orthonormal basis with A V = V diag(lam) at rounding. The basis is
    applied by FFT; its matrix is read as its product with the identity."""
    sd, a = make_deriv2(n).operator.singular_system, dense_deriv2(n).operator.matrix
    s1, eps = sd.sigmas[0], np.finfo(float).eps
    assert sd.method == "dst" and sd.v is None and np.all(sd.signs == -1.0)
    u = sd.u @ np.eye(n)
    assert sd.sigmas.size == n and np.all(np.diff(sd.sigmas) < 0.0)
    lam, vecs = np.linalg.eigh(a)   # ascending: -sigma_1 first
    assert np.abs(lam + sd.sigmas).max() <= 1e-15 * s1
    gaps = np.abs(np.diff(sd.sigmas))
    gap = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))
    aligned = vecs * np.sign(np.sum(vecs * u, axis=0))
    assert np.all(np.abs(aligned - u).max(axis=0) <= 8 * eps * s1 / gap)
    assert np.abs(u.T @ u - np.eye(n)).max() <= 5e-15
    assert np.abs(a @ u + u * sd.sigmas).max() <= 1e-15 * s1


def test_gravity_kernel_values():
    p = make_gravity(32, depth=0.25)
    k = p.operator.matrix * 32
    assert k[5, 5] == pytest.approx(0.25 ** (-2.0), rel=1e-12)
    # K(0, 1) = 0.25 * (0.0625 + 1)^(-3/2), evaluated here at the corner nodes
    s, t = midpoint_nodes(32)[[0, -1]]
    expected = 0.25 * (0.0625 + (s - t) ** 2) ** (-1.5)
    assert k[0, -1] == pytest.approx(expected, rel=1e-12)
    # endpoint evaluation K(0, 1) = 0.25 * 1.0625^(-3/2)
    assert 0.25 * (0.0625 + 1.0) ** (-1.5) == pytest.approx(0.2282690, abs=5e-7)


@pytest.mark.parametrize("n", [8, 255, 256, 1000, 1024])
def test_kernels_match_the_broadcast_formulas_bit_for_bit(n):
    # each kernel evaluates into one array, which kernel_operator scales in
    # place; the matrices are those of the np.where and broadcast formulas
    nodes = midpoint_nodes(n)
    s, t = nodes[:, None], nodes[None, :]
    d = DEFAULT_GRAVITY_DEPTH
    deriv2 = np.broadcast_to(np.where(s <= t, s * (t - 1.0), t * (s - 1.0)), (n, n)) * (1.0 / n)
    gravity = np.broadcast_to(d * (d ** 2 + (s - t) ** 2) ** (-1.5), (n, n)) * (1.0 / n)
    assert np.array_equal(kernel_operator(deriv2_kernel, n).matrix, deriv2)
    assert np.array_equal(make_gravity(n).operator.matrix, gravity)


def test_gravity_validation():
    with pytest.raises(ValueError):
        make_gravity(4)
    with pytest.raises(ValueError):
        make_gravity(32, depth=0.0)


def test_add_noise_zero_level():
    p = make_power_law(50, 2, 2)
    nd = add_noise(p, 0.0, 1)
    assert np.array_equal(nd.y_delta, p.y_clean)
    assert nd.delta_abs == 0.0


def test_add_noise_exact_level():
    p = make_power_law(500, 2, 2)
    nd = add_noise(p, 0.01, 3)
    rel = np.linalg.norm(nd.y_delta - p.y_clean) / np.linalg.norm(p.y_clean)
    assert rel == pytest.approx(0.01, rel=1e-12)
    assert nd.delta_abs == pytest.approx(0.01 * np.linalg.norm(p.y_clean), rel=1e-12)


def test_add_noise_deterministic():
    p = make_power_law(100, 2, 2)
    a = add_noise(p, 0.05, 42)
    b = add_noise(p, 0.05, 42)
    assert np.array_equal(a.y_delta, b.y_delta)
    c = add_noise(p, 0.05, 43)
    assert not np.array_equal(a.y_delta, c.y_delta)


def test_add_noise_negative_level():
    p = make_power_law(10, 2, 2)
    with pytest.raises(ValueError):
        add_noise(p, -0.1, 0)


def test_load_external_identity(tmp_path):
    write_matrix_market(tmp_path / "a.mtx", np.eye(2))
    write_vector(tmp_path / "y.txt", np.array([1.0, 2.0]))
    p = load_external(tmp_path / "a.mtx", tmp_path / "y.txt")
    assert p.operator.shape == (2, 2)
    assert np.allclose(p.y_clean, [1.0, 2.0])
    assert p.x_true is None


def test_load_external_dimension_mismatch(tmp_path):
    write_matrix_market(tmp_path / "a.mtx", np.eye(3))
    write_vector(tmp_path / "y.txt", np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="mismatch"):
        load_external(tmp_path / "a.mtx", tmp_path / "y.txt")


def test_load_external_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    a = rng.standard_normal((10, 8))
    x = rng.standard_normal(8)
    write_matrix_market(tmp_path / "a.mtx", a)
    write_vector(tmp_path / "y.txt", a @ x)
    write_vector(tmp_path / "x.txt", x)
    p = load_external(tmp_path / "a.mtx", tmp_path / "y.txt", tmp_path / "x.txt")
    assert np.max(np.abs(p.operator.matrix - a)) <= 1e-15 * np.max(np.abs(a))
    assert np.array_equal(p.x_true, x)


def test_deriv2_pipeline_estimate_bracket():
    # end-to-end sanity on the kernel benchmark: the stable-window estimate
    # of the smoothness exponent lands near the analytic value 1/8
    import klsmooth as ks
    p = make_deriv2(256)
    trace = ks.landweber_run(p, p.y_clean, ks.LandweberConfig(max_iters=2000))
    track = ks.estimate_track(trace)
    assert track.stable_window is not None
    assert 0.1 <= track.mu_hat <= 0.25

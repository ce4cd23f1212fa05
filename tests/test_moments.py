import decimal
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import root
from scipy.special import expit as scipy_expit

import survcbps as sc
from survcbps.moments import (
    PropensityParams,
    _Design,
    _lstsq,
    _moment_gram,
    _moment_rows,
    _Moments,
    _rows_at,
    _solve,
    _weighted_gram,
    expit,
    jacobian_g,
    propensity,
    stack_g,
)
from survcbps.solver import _logstar
from tests.conftest import BAD_CLIPS


def test_propensity_closed_form():
    params = PropensityParams(beta=np.array([1.0, -2.0]), clip=0.01)
    x = np.array([0.3, 0.1])
    assert propensity(params, x) == pytest.approx(scipy_expit(0.3 - 0.2))
    xs = np.array([[0.3, 0.1], [10.0, 0.0], [-10.0, 0.0]])
    pis = propensity(params, xs)
    assert pis[1] == 0.99  # clipped high
    assert pis[2] == 0.01  # clipped low


def _ulps(a, b):
    """Units in the last place between same-sign finite floats."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_expit_is_within_two_ulp_of_the_rounded_logistic():
    z = np.linspace(-800.0, 800.0, 16001)
    ctx = decimal.Context(prec=50)
    exact = np.array([
        float(ctx.divide(1, ctx.add(1, ctx.exp(decimal.Decimal(-v)))))
        for v in z.tolist()
    ])
    got = expit(z)
    normal = exact >= np.finfo(float).tiny
    assert _ulps(got, exact)[normal].max() <= 2
    # below the normal range only absolute error is meaningful
    assert np.abs(got - exact)[~normal].max() < np.finfo(float).tiny
    # scipy's expit is within 2 ulp as well
    assert _ulps(got, scipy_expit(z))[normal].max() <= 4


def test_expit_takes_scalars_and_extremes_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        half = expit(0.0)
        assert half == 0.5 and type(half) is float
        assert expit(np.float64(-800.0)) == 0.0 and expit(800) == 1.0
        out = expit(np.array([[-1000.0, 0.0, 1000.0]]))
    assert out.shape == (1, 3) and out.tolist() == [[0.0, 0.5, 1.0]]


def test_stacked_gram_mirrors_its_upper_triangle_exactly():
    rng = np.random.default_rng(4)
    n, q = 300, 6
    x = rng.standard_normal((n, q))
    w = rng.integers(0, 3, (5, n)).astype(float)
    design = _Design(x)
    gram = design.gram(w)
    assert design._outer.shape == (n, q * (q + 1) // 2)
    np.testing.assert_array_equal(gram, gram.transpose(0, 2, 1))
    np.testing.assert_allclose(
        gram, np.einsum("ni,bn,nj->bij", x, w, x), rtol=1e-12, atol=1e-9
    )


def test_params_validation():
    with pytest.raises(sc.InputError):
        PropensityParams(beta=np.array([np.nan]))
    for clip in (0.6, *BAD_CLIPS):
        with pytest.raises(sc.InputError, match="clip"):
            PropensityParams(beta=np.array([1.0]), clip=clip)


def record_moments(params, data, i, k1, k0):
    """Oracle: the p + 2 moment components of record i, one scalar at a time."""
    x, y = data.x[i], float(data.y[i])
    d, delta = int(data.d[i]), int(data.delta[i])
    pi = propensity(params, x)
    balance = (d / pi - (1 - d) / (1 - pi)) * x
    cal1 = d * delta / (pi * k1.evaluate(y)) - 1.0
    cal0 = (1 - d) * delta / ((1 - pi) * k0.evaluate(y)) - 1.0
    return np.concatenate((balance, [cal1], [cal0]))


def test_stacked_moment_values_single_record(toy_data):
    params = PropensityParams(beta=np.full(toy_data.p, 0.1))
    k1 = sc.fit_censoring_km(toy_data, 1)
    k0 = sc.fit_censoring_km(toy_data, 0)
    gmat = stack_g(params, toy_data, k1, k0)
    assert gmat.shape == (toy_data.n, toy_data.p + 2)
    for i in range(toy_data.n):
        np.testing.assert_allclose(
            gmat[i], record_moments(params, toy_data, i, k1, k0), rtol=1e-12
        )


def test_balance_jacobian_at_zero_is_minus_gram(toy_data):
    # at beta = 0 every propensity is 1/2 and the derivative scalar is -1
    params = PropensityParams(beta=np.zeros(toy_data.p))
    k1 = sc.fit_censoring_km(toy_data, 1)
    k0 = sc.fit_censoring_km(toy_data, 0)
    jac = jacobian_g(params, toy_data, k1, k0)
    gram = toy_data.x.T @ toy_data.x / toy_data.n
    np.testing.assert_allclose(jac[: toy_data.p], -gram, rtol=1e-12)


def test_jacobian_matches_finite_differences(toy_data):
    k1 = sc.fit_censoring_km(toy_data, 1)
    k0 = sc.fit_censoring_km(toy_data, 0)
    rng = np.random.default_rng(11)
    for _ in range(5):
        beta = rng.uniform(-0.3, 0.3, toy_data.p)
        params = PropensityParams(beta=beta)
        jac = jacobian_g(params, toy_data, k1, k0)
        h = 1e-6
        for j in range(toy_data.p):
            up = beta.copy()
            up[j] += h
            dn = beta.copy()
            dn[j] -= h
            col = (
                stack_g(PropensityParams(beta=up), toy_data, k1, k0).mean(axis=0)
                - stack_g(PropensityParams(beta=dn), toy_data, k1, k0).mean(axis=0)
            ) / (2 * h)
            np.testing.assert_allclose(jac[:, j], col, rtol=1e-4, atol=1e-7)


def test_clipped_rows_have_zero_derivative():
    rng = np.random.default_rng(2)
    n = 40
    x = np.column_stack((np.full(n, 8.0), rng.standard_normal(n)))
    d = np.array([1, 0] * (n // 2))
    y = rng.exponential(1.0, n) + 0.1
    delta = np.ones(n, dtype=int)
    data = sc.Dataset(y=y, delta=delta, d=d, x=x)
    k1 = sc.fit_censoring_km(data, 1)
    k0 = sc.fit_censoring_km(data, 0)
    # x1 coefficient 1.0 pushes every raw propensity above 1 - clip
    params = PropensityParams(beta=np.array([1.0, 0.0]), clip=0.01)
    jac = jacobian_g(params, data, k1, k0)
    np.testing.assert_allclose(jac, np.zeros_like(jac), atol=1e-14)


def test_balance_root_recovers_weight_equality():
    """Solving the balance block alone equalizes weighted covariate sums."""
    rng = np.random.default_rng(23)
    n, p = 400, 2
    x = rng.standard_normal((n, p))
    d = (rng.random(n) < scipy_expit(x @ np.array([0.7, -0.4]))).astype(int)
    y = rng.exponential(1.0, n)
    data = sc.Dataset(y=y, delta=np.ones(n, dtype=int), d=d, x=x)
    k1 = sc.fit_censoring_km(data, 1)
    k0 = sc.fit_censoring_km(data, 0)

    def balance_mean(beta):
        params = PropensityParams(beta=beta, clip=1e-4)
        return stack_g(params, data, k1, k0).mean(axis=0)[:p]

    sol = root(balance_mean, np.zeros(p), tol=1e-12)
    assert sol.success
    np.testing.assert_allclose(balance_mean(sol.x), np.zeros(p), atol=1e-9)
    pi = propensity(PropensityParams(beta=sol.x, clip=1e-4), data.x)
    w_t = (d / pi)[d == 1]
    lhs = (data.x[d == 1] * w_t[:, None]).sum(axis=0)
    w_c = ((1 - d) / (1 - pi))[d == 0]
    rhs = (data.x[d == 0] * w_c[:, None]).sum(axis=0)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-7)


def test_beta_length_checked(toy_data):
    k1 = sc.fit_censoring_km(toy_data, 1)
    k0 = sc.fit_censoring_km(toy_data, 0)
    bad = PropensityParams(beta=np.zeros(toy_data.p + 1))
    with pytest.raises(sc.InputError):
        stack_g(bad, toy_data, k1, k0)
    with pytest.raises(sc.InputError):
        jacobian_g(bad, toy_data, k1, k0)


def test_symmetric_products_match_general_products(toy_data):
    def close(sym, general):
        np.testing.assert_array_equal(sym, sym.T)
        scale = np.max(np.abs(general))
        np.testing.assert_allclose(sym, general, rtol=0, atol=1e-12 * scale)

    rng = np.random.default_rng(8)
    # the inner dual's Hessian, with rows on both branches of log*
    g = rng.standard_normal((500, 40))
    lam = rng.normal(scale=0.5, size=40)
    d2 = _logstar(1.0 + g @ lam, 1.0 / 500, derivs=True)[2]
    assert np.any(1.0 + g @ lam < 1.0 / 500)
    close(_weighted_gram(g, -d2), -(g.T @ (d2[:, None] * g)))

    # the balance block of the moment Jacobian, clipped rows included
    k1 = sc.fit_censoring_km(toy_data, 1)
    k0 = sc.fit_censoring_km(toy_data, 0)
    x, n, p = toy_data.x, toy_data.n, toy_data.p
    kdy = np.where(toy_data.d == 1, k1.evaluate(toy_data.y), k0.evaluate(toy_data.y))
    for beta in (np.zeros(p), rng.uniform(-0.5, 0.5, p), np.full(p, 2.0)):
        params = PropensityParams(beta=beta)
        b = _moment_rows(
            beta, params.clip, x, toy_data.d.astype(float),
            toy_data.delta.astype(float), kdy,
        )[3][0]
        close(jacobian_g(params, toy_data, k1, k0)[:p], (x * b[:, None]).T @ x / n)


def _clip_fixture(seed, n=150, p=4, clip=0.05):
    """Data, curves and params whose rows include clipped propensities and
    rows within 1e-9 of either clip bound in x' beta."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p)) * rng.uniform(0.5, 3.0, p)
    beta = rng.uniform(-1.5, 1.5, p)
    bound = math.log((1.0 - clip) / clip)
    for i, target in enumerate((bound, -bound)):
        for k, shift in enumerate((-1e-9, 1e-9)):
            row = 2 * i + k
            x[row] *= (target + shift) / (x[row] @ beta)
    d = (rng.random(n) < 0.5).astype(int)
    d[:2], d[2:4] = 1, 0
    t = rng.exponential(2.0, n)
    c = rng.exponential(4.0, n)
    data = sc.Dataset(y=np.minimum(t, c), delta=(t <= c).astype(int), d=d, x=x)
    k1 = sc.fit_censoring_km(data, 1)
    k0 = sc.fit_censoring_km(data, 0)
    params = PropensityParams(beta=beta, clip=clip)
    assert np.any(np.abs(x @ beta) > bound + 1e-3)
    return data, k1, k0, params, rng


@pytest.mark.parametrize("seed", range(6))
def test_factored_products_equal_the_dense_moment_matrix(seed):
    """g v, g' u, g' diag(h) g and V = g'g / n from the operator agree with
    the products of stack_g's dense matrix, each entry within 1e-12 of the
    sum of its terms' magnitudes."""
    data, k1, k0, params, rng = _clip_fixture(seed)
    g = _rows_at(params, data, k1, k0)[0]
    dense = stack_g(params, data, k1, k0)
    n, m = dense.shape
    assert g.shape == (n, m) and m == data.p + 2
    mag = np.abs(dense)

    def close(got, want, scale):
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    v = rng.standard_normal(m)
    close(g.dot(v), dense @ v, mag @ np.abs(v))
    u = rng.standard_normal(n)
    close(g.tdot(u), dense.T @ u, mag.T @ np.abs(u))
    h = rng.exponential(1.0, n)
    h[rng.random(n) < 0.2] = 0.0
    gram = _moment_gram(g, h)
    np.testing.assert_array_equal(gram, gram.T)
    close(gram, dense.T @ (h[:, None] * dense), mag.T @ (h[:, None] * mag))
    close(_moment_gram(g, np.ones(n)) / n, dense.T @ dense / n, mag.T @ mag / n)
    # the operator holds the per-beta a and border, not x
    assert g.nbytes == 3 * n * 8


def test_a_dense_matrix_is_the_operator_with_unit_scale_and_no_border():
    """Wrapped, a dense matrix gives its own products bit for bit."""
    rng = np.random.default_rng(12)
    dense = rng.standard_normal((200, 7))
    g = _Moments(dense)
    v, u, h = rng.standard_normal(7), rng.standard_normal(200), rng.random(200)
    np.testing.assert_array_equal(g.dot(v), dense @ v)
    np.testing.assert_array_equal(g.tdot(u), dense.T @ u)
    np.testing.assert_array_equal(_moment_gram(g, h), _weighted_gram(dense, h))


@pytest.mark.parametrize("singular", [[0], [1], [0, 2]])
def test_solve_gives_each_singular_system_its_fallback(singular):
    """In a stack of any size, a singular system takes the fallback alone."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 4, 4))
    a = a @ a.transpose(0, 2, 1) + np.eye(4)
    a[singular] = np.ones((4, 4))
    b = rng.standard_normal((3, 4))
    x = _solve(a, b, _lstsq)
    for k in range(3):
        expected = _lstsq(a[k], b[k]) if k in singular else np.linalg.solve(a[k], b[k])
        np.testing.assert_allclose(x[k], expected, rtol=1e-12, atol=0)

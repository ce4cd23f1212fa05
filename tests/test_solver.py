import math
import re
import time
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.optimize import minimize

import survcbps as sc
from survcbps.scad import ScadParams
from survcbps.moments import (
    _moment_gram,
    _moment_rows,
    _Moments,
    _profile_grad,
    _weighted_gram,
)
from survcbps.solver import (
    ELDualState,
    _FactorSlot,
    _logstar,
    _Path,
    default_tau_grid,
    fit_pel,
    select_tau,
    solve_inner_dual,
)
from tests.conftest import (
    BAD_CLIPS,
    Untouched,
    full_path_select,
    small_dataset,
)


def oracle_pseudo_log(z, eps):
    """Reference pseudo-logarithm written independently of the solver.

    log(z) on [eps, inf); below eps, the quadratic with matching value,
    slope and curvature at eps: log(eps) - 3/2 + 2 z / eps - z^2 / (2 eps^2).
    """
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    hi = z >= eps
    out[hi] = np.log(z[hi])
    zl = z[~hi]
    out[~hi] = np.log(eps) - 1.5 + 2.0 * zl / eps - zl**2 / (2.0 * eps**2)
    return out


def oracle_dual_value(lam, g):
    n = g.shape[0]
    return float(np.sum(oracle_pseudo_log(1.0 + g @ lam, 1.0 / n)))


def oracle_pseudo_log_slope(z, eps):
    """log*'(z), written independently of the solver: 1/z on [eps, inf),
    2/eps - z/eps^2 below."""
    return np.where(z >= eps, 1.0 / np.maximum(z, eps), 2.0 / eps - z / eps**2)


def oracle_dual_gradient(lam, g):
    n = g.shape[0]
    return g.T @ oracle_pseudo_log_slope(1.0 + g @ lam, 1.0 / n)


def oracle_el_weights(lam, g):
    """EL weights (1/n) log*'(1 + g_i' lam)."""
    n = g.shape[0]
    return oracle_pseudo_log_slope(1.0 + g @ lam, 1.0 / n) / n


def maximize_dual_generic(g):
    """Brute-force maximizer via a generic quasi-Newton routine."""
    res = minimize(
        lambda lam: -oracle_dual_value(lam, g),
        np.zeros(g.shape[1]),
        jac=lambda lam: -oracle_dual_gradient(lam, g),
        method="BFGS",
        options={"gtol": 1e-12, "maxiter": 2000},
    )
    return res.x, -res.fun


def random_moment_matrix(rng):
    """Moment rows with a known interior dual maximizer.

    Draw target weights w and a target multiplier lam, then shear random
    rows so that 1 + g_i' lam = 1 / (n w_i) and sum_i w_i g_i = 0 hold
    exactly. The dual is strictly concave, so lam is its unique maximizer
    and the fixture is feasible by construction.
    """
    n = int(rng.integers(5, 21))
    m = int(rng.integers(1, 5))
    u = rng.uniform(0.5, 1.5, n)
    w = u / u.sum()
    z = 1.0 / (n * w)
    direction = rng.standard_normal(m)
    lam = direction / np.linalg.norm(direction) * (0.1 + 0.4 * rng.random())
    a = rng.standard_normal((n, m))
    g = a - w @ a  # weighted mean removed: sum_i w_i g_i = 0
    # shift each row along lam to land on the target z; the correction has
    # zero weighted mean because sum w (z - 1) = 0, so stationarity survives
    g = g + np.outer((z - 1.0 - g @ lam) / float(lam @ lam), lam)
    return g, lam


def test_inner_dual_matches_generic_optimizer():
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    for _ in range(120):
        g, lam_known = random_moment_matrix(rng)
        state = solve_inner_dual(g)
        assert state.converged
        np.testing.assert_allclose(state.lam, lam_known, atol=1e-6)
        lam_ref, val_ref = maximize_dual_generic(g)
        assert abs(state.inner_objective - val_ref) <= 1e-6
        np.testing.assert_allclose(state.lam, lam_ref, atol=1e-4)
        w = oracle_el_weights(state.lam, g)
        assert np.all(w > 0)
        assert np.max(np.abs(w @ g)) <= 1e-6
    assert time.perf_counter() - start < 10.0


def test_inner_dual_zero_moments():
    # all-zero moment matrix: lam stays 0, weights are uniform
    g = np.zeros((8, 2))
    state = solve_inner_dual(g)
    np.testing.assert_allclose(state.lam, np.zeros(2))
    np.testing.assert_allclose(state.weights, np.full(8, 1 / 8))
    assert state.inner_objective == pytest.approx(0.0)


def test_inner_dual_returns_the_el_weights_at_its_lam():
    """state.weights is (1/n) log*'(1 + g lam) at the returned lam."""
    rng = np.random.default_rng(31)
    cases = [random_moment_matrix(rng)[0] for _ in range(40)]
    cases.append(np.zeros((8, 2)))
    for g in cases:
        n = g.shape[0]
        state = solve_inner_dual(g)
        ref = _logstar(1.0 + g @ state.lam, 1.0 / n, derivs=True)[1] / n
        np.testing.assert_allclose(state.weights, ref, rtol=1e-12, atol=0)
        assert np.all(state.weights > 0)


def test_inner_dual_warm_start_cannot_hurt():
    rng = np.random.default_rng(7)
    g, _ = random_moment_matrix(rng)
    cold = solve_inner_dual(g)
    warm = solve_inner_dual(g, lambda_init=cold.lam)
    assert warm.inner_objective >= cold.inner_objective - 1e-10
    # a nonsense warm start must be rejected rather than trusted
    bad = solve_inner_dual(g, lambda_init=np.full(g.shape[1], 1e6))
    assert abs(bad.inner_objective - cold.inner_objective) <= 1e-6


def _bits(state):
    """Every field of an ELDualState as bytes, so equality is bit for bit."""
    return [np.asarray(getattr(state, f.name)).tobytes() for f in fields(ELDualState)]


def test_dense_input_solves_as_its_own_matrix_products(monkeypatch):
    """On criterion 1's fixtures, the dense input (wrapped with a = 1 and no
    border) gives the ELDualState of the same loop run on the matrix's own
    products g @ v, g.T @ u and the syrk Hessian, bit for bit."""
    from survcbps import solver

    rng = np.random.default_rng(11)
    cases = [random_moment_matrix(rng)[0] for _ in range(100)]
    states = [solve_inner_dual(g) for g in cases]
    monkeypatch.setattr(_Moments, "dot", lambda self, v: self.x @ v)
    monkeypatch.setattr(_Moments, "tdot", lambda self, u: self.x.T @ u)
    monkeypatch.setattr(solver, "_moment_gram", lambda g, h: _weighted_gram(g.x, h))
    for g, state in zip(cases, states):
        assert _bits(state) == _bits(solve_inner_dual(g))


def test_inner_dual_input_validation():
    with pytest.raises(sc.InputError):
        solve_inner_dual(np.zeros(3))
    with pytest.raises(sc.InputError):
        solve_inner_dual(np.array([[1.0, np.inf]]))


def test_weights_sum_to_one_at_optimum():
    rng = np.random.default_rng(12)
    g, _ = random_moment_matrix(rng)
    state = solve_inner_dual(g)
    w = state.weights
    # sum w = 1 holds because the 1-direction is in the span of the
    # constraint g rows only approximately; allow first-order slack
    assert abs(float(w.sum()) - 1.0) <= 1e-3


def _toy_path(data):
    k1 = sc.fit_censoring_km(data, 1)
    k0 = sc.fit_censoring_km(data, 0)
    return _Path(data, k1, k0, clip=0.01), k1, k0


def _toy_moments(path, beta):
    return _moment_rows(
        beta, path.clip, path.x, path.dvec, path.delta, path.kdy
    )[0]


def test_chord_steps_along_a_beta_sequence_reach_the_newton_optimum(toy_data):
    path, _, _ = _toy_path(toy_data)
    start = np.array([0.3, -0.2, 0.1])
    slot = _FactorSlot()
    lam = None
    chained = fresh = 0
    for t in np.linspace(0.0, 1.0, 8):
        gm = _toy_moments(path, start * (1.0 - 0.1 * t))
        state = solve_inner_dual(gm, lam, factor=slot)
        ref = solve_inner_dual(gm, lam)
        assert state.converged and ref.converged
        assert abs(state.inner_objective - ref.inner_objective) <= 1e-10 * (
            1.0 + abs(ref.inner_objective)
        )
        assert slot.hess is not None and slot.hess.shape == (gm.shape[1],) * 2
        chained += state.hessians
        fresh += ref.hessians
        lam = state.lam
    # the shared factor stood in for some of the fresh Hessians
    assert chained < fresh


def test_a_stale_factor_is_refreshed(toy_data):
    path, _, _ = _toy_path(toy_data)
    gm = _toy_moments(path, np.array([0.3, -0.2, 0.1]))
    m = gm.shape[1]
    ref = solve_inner_dual(gm)
    # -log*'' is 1 at lam = 0, so these are Hessians of the scaled matrix
    # c g, whose Hessian there is g' diag(c^2) g: x100 makes the chord step
    # tiny, /100 makes it overshoot and fail, and x1e10 puts its model gain
    # below the resolution of the objective, which must not pass for a stall
    scaled = [
        _moment_gram(gm, np.full(gm.shape[0], c * c))
        for c in (100.0, 0.01, 1e10)
    ]
    for hess in [np.eye(m + 1), *scaled]:
        slot = _FactorSlot()
        slot.keep(hess)
        state = solve_inner_dual(gm, factor=slot)
        assert state.converged
        assert state.hessians >= 1
        assert abs(state.inner_objective - ref.inner_objective) <= 1e-10 * (
            1.0 + abs(ref.inner_objective)
        )
        np.testing.assert_allclose(state.lam, ref.lam, atol=1e-6)
        assert slot.hess.shape == (m, m)


def test_a_stall_at_the_first_step_is_certified_by_a_fresh_hessian():
    data = small_dataset(seed=2, n=1000, p=5)
    path, _, _ = _toy_path(data)
    gm = _toy_moments(path, np.linspace(0.3, -0.2, 5))
    slot = _FactorSlot()
    ref = solve_inner_dual(gm, factor=slot)
    # at n = 1000 the absolute gradient stop is out of reach: a stall
    assert ref.converged and ref.grad_norm > 1e-8
    # the slot holds the Hessian at ref.lam, whose chord model gain is
    # below resolution; only a fresh Newton direction may say so
    state = solve_inner_dual(gm, ref.lam, factor=slot)
    assert state.converged
    assert state.hessians == 1
    assert state.iterations == 0


def test_a_non_finite_beta_fails_in_the_paths_inner_solve(toy_data):
    """The path's inner solve checks the per-beta vectors of its operator."""
    path, _, _ = _toy_path(toy_data)
    with pytest.raises(sc.InputError, match="finite"):
        path.q_eval(np.array([0.2, np.nan, 0.1]), None)


def test_path_q_eval_composes_inner_and_penalty(toy_data):
    path, k1, k0 = _toy_path(toy_data)
    beta = np.array([0.2, -0.1, 0.05])  # internal coordinates
    scad = ScadParams(lam=0.3)
    q = path.q_eval(beta, scad)[0]
    params = sc.PropensityParams(beta=beta / path.scales)
    gm = sc.stack_g(params, toy_data, k1, k0)
    state = solve_inner_dual(gm)
    pen = toy_data.n * float(np.sum(sc.scad_value(np.abs(beta), scad)))
    assert q == pytest.approx(state.inner_objective + pen, rel=1e-10)
    q_unpen = path.q_eval(beta, None)[0]
    assert q_unpen == pytest.approx(state.inner_objective, rel=1e-10)


def test_profile_gradient_matches_finite_differences(toy_data):
    path, _, _ = _toy_path(toy_data)
    rng = np.random.default_rng(31)
    for _ in range(4):
        beta = rng.uniform(-0.25, 0.25, toy_data.p)
        _, state, gm, slopes = path.q_eval(beta, None)
        state = solve_inner_dual(gm, state.lam, tol=1e-12)
        row_scale = _logstar(1.0 + gm.dot(state.lam), 1.0 / path.n, derivs=True)[1]
        grad = _profile_grad(path.x, slopes, state.lam, row_scale)
        h = 1e-5
        for j in range(toy_data.p):
            up, dn = beta.copy(), beta.copy()
            up[j] += h
            dn[j] -= h
            fd = (path.q_eval(up, None)[0] - path.q_eval(dn, None)[0]) / (2 * h)
            assert abs(grad[j] - fd) <= 1e-4 * (1.0 + abs(fd))


def test_fit_pel_objective_strictly_decreases(toy_data):
    k1 = sc.fit_censoring_km(toy_data, 1)
    k0 = sc.fit_censoring_km(toy_data, 0)
    fit = fit_pel(toy_data, k1, k0, ScadParams(lam=0.1))
    diffs = np.diff(fit.objective_trace)
    assert np.all(diffs < 0)
    assert fit.converged


def test_huge_penalty_zeroes_everything(toy_data):
    k1 = sc.fit_censoring_km(toy_data, 1)
    k0 = sc.fit_censoring_km(toy_data, 0)
    fit = fit_pel(toy_data, k1, k0, ScadParams(lam=50.0))
    np.testing.assert_array_equal(fit.beta_hat, np.zeros(toy_data.p))
    assert fit.active_set.size == 0
    assert fit.tau == 50.0


def test_unpenalized_fit_keeps_all_coordinates(toy_data):
    k1 = sc.fit_censoring_km(toy_data, 1)
    k0 = sc.fit_censoring_km(toy_data, 0)
    fit = fit_pel(toy_data, k1, k0, scad=None)
    # no thresholding on the unpenalized path
    assert fit.active_set.size == toy_data.p
    assert fit.converged
    assert np.all(fit.beta_hat != 0.0)


def test_null_design_selects_empty_set_usually():
    """With no true signal the selected active set is empty most of the time."""
    empty = 0
    trials = 30
    for seed in range(trials):
        rng = np.random.default_rng(1000 + seed)
        n, p = 120, 4
        x = rng.standard_normal((n, p))
        d = (rng.random(n) < 0.5).astype(int)  # treatment ignores x
        t = rng.exponential(2.0, n)
        c = rng.exponential(6.0, n)
        y = np.minimum(t, c)
        delta = (t <= c).astype(int)
        data = sc.Dataset(y=y, delta=delta, d=d, x=x)
        k1 = sc.fit_censoring_km(data, 1)
        k0 = sc.fit_censoring_km(data, 0)
        try:
            _, fit = select_tau(data, k1, k0)
        except sc.SurvCbpsError:
            continue
        if fit.active_set.size == 0:
            empty += 1
    assert empty >= 0.7 * trials


def test_default_tau_grid_shape_and_scale():
    grid = default_tau_grid(400, 30)
    assert grid.shape == (20,)
    assert np.all(np.diff(grid) > 0)
    scale = math.sqrt(math.log(30) / 400)
    assert grid[0] == pytest.approx(0.01 * scale)
    assert grid[-1] == pytest.approx(2.0 * scale)
    with pytest.raises(sc.InputError):
        default_tau_grid(1, 5)


def test_select_tau_prefers_sparser_on_null_noise():
    data = small_dataset(seed=21, n=150, p=4)
    k1 = sc.fit_censoring_km(data, 1)
    k0 = sc.fit_censoring_km(data, 0)
    tau, fit = select_tau(data, k1, k0)
    assert tau > 0
    assert fit.tau == pytest.approx(tau)
    # BIC never keeps more coordinates than the unpenalized fit
    assert fit.active_set.size <= data.p
    with pytest.raises(sc.InputError):
        select_tau(data, k1, k0, grid=[])
    with pytest.raises(sc.InputError):
        select_tau(data, k1, k0, grid=[-0.1, 0.2])


def test_select_tau_deterministic(toy_data):
    k1 = sc.fit_censoring_km(toy_data, 1)
    k0 = sc.fit_censoring_km(toy_data, 0)
    tau_a, fit_a = select_tau(toy_data, k1, k0)
    tau_b, fit_b = select_tau(toy_data, k1, k0)
    assert tau_a == tau_b
    np.testing.assert_array_equal(fit_a.beta_hat, fit_b.beta_hat)


def test_fit_weights_balance_the_original_scale_moments(toy_data):
    """The dual is solved in the rescaled coordinates and its lam mapped
    back; the weights it carries still balance the original-scale rows."""
    k1 = sc.fit_censoring_km(toy_data, 1)
    k0 = sc.fit_censoring_km(toy_data, 0)
    _, fit = select_tau(toy_data, k1, k0)
    gm = sc.stack_g(fit.params, toy_data, k1, k0)
    assert np.max(np.abs(fit.dual.weights @ gm)) <= 1e-6


def test_a_one_value_grid_is_the_fixed_tau_fit(toy_data):
    k1 = sc.fit_censoring_km(toy_data, 1)
    k0 = sc.fit_censoring_km(toy_data, 0)
    tau, fit = select_tau(toy_data, k1, k0, grid=[0.08], clip=0.02)
    ref = fit_pel(toy_data, k1, k0, ScadParams(lam=0.08), clip=0.02)
    assert tau == 0.08 and fit.clip == ref.clip == 0.02
    np.testing.assert_array_equal(fit.beta_hat, ref.beta_hat)
    np.testing.assert_array_equal(fit.dual.lam, ref.dual.lam)
    np.testing.assert_array_equal(fit.objective_trace, ref.objective_trace)
    # checked before the path reads the curves
    for grid in ([], [math.nan], [math.inf]):
        with pytest.raises(sc.InputError, match="tau grid"):
            select_tau(toy_data, Untouched(), Untouched(), grid=grid)


@pytest.mark.parametrize("clip", BAD_CLIPS)
def test_bad_clip_fails_before_any_work(toy_data, clip):
    curves = Untouched(), Untouched()
    with pytest.raises(sc.InputError, match="clip"):
        select_tau(toy_data, *curves, clip=clip)
    with pytest.raises(sc.InputError, match="clip"):
        fit_pel(toy_data, *curves, ScadParams(lam=0.1), clip=clip)


def _count_calls(monkeypatch, name):
    """Wrap solver.<name>, which callers look up at call time; count calls."""
    from survcbps import solver

    calls = []
    real = getattr(solver, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, name, counted)
    return calls


def test_refit_at_converged_beta_stops_at_once(toy_data, monkeypatch):
    path, k1, k0 = _toy_path(toy_data)
    first = fit_pel(toy_data, k1, k0, ScadParams(lam=0.05), _path=path)
    assert first.converged
    inner = _count_calls(monkeypatch, "solve_inner_dual")
    again = fit_pel(toy_data, k1, k0, ScadParams(lam=0.05), _path=path)
    np.testing.assert_allclose(again.beta_hat, first.beta_hat, atol=1e-5)
    assert again.converged
    # the starting point and one rejected step, not 40 halvings after it
    assert len(inner) <= 2


def test_beta_init_round_trip(toy_data):
    """A fresh path started at a converged fit's beta and dual refits to it."""
    k1 = sc.fit_censoring_km(toy_data, 1)
    k0 = sc.fit_censoring_km(toy_data, 0)
    first = fit_pel(toy_data, k1, k0, ScadParams(lam=0.05))
    path = _Path(toy_data, k1, k0, clip=0.01)
    p = toy_data.p
    path.beta = first.beta_hat * path.scales
    path.lam = first.dual.lam.copy()
    path.lam[:p] = path.lam[:p] * path.scales
    again = fit_pel(toy_data, k1, k0, ScadParams(lam=0.05), _path=path)
    np.testing.assert_allclose(again.beta_hat, first.beta_hat, atol=1e-5)
    np.testing.assert_array_equal(again.active_set, first.active_set)


def oracle_ridge_logistic(x, d, ridge, max_iter=50, tol=1e-8):
    """No-intercept ridge logistic regression by plain Newton iteration."""
    beta = np.zeros(x.shape[1])
    for _ in range(max_iter):
        prob = 1.0 / (1.0 + np.exp(-(x @ beta)))
        grad = x.T @ (d - prob) - ridge * beta
        hess = x.T @ ((prob * (1.0 - prob) + 1e-10)[:, None] * x)
        hess[np.diag_indices_from(hess)] += ridge + 1e-10
        step = np.linalg.solve(hess, grad)
        beta = beta + step
        if np.max(np.abs(step)) <= tol:
            break
    return beta


def test_path_starts_at_the_ridge_logistic_fit(toy_data, monkeypatch):
    """A fresh path's first beta is the ridge-1e-4 logistic fit of d on x."""
    path, k1, k0 = _toy_path(toy_data)
    real = _Path.q_eval
    starts = []

    def spy(self, beta, *args, **kwargs):
        starts.append(np.array(beta))
        return real(self, beta, *args, **kwargs)

    monkeypatch.setattr(_Path, "q_eval", spy)
    fit_pel(toy_data, k1, k0, None, _path=path)
    expected = oracle_ridge_logistic(path.x, path.dvec, 1e-4)
    assert np.max(np.abs(expected)) > 0.1
    np.testing.assert_allclose(starts[0], expected, rtol=0, atol=1e-6)


def test_failed_fit_leaves_the_warm_start_as_it_was(toy_data, monkeypatch):
    from survcbps import solver

    path, k1, k0 = _toy_path(toy_data)
    fit_pel(toy_data, k1, k0, None, _path=path)
    beta, lam = path.beta.copy(), path.lam.copy()
    assert np.all(beta != 0.0)
    real = solver.solve_inner_dual
    starts = []

    def never_converges(gmat, lambda_init=None, **kwargs):
        starts.append(lambda_init)
        return replace(real(gmat, lambda_init, **kwargs), converged=False)

    monkeypatch.setattr(solver, "solve_inner_dual", never_converges)
    with pytest.raises(sc.FitError, match="initial point"):
        fit_pel(toy_data, k1, k0, None, _path=path)
    # the warm start, then the beta = 0 fallback with a cold dual
    assert len(starts) == 2
    assert starts[0] is not None and starts[1] is None
    np.testing.assert_array_equal(path.beta, beta)
    np.testing.assert_array_equal(path.lam, lam)


def test_select_tau_evaluates_the_censoring_curves_once(toy_data, monkeypatch):
    k1 = sc.fit_censoring_km(toy_data, 1)
    k0 = sc.fit_censoring_km(toy_data, 0)
    calls = []
    real = sc.CensorSurvival.evaluate

    def counted(self, t):
        calls.append(self)
        return real(self, t)

    monkeypatch.setattr(sc.CensorSurvival, "evaluate", counted)
    select_tau(toy_data, k1, k0)
    # one path for all 20 taus: each arm's curve at the observed times
    assert len(calls) == 2


def test_select_tau_inner_call_budget(toy_data, monkeypatch):
    k1 = sc.fit_censoring_km(toy_data, 1)
    k0 = sc.fit_censoring_km(toy_data, 0)
    inner = _count_calls(monkeypatch, "solve_inner_dual")
    select_tau(toy_data, k1, k0)
    assert len(inner) < 150


def test_select_tau_inner_hessian_budget(toy_data, monkeypatch):
    k1 = sc.fit_censoring_km(toy_data, 1)
    k0 = sc.fit_censoring_km(toy_data, 0)
    grams = _count_calls(monkeypatch, "_moment_gram")
    states = []
    real = solve_inner_dual

    def inner(*args, **kwargs):
        states.append(real(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr("survcbps.solver.solve_inner_dual", inner)
    select_tau(toy_data, k1, k0)
    # a fresh Hessian at every Newton step took 92
    assert len(grams) < 46
    assert sum(state.hessians for state in states) == len(grams)


def test_select_tau_wide_inner_hessian_budget(monkeypatch):
    data, _ = sc.generate_dataset(sc.SimConfig(n=2000, p=100, seed=7), 0)
    k1 = sc.fit_censoring_km(data, 1)
    k0 = sc.fit_censoring_km(data, 0)
    grams = _count_calls(monkeypatch, "_moment_gram")
    curvatures = _count_calls(monkeypatch, "_mean_jacobian")
    fits = _count_calls(monkeypatch, "fit_pel")
    tau, fit = select_tau(data, k1, k0)
    # the full path fits all 20 taus; the stop skips the largest supports
    assert len(fits) <= 17
    # a Newton step to certify every stall took 151; contracting chord
    # steps certify most of them
    assert len(grams) <= 75
    # also dropping the kept outer curvature at each change of support or
    # clip mask took 65, and the full path 38
    assert len(curvatures) <= 30
    assert tau == default_tau_grid(data.n, data.p)[7]
    assert fit.active_set.tolist() == [0, 1, 2, 3, 4, 89]


def test_select_tau_peak_memory_stays_below_a_few_moment_matrices():
    """One select_tau at (2000, 100) allocates at its traced peak, above the
    data and curves, at most 3.5 n (p + 2) doubles: the path keeps no dense
    moment matrix per beta. Building one per beta took 4.4 of them."""
    data, _ = sc.generate_dataset(sc.SimConfig(n=2000, p=100, seed=7), 0)
    k1 = sc.fit_censoring_km(data, 1)
    k0 = sc.fit_censoring_km(data, 0)
    tracemalloc.start()
    try:
        select_tau(data, k1, k0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * data.n * (data.p + 2) * 8


def _inner_states(monkeypatch):
    """Wrap solver.solve_inner_dual; collect the states it returns."""
    from survcbps import solver

    real = solver.solve_inner_dual
    states = []

    def inner(*args, **kwargs):
        states.append(real(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(solver, "solve_inner_dual", inner)
    return states


def _infeasible_path_error(data, monkeypatch):
    """Check that select_tau on data fails at its first, largest tau with
    an InfeasibleBalanceError cause, in few inner steps."""
    k1 = sc.fit_censoring_km(data, 1)
    k0 = sc.fit_censoring_km(data, 0)
    fits = _count_calls(monkeypatch, "fit_pel")
    states = _inner_states(monkeypatch)
    # the path is visited from the largest tau down
    first = re.escape(f"tau={default_tau_grid(data.n, data.p)[-1]:.6g}")
    with pytest.raises(sc.SelectionError, match=first) as info:
        select_tau(data, k1, k0)
    assert "does not depend on tau" in str(info.value)
    cause = info.value.__cause__
    assert isinstance(cause, sc.InfeasibleBalanceError)
    assert f"exact balance of {data.p + 2} moments is infeasible" in str(cause)
    assert len(fits) == 1
    # the path start and the beta = 0 fallback, each stopped at a
    # separating lam well before the 100-step cap
    assert len(states) == 2
    assert all(s.separated and not s.converged for s in states)
    assert all(s.iterations < 100 for s in states)
    # the certificate separates 0 from the rows of stack_g at beta = 0
    params = sc.PropensityParams(beta=np.zeros(data.p), clip=0.01)
    cert = cause.certificate
    assert math.isclose(float(np.linalg.norm(cert)), 1.0)
    assert np.all(sc.stack_g(params, data, k1, k0) @ cert > 0.0)


def test_select_tau_fails_fast_when_the_start_is_infeasible(monkeypatch):
    _infeasible_path_error(small_dataset(seed=4, n=300, p=150), monkeypatch)


@pytest.mark.parametrize("p, rep", [(120, 0), (150, 0), (150, 1), (150, 2)])
def test_infeasible_high_dimensional_designs_fail_typed(p, rep, monkeypatch):
    """At n = 300, seed 7, these four designs cannot be balanced exactly at
    either start; the solve used to spend its 100 steps there twice."""
    data, _ = sc.generate_dataset(sc.SimConfig(n=300, p=p, seed=7), rep)
    _infeasible_path_error(data, monkeypatch)


@pytest.mark.parametrize("p, rep", [(120, 1), (100, 0)])
def test_feasible_high_dimensional_designs_never_separate(p, rep, monkeypatch):
    """Neighbours of the infeasible designs fit, and no inner solve on
    their paths stops at a separating lam."""
    data, _ = sc.generate_dataset(sc.SimConfig(n=300, p=p, seed=7), rep)
    k1 = sc.fit_censoring_km(data, 1)
    k0 = sc.fit_censoring_km(data, 0)
    states = _inner_states(monkeypatch)
    _, fit = select_tau(data, k1, k0)
    assert fit.converged
    assert states and not any(s.separated for s in states)


def test_inner_dual_stops_at_a_separating_lam():
    """Rows that all lean one way admit no balancing weights: the solve
    stops at the first lam with lam' g_i > 0 for every row."""
    g = np.array([[1.0, 0.3], [2.0, -0.5], [0.5, 0.1]])
    state = solve_inner_dual(g)
    assert state.separated and not state.converged
    assert state.iterations < 100
    assert np.all(g @ state.lam > 0.0)
    # a feasible matrix never separates
    rng = np.random.default_rng(0)
    feasible, _ = random_moment_matrix(rng)
    state = solve_inner_dual(feasible)
    assert state.converged and not state.separated


@pytest.mark.parametrize(
    "case",
    ["toy", "toy_uncensored", "p10_rep0", "p10_rep1", "p10_rep6", "wide"],
)
def test_the_stopped_path_picks_the_full_paths_fit(case, monkeypatch):
    """The early stop is exact here: select_tau picks what fitting every
    tau picks, bit for bit, and no support on the full path shrinks after
    the tau where the stop fired."""
    p10 = sc.SimConfig(n=500, p=10, beta_nonzero=3, seed=2026)
    data = {
        "toy": lambda: small_dataset(seed=3),
        "toy_uncensored": lambda: small_dataset(seed=5, censor=False),
        "p10_rep0": lambda: sc.generate_dataset(p10, 0)[0],
        "p10_rep1": lambda: sc.generate_dataset(p10, 1)[0],
        "p10_rep6": lambda: sc.generate_dataset(p10, 6)[0],
        "wide": lambda: sc.generate_dataset(
            sc.SimConfig(n=2000, p=100, seed=7), 0
        )[0],
    }[case]()
    k1 = sc.fit_censoring_km(data, 1)
    k0 = sc.fit_censoring_km(data, 0)
    fits = _count_calls(monkeypatch, "fit_pel")
    tau, fit = select_tau(data, k1, k0)
    ref_tau, ref_fit, path_fits = full_path_select(data, k1, k0)
    assert tau == ref_tau
    np.testing.assert_array_equal(fit.active_set, ref_fit.active_set)
    assert fit.beta_hat.tobytes() == ref_fit.beta_hat.tobytes()
    assert fit.converged == ref_fit.converged
    sizes = [f.active_set.size for f in path_fits]
    assert sizes[len(fits) - 1:] == sorted(sizes[len(fits) - 1:])
    if case.startswith(("p10", "wide")):
        # the stop fired: the smallest taus were never fitted
        assert len(fits) < len(path_fits) == 20


def test_select_tau_keeps_the_best_fit_before_a_failure(toy_data, monkeypatch):
    from survcbps import solver

    k1 = sc.fit_censoring_km(toy_data, 1)
    k0 = sc.fit_censoring_km(toy_data, 0)
    grid = default_tau_grid(toy_data.n, toy_data.p)
    tau_two, fit_two = select_tau(toy_data, k1, k0, grid=grid[-2:])
    real = solver.fit_pel
    calls = []

    def fails_third(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise sc.FitError("synthetic failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "fit_pel", fails_third)
    tau, fit = select_tau(toy_data, k1, k0, grid=grid)
    assert len(calls) == 3
    assert tau == tau_two
    np.testing.assert_array_equal(fit.beta_hat, fit_two.beta_hat)


def test_select_tau_breaks_a_rounding_tie_toward_the_larger_tau(
    toy_data, monkeypatch
):
    from survcbps import solver

    k1 = sc.fit_censoring_km(toy_data, 1)
    k0 = sc.fit_censoring_km(toy_data, 0)
    grid = default_tau_grid(toy_data.n, toy_data.p)[-2:]
    real = solver.fit_pel
    fits = []

    def last_bits_apart(*args, **kwargs):
        # empty active sets make each score exactly twice the EL term; the
        # smaller tau's EL term sits one unit in the last place lower
        fit = real(*args, **kwargs)
        value = 0.5
        if fits:
            value = np.nextafter(fits[0].dual.inner_objective, -np.inf)
        fit = replace(
            fit, active_set=np.array([], dtype=int),
            dual=replace(fit.dual, inner_objective=value),
        )
        fits.append(fit)
        return fit

    monkeypatch.setattr(solver, "fit_pel", last_bits_apart)
    tau, fit = select_tau(toy_data, k1, k0, grid=grid)
    assert len(fits) == 2
    assert tau == grid[-1]
    assert fit is fits[0]


def test_select_tau_carries_the_dual_along_the_path(toy_data, monkeypatch):
    from survcbps import solver

    k1 = sc.fit_censoring_km(toy_data, 1)
    k0 = sc.fit_censoring_km(toy_data, 0)
    real_fit, real_inner = solver.fit_pel, solver.solve_inner_dual
    newton = []

    def fit(*args, **kwargs):
        newton.append([])
        return real_fit(*args, **kwargs)

    def inner(*args, **kwargs):
        state = real_inner(*args, **kwargs)
        newton[-1].append(state.iterations)
        return state

    monkeypatch.setattr(solver, "fit_pel", fit)
    monkeypatch.setattr(solver, "solve_inner_dual", inner)
    select_tau(toy_data, k1, k0)
    assert len(newton) == 20
    # each fit starts at the previous fit's beta and dual, already solved
    assert all(per_fit[0] <= 1 for per_fit in newton[1:])
    # with every first inner solve started cold the path took 177
    assert sum(map(sum, newton)) < 177


def test_every_fit_on_a_path_is_stationary(toy_data, monkeypatch):
    """The penalized gradient vanishes on the support of every path fit.

    The oracle is the profile gradient at a tightly solved dual plus the
    exact SCAD slope, so it does not depend on the curvature the fit used.
    """
    from survcbps import solver

    path, k1, k0 = _toy_path(toy_data)
    real = solver.fit_pel
    fits = []

    def spy(*args, **kwargs):
        fits.append(real(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(solver, "fit_pel", spy)
    select_tau(toy_data, k1, k0)
    assert len(fits) == 20
    n = toy_data.n
    for fit in fits:
        assert fit.converged
        beta = fit.beta_hat * path.scales
        on = beta != 0.0
        _, state, gm, slopes = path.q_eval(beta, None)
        state = solve_inner_dual(gm, state.lam, tol=1e-12)
        row_scale = _logstar(1.0 + gm.dot(state.lam), 1.0 / n, derivs=True)[1]
        grad = _profile_grad(path.x, slopes, state.lam, row_scale)
        slope = sc.scad_derivative(np.abs(beta[on]), ScadParams(lam=fit.tau))
        penalized = grad[on] + n * slope * np.sign(beta[on])
        assert np.all(np.abs(penalized) <= 1e-6 * n)


def test_select_tau_keeps_the_outer_curvature(toy_data, monkeypatch):
    from survcbps import solver

    k1 = sc.fit_censoring_km(toy_data, 1)
    k0 = sc.fit_censoring_km(toy_data, 0)
    curvatures = _count_calls(monkeypatch, "_mean_jacobian")
    real = solver.fit_pel
    steps = []

    def fit(*args, **kwargs):
        result = real(*args, **kwargs)
        steps.append(result.outer_iterations)
        return result

    monkeypatch.setattr(solver, "fit_pel", fit)
    select_tau(toy_data, k1, k0)
    assert 0 < len(curvatures) < sum(steps)


def _log_outer_events(monkeypatch):
    """Record, in order, each Q evaluation (beta, Q) and each curvature
    formed on a path (the beta whose evaluation gave its moment rows)."""
    events = []
    q_eval, form = _Path.q_eval, _Path.form_curvature

    def logged_q(self, beta, *args, **kwargs):
        out = q_eval(self, beta, *args, **kwargs)
        events.append(("eval", np.array(beta), out[0], out[2]))
        return out

    def logged_form(self, gm, *args, **kwargs):
        beta = next(e[1] for e in reversed(events) if e[0] == "eval" and e[3] is gm)
        events.append(("form", beta))
        return form(self, gm, *args, **kwargs)

    monkeypatch.setattr(_Path, "q_eval", logged_q)
    monkeypatch.setattr(_Path, "form_curvature", logged_form)
    return events


def _converged_path(data, tau, shift=0.0):
    """A path that kept its curvature at a converged fit, restarted at the
    fit's beta with shift added to its largest coefficient."""
    path, k1, k0 = _toy_path(data)
    fit_pel(data, k1, k0, ScadParams(lam=tau), _path=path)
    assert path.h_el is not None
    beta = path.beta.copy()
    beta[np.argmax(np.abs(beta))] += shift
    path.beta = beta
    return path, k1, k0


def test_a_large_move_forms_a_fresh_curvature(toy_data, monkeypatch):
    for shift, fresh in ((0.005, False), (0.05, True)):
        path, k1, k0 = _converged_path(toy_data, 0.05, shift)
        start = path.beta
        events = _log_outer_events(monkeypatch)
        fit_pel(toy_data, k1, k0, ScadParams(lam=0.05), _path=path)
        monkeypatch.undo()
        # the start, then a full step taken with the kept curvature
        assert [e[0] for e in events[:2]] == ["eval", "eval"]
        assert events[1][2] < events[0][2]
        move = np.max(np.abs(events[1][1] - start))
        assert (move > 1e-2) == fresh
        assert (events[2][0] == "form") == fresh
        if fresh:
            np.testing.assert_array_equal(events[2][1], events[1][1])


def test_a_halved_step_forms_a_fresh_curvature(toy_data, monkeypatch):
    path, k1, k0 = _converged_path(toy_data, 0.05, 0.005)
    start = path.beta
    events = _log_outer_events(monkeypatch)
    logged_q = _Path.q_eval

    def reject_first_step(self, beta, *args, **kwargs):
        q, *rest = logged_q(self, beta, *args, **kwargs)
        return (math.inf if len(events) == 2 else q), *rest

    monkeypatch.setattr(_Path, "q_eval", reject_first_step)
    fit_pel(toy_data, k1, k0, ScadParams(lam=0.05), _path=path)
    # the start, a rejected full step and an accepted half step, all with
    # the kept curvature; the half step moved beta by less than 1e-2, so
    # only the halving forces the fresh curvature after it
    assert [e[0] for e in events[:4]] == ["eval", "eval", "eval", "form"]
    full, half = events[1][1] - start, events[2][1] - start
    np.testing.assert_allclose(half, 0.5 * full, rtol=0, atol=1e-12)
    assert np.max(np.abs(half)) <= 1e-2
    np.testing.assert_array_equal(events[3][1], events[2][1])


def test_the_fallback_forms_a_fresh_curvature(toy_data, monkeypatch):
    path, k1, k0 = _converged_path(toy_data, 0.05)
    assert np.all(path.beta != 0.0)
    events = _log_outer_events(monkeypatch)
    logged_q = _Path.q_eval

    def fail_at_the_start(self, beta, *args, **kwargs):
        q, *rest = logged_q(self, beta, *args, **kwargs)
        return (math.inf if len(events) == 1 else q), *rest

    monkeypatch.setattr(_Path, "q_eval", fail_at_the_start)
    fit_pel(toy_data, k1, k0, ScadParams(lam=0.05), _path=path)
    # the failed start, then the cold restart at beta = 0, whose first
    # candidate is stepped with a curvature formed there, not the kept one
    assert [e[0] for e in events[:4]] == ["eval", "eval", "form", "eval"]
    zero = np.zeros(toy_data.p)
    np.testing.assert_array_equal(events[1][1], zero)
    np.testing.assert_array_equal(events[2][1], zero)

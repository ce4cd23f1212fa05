import numpy as np
import pytest
from scipy.special import ndtri

import survcbps as sc
from survcbps.inference import _z_value, ate_with_ci, weighted_median
from survcbps.moments import PropensityParams
from survcbps.solver import fit_pel
from tests.conftest import ipcw_hajek_means, sandwich_sigma, small_dataset


def test_weighted_median_frozen_cases():
    assert weighted_median([1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.3, 0.4]) == 3.0
    assert weighted_median([1.0, 2.0, 3.0], [1 / 3, 1 / 3, 1 / 3]) == 2.0
    assert weighted_median([5.0], [1.0]) == 5.0
    # order of the inputs must not matter
    assert weighted_median([4.0, 1.0, 3.0, 2.0], [0.4, 0.1, 0.3, 0.2]) == 3.0
    # point mass carrying half the weight is reached exactly
    assert weighted_median([1.0, 2.0], [0.5, 0.5]) == 1.0


def test_weighted_median_validation():
    with pytest.raises(sc.InputError):
        weighted_median([1.0, 2.0], [0.9, 0.2])
    with pytest.raises(sc.InputError):
        weighted_median([1.0, 2.0], [-0.1, 1.1])
    with pytest.raises(sc.InputError):
        weighted_median([1.0, 2.0], [0.5])


def test_z_value_matches_scipy_quantile_within_a_few_ulp():
    for level in (1e-9, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 1 - 1e-12):
        z = _z_value(level)
        assert abs(z - ndtri(0.5 + level / 2.0)) <= 4 * np.spacing(z)
    # the largest level below 1 rounds its quantile's argument up to 1
    with pytest.raises(sc.InputError):
        _z_value(np.nextafter(1.0, 0.0))


def _fitted(data, tau=0.05):
    k1 = sc.fit_censoring_km(data, 1)
    k0 = sc.fit_censoring_km(data, 0)
    fit = fit_pel(data, k1, k0, sc.ScadParams(lam=tau))
    return fit, k1, k0


def test_ate_with_ci_fields(toy_data):
    fit, k1, k0 = _fitted(toy_data)
    res = ate_with_ci(toy_data, fit, k1, k0)
    assert res.ate == pytest.approx(res.mu1 - res.mu0)
    assert res.ci_low < res.ate < res.ci_high
    assert res.se > 0
    half = res.ci_high - res.ate
    assert half == pytest.approx(1.959963984540054 * res.se, rel=1e-9)
    assert res.median_diff == pytest.approx(res.median1 - res.median0)
    assert 0 < res.n_effective_1 <= toy_data.n
    assert 0 < res.n_effective_0 <= toy_data.n
    d = res.to_dict()
    assert d["ate"] == res.ate and d["level"] == 0.95


def test_medians_without_censoring_equal_the_inverse_propensity_medians(
    toy_uncensored,
):
    """With delta = 1 and K = 1 the IPCW weights are d / pi bit for bit."""
    fit, k1, k0 = _fitted(toy_uncensored)
    res = ate_with_ci(toy_uncensored, fit, k1, k0)
    d = toy_uncensored.d.astype(float)
    pi = sc.propensity(fit.params, toy_uncensored.x)
    raw1, raw0 = d / pi, (1.0 - d) / (1.0 - pi)
    w1, w0 = raw1 / raw1.sum(), raw0 / raw0.sum()
    assert res.median1 == weighted_median(toy_uncensored.y, w1)
    assert res.median0 == weighted_median(toy_uncensored.y, w0)


def test_medians_under_censoring_estimate_the_event_time_medians():
    """Exponential event times, randomized treatment, independent censoring.

    The medians of the follow-up min(T, C) are ln 2 and ln 2 / 1.5 here,
    well below the event-time medians 2 ln 2 and ln 2.
    """
    rng = np.random.default_rng(8)
    n = 8000
    d = (rng.random(n) < 0.5).astype(int)
    t = rng.exponential(np.where(d == 1, 2.0, 1.0))
    c = rng.exponential(2.0, n)
    data = sc.Dataset(y=np.minimum(t, c), delta=(t <= c).astype(int), d=d,
                      x=rng.standard_normal((n, 2)))
    k1 = sc.fit_censoring_km(data, 1)
    k0 = sc.fit_censoring_km(data, 0)
    res = ate_with_ci(data, fit_pel(data, k1, k0, scad=None), k1, k0)
    assert res.median1 == pytest.approx(2 * np.log(2), abs=0.1)
    assert res.median0 == pytest.approx(np.log(2), abs=0.1)


def test_ci_level_changes_width(toy_data):
    fit, k1, k0 = _fitted(toy_data)
    res95 = ate_with_ci(toy_data, fit, k1, k0, level=0.95)
    res80 = ate_with_ci(toy_data, fit, k1, k0, level=0.80)
    assert (res80.ci_high - res80.ci_low) < (res95.ci_high - res95.ci_low)
    with pytest.raises(sc.InputError):
        ate_with_ci(toy_data, fit, k1, k0, level=1.0)


@pytest.fixture(scope="module")
def sim300():
    data, _ = sc.generate_dataset(sc.SimConfig(n=300, p=20, seed=1), 0)
    return data, sc.fit_censoring_km(data, 1), sc.fit_censoring_km(data, 0)


@pytest.mark.parametrize("clip", [0.01, 0.2, 0.25, 0.3])
def test_closed_form_ate_gradient_matches_central_differences(sim300, clip):
    """se_propensity equals sqrt(g' Sigma g / n) with g by central differences.

    g is the central difference of plain-numpy IPCW Hajek means at
    beta +- h e_j, h = 1e-5 (1 + |beta_j|). From clip 0.2 on, 99 to 247 of
    the 300 rows are clipped and contribute zero slope.
    """
    data, k1, k0 = sim300
    fit = fit_pel(data, k1, k0, sc.ScadParams(lam=0.05), clip=clip)
    res = ate_with_ci(data, fit, k1, k0)
    beta, active = fit.beta_hat, fit.active_set
    steps = 1e-5 * (1.0 + np.abs(beta[active]))
    # the oracle holds only where no uncensored row's propensity crosses a
    # clip bound within one difference step
    events = data.x[data.delta == 1]
    reach = np.max(np.abs(events[:, active]) * steps, axis=1)
    bounds = np.log(np.array([clip, 1.0 - clip]) / np.array([1.0 - clip, clip]))
    assert np.all(np.abs((events @ beta)[:, None] - bounds).min(axis=1) > reach)
    clipped = np.count_nonzero(np.abs(data.x @ beta) >= bounds[1])
    assert (clipped > 90) == (clip >= 0.2)

    y, delta, d = data.y, data.delta.astype(float), data.d.astype(float)
    kdy = np.where(d == 1, k1.evaluate(y), k0.evaluate(y))
    grad = np.empty(active.size)
    for pos, (j, h) in enumerate(zip(active, steps)):
        means = []
        for sign in (1.0, -1.0):
            shifted = beta.copy()
            shifted[j] += sign * h
            pi = sc.propensity(PropensityParams(shifted, clip=clip), data.x)
            mu1, mu0 = ipcw_hajek_means(y, delta, d, pi, kdy)
            means.append(mu1 - mu0)
        grad[pos] = (means[0] - means[1]) / (2.0 * h)
    sigma = sandwich_sigma(fit, data, k1, k0)
    oracle = np.sqrt(grad @ sigma @ grad / data.n)
    assert res.se_propensity == pytest.approx(oracle, rel=1e-6)


def test_sandwich_matches_direct_inverse():
    """Cholesky-based inversion agrees with a plain inv of G1' V^{-1} G1."""
    data = small_dataset(seed=9, n=80, p=2)
    k1 = sc.fit_censoring_km(data, 1)
    k0 = sc.fit_censoring_km(data, 0)
    fit = fit_pel(data, k1, k0, scad=None)
    assert fit.active_set.size == 2
    sigma = sandwich_sigma(fit, data, k1, k0)
    from survcbps.moments import jacobian_g, stack_g

    jac = jacobian_g(fit.params, data, k1, k0)[:, fit.active_set]
    gmat = stack_g(fit.params, data, k1, k0)
    vhat = gmat.T @ gmat / data.n
    direct = np.linalg.inv(jac.T @ np.linalg.solve(vhat, jac))
    np.testing.assert_allclose(sigma, direct, rtol=1e-8)
    # symmetric positive definite
    np.testing.assert_allclose(sigma, sigma.T, rtol=1e-12)
    assert np.all(np.linalg.eigvalsh(sigma) > 0)


def test_empty_active_set_gives_zero_propensity_term():
    data = small_dataset(seed=41, n=100, p=3)
    k1 = sc.fit_censoring_km(data, 1)
    k0 = sc.fit_censoring_km(data, 0)
    fit = fit_pel(data, k1, k0, sc.ScadParams(lam=50.0))
    assert fit.active_set.size == 0
    res = ate_with_ci(data, fit, k1, k0)
    assert res.se_propensity == 0.0
    # the outcome-sampling part of the variance is still there
    assert res.se > 0
    assert any("active set is empty" in w for w in res.warnings)


def test_influence_se_exceeds_propensity_term(toy_data):
    # the full standard error includes the weighted-mean sampling noise,
    # so it cannot fall below a pure reading of the coefficient noise alone
    fit, k1, k0 = _fitted(toy_data)
    res = ate_with_ci(toy_data, fit, k1, k0)
    assert res.se > 0
    assert res.se_propensity >= 0
    assert res.se >= 0.5 * res.se_propensity


def test_unconverged_fit_flagged(toy_data):
    fit, k1, k0 = _fitted(toy_data)
    shaky = sc.PELFit(
        beta_hat=fit.beta_hat,
        active_set=fit.active_set,
        tau=fit.tau,
        dual=fit.dual,
        outer_iterations=fit.outer_iterations,
        objective_trace=fit.objective_trace,
        converged=False,
        clip=fit.clip,
    )
    res = ate_with_ci(toy_data, shaky, k1, k0)
    assert any("did not converge" in w for w in res.warnings)


@pytest.mark.parametrize("clip, notes", [
    # one row's x' beta lies 2.5e-7 from logit(0.8)
    (0.2, ("1 rows lie on a clip bound; se_propensity uses one side's slope",)),
    # the nearest row is 3.2 from the bound
    (0.01, ()),
])
def test_a_fit_on_the_clip_kink_is_flagged(clip, notes):
    data = small_dataset(seed=7, n=300, p=3)
    k1 = sc.fit_censoring_km(data, 1)
    k0 = sc.fit_censoring_km(data, 0)
    fit = fit_pel(data, k1, k0, sc.ScadParams(lam=0.05), clip=clip)
    assert ate_with_ci(data, fit, k1, k0).warnings == notes


def test_an_unidentified_fit_names_its_unclipped_rows():
    """At clip 0.3 this fit keeps 8 coefficients but 1 row inside the bounds."""
    data, _ = sc.generate_dataset(sc.SimConfig(300, 20, seed=42), 0)
    k1 = sc.fit_censoring_km(data, 1)
    k0 = sc.fit_censoring_km(data, 0)
    fit = fit_pel(data, k1, k0, sc.ScadParams(lam=0.05), clip=0.3)
    assert fit.converged and len(fit.active_set) == 8
    with pytest.raises(
        sc.SingularMatrixError,
        match=r"^1 rows .* \(clip 0\.3\) cannot identify 8 active coefficients$",
    ):
        ate_with_ci(data, fit, k1, k0)


@pytest.mark.slow
def test_beta1_sandwich_calibration(p10_study):
    """SD of the fitted first coefficient vs its mean sandwich SE, 200 reps."""
    b1 = p10_study["beta1"]
    b1_se = p10_study["beta1_se"]
    assert b1.size >= 150  # the signal coordinate is almost always selected
    sd = float(b1.std(ddof=1))
    mean_se = float(b1_se.mean())
    assert 0.7 * sd <= mean_se <= 1.3 * sd

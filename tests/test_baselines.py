from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit, ndtri

import survcbps as sc
from survcbps.baselines import (
    _propensity, fit_aipw, fit_cbps_unpenalized, fit_naive_ipw,
)
from survcbps.censoring import CensorSurvival
from survcbps.inference import ate_with_ci
from survcbps.moments import _Design, _logistic_mle
from survcbps.solver import fit_pel
from tests.conftest import (
    BAD_CLIPS, BAD_LEVELS, BAD_N_BOOTS, Untouched, ipcw_hajek_means,
    small_dataset,
)


# Reference bootstrap: one resampled copy per resample, refitted from
# scratch. The package runs the same resamples as rows of counts in blocks.


def reference_logistic(xmat, d, ridge=1e-6, max_iter=100, tol=1e-10):
    n, q = xmat.shape
    beta = np.zeros(q)
    converged = False
    for _ in range(max_iter):
        prob = expit(xmat @ beta)
        grad = xmat.T @ (d - prob) - ridge * beta
        w = prob * (1.0 - prob) + 1e-12
        hess = xmat.T @ (w[:, None] * xmat)
        hess[np.diag_indices_from(hess)] += ridge + 1e-12
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        beta = beta + step
        if np.max(np.abs(step)) <= tol:
            converged = True
            break
    clean = (
        converged
        and np.all(np.isfinite(beta))
        and np.max(np.abs(xmat @ beta)) <= 30
    )
    return beta, bool(clean)


def reference_propensity(x, d, clip):
    xmat = np.column_stack((np.ones(x.shape[0]), x))
    coef, clean = reference_logistic(xmat, d)
    if not clean:
        coef, _ = reference_logistic(xmat, d, ridge=1e-2)
    return np.clip(expit(xmat @ coef), clip, 1.0 - clip), clean


def reference_ipw(y, delta, d, x, pi, k1y, k0y):
    return ipcw_hajek_means(y, delta, d, pi, np.where(d == 1, k1y, k0y))


def reference_wls(xmat, resp):
    gram = xmat.T @ xmat
    rhs = xmat.T @ resp
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        ridge = max(1e-6 * float(np.trace(gram)), 1e-10)
        return np.linalg.solve(gram + ridge * np.eye(gram.shape[0]), rhs)


def reference_aipw(y, delta, d, x, pi, k1y, k0y):
    ytil = delta * y / np.where(d == 1, k1y, k0y)
    xmat = np.column_stack((np.ones(y.shape[0]), x))
    treated = d == 1
    if treated.sum() < 2 or (~treated).sum() < 2:
        raise sc.DegenerateArmError("an arm is too small for outcome regression")
    m1 = xmat @ reference_wls(xmat[treated], ytil[treated])
    m0 = xmat @ reference_wls(xmat[~treated], ytil[~treated])
    return (
        float(np.mean(m1 + d * (ytil - m1) / pi)),
        float(np.mean(m0 + (1.0 - d) * (ytil - m0) / (1.0 - pi))),
    )


def reference_bootstrap(data, k1, k0, point, stream, n_boot, clip=0.01):
    """Replicates, degenerate count and ridge refits of the per-resample loop."""
    rng = np.random.default_rng(np.random.SeedSequence(stream))
    y, delta, d = data.y, data.delta.astype(float), data.d.astype(float)
    boots, failures, refits = [], 0, 0
    for _ in range(n_boot):
        idx = rng.integers(0, data.n, data.n)
        yb, db, deltab, xb = y[idx], d[idx], delta[idx], data.x[idx]
        try:
            k1b = CensorSurvival.fit(yb[db == 1], deltab[db == 1], floor=k1.floor)
            k0b = CensorSurvival.fit(yb[db == 0], deltab[db == 0], floor=k0.floor)
            pib, clean = reference_propensity(xb, db, clip)
            refits += not clean
            m1, m0 = point(
                yb, deltab, db, xb, pib, k1b.evaluate(yb), k0b.evaluate(yb)
            )
            boots.append(m1 - m0)
        except (sc.DegenerateArmError, np.linalg.LinAlgError):
            failures += 1
    return boots, failures, refits


def assert_matches_reference(res, boots, failures, n_boot):
    notes = [w for w in res.warnings if "bootstrap resamples" in w]
    expected = f"{failures} of {n_boot} bootstrap resamples were degenerate"
    assert notes == ([expected] if failures else [])
    if len(boots) < 20:
        assert np.isnan(res.se) and np.isnan(res.ci_low) and np.isnan(res.ci_high)
        return
    se = float(np.std(boots, ddof=1))
    z = float(ndtri(0.975))
    assert res.se == pytest.approx(se, rel=1e-10)
    assert res.ci_low == pytest.approx(res.ate - z * se, rel=1e-10)
    assert res.ci_high == pytest.approx(res.ate + z * se, rel=1e-10)


def near_separation_data():
    rng = np.random.default_rng(55)
    n = 50
    x = rng.standard_normal((n, 1)) * 4.0
    d = (x[:, 0] > 0).astype(int)  # perfectly separated treatment
    d[0] = 1 - d[0]  # one crossover keeps both arms overlapping a little
    t = rng.exponential(2.0, n)
    c = rng.exponential(8.0, n)
    return sc.Dataset(
        y=np.minimum(t, c), delta=(t <= c).astype(int), d=d, x=x
    )


def tiny_data():
    """n = 12 with 3 treated rows, so some resamples lose the treated arm.

    The covariate is zero, which makes every outcome regression exactly
    singular and sends it to the ridge fallback on both sides. With a
    varying covariate, a resample whose arm holds copies of one row has a
    rank-1 normal matrix whose exact singularity, and so its fit, turns on
    the last bit of its summed entries.
    """
    data = small_dataset(seed=4, n=12, p=1)
    return sc.Dataset(y=data.y, delta=data.delta, d=data.d, x=np.zeros((12, 1)))


@pytest.fixture(scope="module")
def arms():
    data = small_dataset(seed=13, n=160, p=3)
    k1 = sc.fit_censoring_km(data, 1)
    k0 = sc.fit_censoring_km(data, 0)
    return data, k1, k0


def test_naive_ipw_basic(arms):
    data, k1, k0 = arms
    res = fit_naive_ipw(data, k1, k0, n_boot=80, seed=5)
    assert np.isfinite(res.ate)
    assert res.ate == pytest.approx(res.mu1 - res.mu0)
    assert res.se > 0
    assert res.ci_low < res.ate < res.ci_high


def test_naive_ipw_bootstrap_deterministic(arms):
    data, k1, k0 = arms
    a = fit_naive_ipw(data, k1, k0, n_boot=60, seed=99)
    b = fit_naive_ipw(data, k1, k0, n_boot=60, seed=99)
    assert a.se == b.se
    assert a.ci_low == b.ci_low
    c = fit_naive_ipw(data, k1, k0, n_boot=60, seed=100)
    assert c.se != a.se  # different resamples
    # the point estimate never depends on the bootstrap seed
    assert c.ate == a.ate


def test_naive_ipw_too_few_resamples_gives_nan_se(arms):
    data, k1, k0 = arms
    res = fit_naive_ipw(data, k1, k0, n_boot=5, seed=1)
    assert np.isnan(res.se)
    assert np.isnan(res.ci_low)
    assert np.isfinite(res.ate)


BASELINES = [fit_naive_ipw, fit_aipw, fit_cbps_unpenalized]


@pytest.mark.parametrize("clip", BAD_CLIPS)
@pytest.mark.parametrize("fit", BASELINES)
def test_bad_clip_fails_before_any_work(arms, fit, clip):
    with pytest.raises(sc.InputError, match="clip"):
        fit(arms[0], Untouched(), Untouched(), clip=clip)


@pytest.mark.parametrize("level", BAD_LEVELS)
@pytest.mark.parametrize("fit", BASELINES)
def test_bad_level_fails_before_any_work(arms, fit, level):
    with pytest.raises(sc.InputError, match="level"):
        fit(arms[0], Untouched(), Untouched(), level=level)


@pytest.mark.parametrize("n_boot", BAD_N_BOOTS)
@pytest.mark.parametrize("fit", [fit_naive_ipw, fit_aipw])
def test_bad_n_boot_fails_before_any_work(arms, fit, n_boot):
    with pytest.raises(sc.InputError, match="n_boot"):
        fit(arms[0], Untouched(), Untouched(), n_boot=n_boot)


@pytest.mark.parametrize("fit", [fit_naive_ipw, fit_aipw])
def test_negative_seed_fails_before_any_work(arms, fit):
    with pytest.raises(sc.InputError, match="seed must be a non-negative integer"):
        fit(arms[0], Untouched(), Untouched(), seed=-1)


def test_cbps_unpenalized_equals_tau_zero_path(arms):
    data, k1, k0 = arms
    res = fit_cbps_unpenalized(data, k1, k0)
    fit = fit_pel(data, k1, k0, scad=None)
    ref = ate_with_ci(data, fit, k1, k0)
    assert res.ate == pytest.approx(ref.ate, abs=1e-12)
    assert res.se == pytest.approx(ref.se, abs=1e-12)
    assert res.mu1 == pytest.approx(ref.mu1, abs=1e-12)


def test_cbps_unpenalized_requires_headroom():
    data = small_dataset(seed=2, n=60, p=3)
    sub = sc.Dataset(
        y=data.y[:4], delta=np.array([1, 1, 1, 1]),
        d=np.array([1, 0, 1, 0]), x=data.x[:4],
    )
    k1 = sc.fit_censoring_km(sub, 1)
    k0 = sc.fit_censoring_km(sub, 0)
    wide = sc.Dataset(
        y=sub.y, delta=sub.delta, d=sub.d,
        x=np.hstack([sub.x, sub.x * 2.0, sub.x * 3.0]),
    )
    with pytest.raises(sc.InputError):
        fit_cbps_unpenalized(wide, k1, k0)


def test_aipw_linear_runs_and_is_deterministic(arms):
    data, k1, k0 = arms
    a = fit_aipw(data, k1, k0, n_boot=60, seed=8)
    b = fit_aipw(data, k1, k0, n_boot=60, seed=8)
    assert a.ate == b.ate and a.se == b.se
    assert np.isfinite(a.se)


def test_naive_ipw_handles_near_separation():
    data = near_separation_data()
    k1 = sc.fit_censoring_km(data, 1)
    k0 = sc.fit_censoring_km(data, 0)
    res = fit_naive_ipw(data, k1, k0, n_boot=30, seed=4)
    assert np.isfinite(res.ate)
    assert np.isfinite(res.mu1) and np.isfinite(res.mu0)


@pytest.mark.parametrize(
    "name, n_boot",
    [("arms", 200), ("separation", 200), ("tiny", 200), ("tiny", 22),
     ("wide", 25)],
)
@pytest.mark.parametrize("estimator", ["naive_ipw", "aipw"])
def test_bootstrap_matches_per_resample_loop(arms, name, n_boot, estimator):
    data = {
        "arms": lambda: arms[0],
        "separation": near_separation_data,
        "tiny": tiny_data,
        # n q > 2^16: the Gram products go one resample at a time
        "wide": lambda: small_dataset(seed=21, n=2200, p=30),
    }[name]()
    k1 = sc.fit_censoring_km(data, 1)
    k0 = sc.fit_censoring_km(data, 0)
    if estimator == "naive_ipw":
        res = fit_naive_ipw(data, k1, k0, n_boot=n_boot, seed=5)
        point, stream = reference_ipw, (5, 0x1F)
    else:
        res = fit_aipw(data, k1, k0, n_boot=n_boot, seed=5)
        point, stream = reference_aipw, (5, 0x2F)
    boots, failures, refits = reference_bootstrap(
        data, k1, k0, point, stream, n_boot
    )
    assert_matches_reference(res, boots, failures, n_boot)
    if name == "separation":
        assert refits > 0
    if name == "tiny":
        assert failures > 0
        assert (len(boots) < 20) == (n_boot == 22)


def test_bootstrap_uses_each_arms_floor(arms):
    """The control curve is refitted at k0's floor, not at k1's."""
    data = arms[0]
    k1 = sc.fit_censoring_km(data, 1, floor=0.05)
    k0 = sc.fit_censoring_km(data, 0, floor=0.3)
    assert k0.values.min() == 0.3
    for fit, point, stream in (
        (fit_naive_ipw, reference_ipw, (5, 0x1F)),
        (fit_aipw, reference_aipw, (5, 0x2F)),
    ):
        res = fit(data, k1, k0, n_boot=200, seed=5)
        boots, failures, _ = reference_bootstrap(data, k1, k0, point, stream, 200)
        assert_matches_reference(res, boots, failures, 200)


@pytest.mark.parametrize("n, q", [(40, 3), (2200, 31)])
def test_design_gram_both_layouts(n, q):
    """Outer-product and per-row Gram stacks equal the explicit products.

    The outer-product stack is formed at the first Gram of more than one
    row, and only for n q <= 2^16; a design given only one row never forms it.
    """
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, q))
    w = rng.integers(0, 3, (4, n)).astype(float)
    expected = np.einsum("ni,bn,nj->bij", x, w, x)
    single = _Design(x)
    for row in range(4):
        np.testing.assert_allclose(
            single.gram(w[row:row + 1]), expected[row:row + 1],
            rtol=1e-12, atol=1e-9,
        )
    assert single._outer is None
    design = _Design(x)
    assert design._outer is None
    np.testing.assert_allclose(design.gram(w), expected, rtol=1e-12, atol=1e-9)
    assert (design._outer is None) == (n * q > 2 ** 16)
    np.testing.assert_allclose(
        design.gram(w[1:2]), expected[1:2], rtol=1e-12, atol=1e-9
    )
    assert design.gram(w[:0]).shape == (0, q, q)


def test_aipw_rank_deficient_arm_takes_the_ridge_fit():
    """3 treated rows and 201 columns: the treated regression is ridged.

    Without a rank test the fallback turned on whether LU met an exact zero
    pivot, so the estimate moved with the order of the rows.
    """
    base = small_dataset(seed=8, n=400, p=200)
    d = np.zeros(base.n, dtype=int)
    d[np.flatnonzero(base.delta == 1)[:3]] = 1
    data = sc.Dataset(y=base.y, delta=base.delta, d=d, x=base.x)
    k1 = sc.fit_censoring_km(data, 1)
    k0 = sc.fit_censoring_km(data, 0)
    res = fit_aipw(data, k1, k0, n_boot=2)
    assert "outcome regression was rank deficient; ridge added" in res.warnings

    y, delta, df = data.y, data.delta.astype(float), d.astype(float)
    pi, _ = reference_propensity(data.x, df, 0.01)
    ytil = delta * y / np.where(d == 1, k1.evaluate(y), k0.evaluate(y))
    xmat = np.column_stack((np.ones(data.n), data.x))
    treated = d == 1
    gram = xmat[treated].T @ xmat[treated]
    ridge = max(1e-6 * float(np.trace(gram)), 1e-10)
    m1 = xmat @ np.linalg.solve(
        gram + ridge * np.eye(gram.shape[0]), xmat[treated].T @ ytil[treated]
    )
    m0 = xmat @ reference_wls(xmat[~treated], ytil[~treated])
    ate = np.mean(m1 + df * (ytil - m1) / pi) - np.mean(
        m0 + (1.0 - df) * (ytil - m0) / (1.0 - pi)
    )
    assert res.ate == pytest.approx(ate, rel=1e-10)

    perm = np.random.default_rng(1).permutation(data.n)
    shuffled = sc.Dataset(
        y=data.y[perm], delta=data.delta[perm], d=d[perm], x=data.x[perm]
    )
    again = fit_aipw(
        shuffled, sc.fit_censoring_km(shuffled, 1),
        sc.fit_censoring_km(shuffled, 0), n_boot=2,
    )
    assert again.ate == pytest.approx(res.ate, rel=1e-10)


def boot_large_n_data():
    """Replication 0 of the benchmark's n = 5000, p = 10 bootstrap design."""
    root = Path(__file__).resolve().parents[1]
    config = sc.load_config(root / "bench" / "boot_large_n.conf")
    return config, sc.generate_dataset(config, 0)[0]


@pytest.mark.parametrize(
    "name, n_boot",
    [("arms", 200), ("separation", 200), ("tiny", 200), ("wide", 25),
     ("boot_large_n", 40)],
)
def test_warm_started_logistic_fits_match_the_cold_oracle(arms, name, n_boot):
    """Fits started at the full-sample beta, with the cold retry, equal the
    cold per-resample oracle: the same clean flags, and the same beta, from
    the ridge-1e-2 refit where a fit is not clean.

    On the near-separated design some resamples diverge from the
    full-sample beta although their fit from 0 converges; the cold retry
    is what brings them back to the oracle.
    """
    data = {
        "arms": lambda: arms[0],
        "separation": near_separation_data,
        "tiny": tiny_data,
        "wide": lambda: small_dataset(seed=21, n=2200, p=30),
        "boot_large_n": lambda: boot_large_n_data()[1],
    }[name]()
    n = data.n
    xmat = np.column_stack((np.ones(n), data.x))
    d = data.d.astype(float)
    design = _Design(xmat)
    start, full_clean = _logistic_mle(design, d, np.ones((1, n)))
    assert full_clean[0]
    rng = np.random.default_rng(np.random.SeedSequence((5, 0x1F)))
    counts = np.array([
        np.bincount(rng.integers(0, n, n), minlength=n) for _ in range(n_boot)
    ], dtype=float)
    warm_clean = _logistic_mle(design, d, counts, start=start[0])[1]
    clean, beta = _propensity(design, d, counts, 0.01, start=start[0])[1:]
    oracle, oracle_clean = [], []
    for c in counts.astype(int):
        idx = np.repeat(np.arange(n), c)
        coef, ok = reference_logistic(xmat[idx], d[idx])
        if not ok:
            coef = reference_logistic(xmat[idx], d[idx], ridge=1e-2)[0]
        oracle.append(coef)
        oracle_clean.append(ok)
    oracle_clean = np.array(oracle_clean)
    np.testing.assert_array_equal(clean, oracle_clean)
    np.testing.assert_allclose(beta, np.array(oracle), rtol=0, atol=1e-9)
    # no fit is clean from the full-sample beta unless it is clean from 0
    assert not np.any(warm_clean & ~oracle_clean)
    if name == "separation":
        assert np.any(~warm_clean & oracle_clean)


def test_bootstrap_hessian_budget(monkeypatch):
    """Resample fits start at the full-sample beta and reuse their Hessians.

    Newton from beta = 0 with a fresh Hessian at every step formed about
    5.7 logistic Hessians per resample on this design.
    """
    config, data = boot_large_n_data()
    k1 = sc.fit_censoring_km(data, 1, floor=config.km_floor)
    k0 = sc.fit_censoring_km(data, 0, floor=config.km_floor)
    rows = []
    real = _Design.gram

    def gram(self, w):
        rows.append(w.shape[0])
        return real(self, w)

    monkeypatch.setattr(_Design, "gram", gram)
    res = fit_naive_ipw(data, k1, k0, n_boot=config.n_boot, seed=5)
    assert np.isfinite(res.se)
    assert sum(rows) <= 2.5 * config.n_boot

import math
import warnings

import numpy as np
import pytest

import survcbps as sc
from survcbps.inference import _sandwich
from survcbps.moments import _Moments
from survcbps.solver import _Path


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def small_dataset(seed=0, n=60, p=3, censor=True):
    """Hand-rolled logistic/exponential draw used by several unit tests."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    beta = np.linspace(0.5, -0.5, p)
    d = (rng.random(n) < 1.0 / (1.0 + np.exp(-x @ beta))).astype(int)
    t = rng.exponential(2.0, n) * (1.0 + 0.3 * d)
    if censor:
        c = rng.exponential(5.0, n)
        y = np.minimum(t, c)
        delta = (t <= c).astype(int)
    else:
        y = t
        delta = np.ones(n, dtype=int)
    return sc.Dataset(y=y, delta=delta, d=d, x=x)


def sandwich_sigma(fit, data, k1, k0):
    """Sandwich covariance of fit's active coefficients, from the public
    ``stack_g`` and ``jacobian_g``; the dense matrix enters as the
    operator with a = 1 and no border."""
    params = fit.params
    g1 = sc.jacobian_g(params, data, k1, k0)[:, fit.active_set]
    return _sandwich(_Moments(sc.stack_g(params, data, k1, k0)), g1)[0]


def full_path_select(data, k1, k0, clip=0.01):
    """select_tau without its early stop: (tau, fit, every fit).

    Fits every tau of the default grid, largest first, on one warm-started
    path and scores each as select_tau does: 2 * EL term + |active set| *
    log n, replacing the incumbent only below 1e-9 * (1 + |incumbent|)
    under it. The reference the stopped path must reproduce.
    """
    path = _Path(data, k1, k0, clip)
    logn = math.log(data.n)
    best, fits = None, []
    for tau in sc.default_tau_grid(data.n, data.p)[::-1]:
        scad = sc.ScadParams(lam=float(tau))
        fit = sc.fit_pel(data, k1, k0, scad, _path=path)
        fits.append(fit)
        score = 2.0 * fit.dual.inner_objective + fit.active_set.size * logn
        if best is None or score < best[0] - 1e-9 * (1.0 + abs(best[0])):
            best = (score, float(tau), fit)
    return best[1], best[2], fits


def ipcw_hajek_means(y, delta, d, pi, kdy):
    """Plain-numpy IPCW Hajek means (mu1, mu0); kdy is each row's own-arm K(Y).

    Raises DegenerateArmError when an arm has zero total weight.
    """
    w1 = d * delta / (pi * kdy)
    w0 = (1.0 - d) * delta / ((1.0 - pi) * kdy)
    if not (w1.sum() > 0.0 and w0.sum() > 0.0):
        raise sc.DegenerateArmError("an arm has zero total weight")
    return float((w1 * y).sum() / w1.sum()), float((w0 * y).sum() / w0.sum())


# out-of-range clip bounds and confidence levels; every entry point rejects them
BAD_CLIPS = [0.0, -0.1, 0.5, 0.7, float("nan")]
BAD_LEVELS = [0.0, 1.0, 1.5, -0.1, float("nan"), float(np.nextafter(1.0, 0.0))]
# out-of-range censoring-curve floors and bootstrap sizes
BAD_FLOORS = [0.0, 1.0, 1.5, -0.1, float("nan")]
BAD_N_BOOTS = [0, -3]
# worker counts that run_study and simulate --workers reject
BAD_WORKERS = [0, -3]


def small_dump() -> dict:
    """The dump.json document of a hand-built one-replication report.

    Its truth carries a nonzero MC SE, as a dump of a Monte Carlo truth did.
    """
    config = sc.SimConfig(n=60, p=5, replications=1, estimators=("naive_ipw",))
    row = sc.simulation.EstimatorRow("naive_ipw", 0.1, 0.2, 100.0, 0, 3.0)
    rep = sc.simulation.RepRecord(0, "naive_ipw", 1.1, 0.6, 1.6, 0.25, 3.0)
    return sc.SimReport(config, 1.0, 0.01, (row,), (rep,)).to_dump()


# ways to spoil a dump document past its schema check, each in place
SPOILED_DUMPS = {
    "no_true_ate": lambda doc: doc.pop("true_ate"),
    "true_ate_text": lambda doc: doc.update(true_ate="abc"),
    "n_too_small": lambda doc: doc["config"].update(n=5),
    "clip_too_large": lambda doc: doc["config"].update(clip=0.7),
    "no_config_n": lambda doc: doc["config"].pop("n"),
    "row_bias_text": lambda doc: doc["rows"][0].update(bias="abc"),
    "rep_estimate_text": lambda doc: doc["replications"][0].update(estimate="abc"),
    "true_ate_number_text": lambda doc: doc.update(true_ate="1.5"),
    "config_n_float": lambda doc: doc["config"].update(n=60.0),
}


class Untouched:
    """A stand-in censoring curve: reading any attribute fails the test.

    Passed where an argument check has to fail before any work starts.
    """

    def __getattr__(self, name):
        raise AssertionError(f"work started: curve.{name} was read")


@pytest.fixture
def toy_data():
    return small_dataset(seed=3)


@pytest.fixture
def toy_uncensored():
    return small_dataset(seed=5, censor=False)


@pytest.fixture(scope="session")
def p10_study():
    """200 replications of the p = 10, s = 3 design at n = 500.

    Shared between the sandwich calibration test and the acceptance suite
    because the loop costs a few minutes. Collects per-replication point
    estimates, standard errors, interval coverage, and the fitted first
    coefficient with its sandwich standard error whenever it was selected.
    """
    cfg = sc.SimConfig(
        n=500, p=10, beta_nonzero=3, replications=200, seed=2026,
        estimators=("proposed",),
    )
    ta = sc.true_ate(cfg)
    ates, ses, covered = [], [], []
    b1, b1_se = [], []
    n_fail = 0
    for rep in range(cfg.replications):
        data, _ = sc.generate_dataset(cfg, rep)
        k1 = sc.fit_censoring_km(data, 1, floor=cfg.km_floor)
        k0 = sc.fit_censoring_km(data, 0, floor=cfg.km_floor)
        try:
            _, fit = sc.select_tau(data, k1, k0, clip=cfg.clip)
            res = sc.ate_with_ci(data, fit, k1, k0)
        except sc.SurvCbpsError:
            n_fail += 1
            continue
        ates.append(res.ate)
        ses.append(res.se)
        covered.append(res.ci_low <= ta <= res.ci_high)
        if 0 in fit.active_set:
            b1.append(fit.beta_hat[0])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sigma = sandwich_sigma(fit, data, k1, k0)
            pos = list(fit.active_set).index(0)
            b1_se.append(float(np.sqrt(sigma[pos, pos] / data.n)))
    return {
        "config": cfg,
        "true_ate": ta,
        "ate": np.asarray(ates),
        "se": np.asarray(ses),
        "covered": np.asarray(covered, dtype=bool),
        "beta1": np.asarray(b1),
        "beta1_se": np.asarray(b1_se),
        "n_fail": n_fail,
    }

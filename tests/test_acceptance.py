"""End-to-end acceptance gate.

Each test checks one numbered claim about the estimator stack at its stated
tolerance and prints a single [PASS]/[FAIL] line, collected into a summary
section at the end of the pytest run. The heavy Monte Carlo fixtures are
module-scoped so the suite stays inside its runtime budgets on one core.
"""

import dataclasses
import time

import numpy as np
import pytest

import survcbps as sc
from conftest import small_dataset
from test_censoring import brute_force_censor_survival
from test_scad import reference_derivative, reference_value
from test_solver import (
    maximize_dual_generic, oracle_el_weights, random_moment_matrix,
)


@pytest.fixture
def check(request):
    def _check(ok, label):
        line = f"[{'PASS' if ok else 'FAIL'}] {label}"
        store = getattr(request.config, "_acceptance_lines", None)
        if store is None:
            store = []
            request.config._acceptance_lines = store
        store.append(line)
        print(line)
        return bool(ok)

    return _check


def _km_fits(data, floor=0.05):
    return (
        sc.fit_censoring_km(data, 1, floor=floor),
        sc.fit_censoring_km(data, 0, floor=floor),
    )


# ---------------------------------------------------------------------------
# heavy shared fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def study300():
    """Benchmark study: n = 300, p = 20, 100 replications, both estimators."""
    cfg = sc.SimConfig(
        n=300, p=20, replications=100, seed=42,
        estimators=("proposed", "naive_ipw"),
    )
    start = time.perf_counter()
    report = sc.run_study(cfg)
    elapsed = time.perf_counter() - start
    return report, elapsed


@pytest.fixture(scope="module")
def sparsity_runs():
    """Support recovery at n = 1000, p = 50 with 10 nonzero coefficients."""
    cfg = sc.SimConfig(
        n=1000, p=50, beta_nonzero=10, gamma_nonzero=10,
        replications=50, seed=42, estimators=("proposed",),
    )
    zero_hits = zero_total = sign_hits = sign_total = 0
    start = time.perf_counter()
    for rep in range(cfg.replications):
        data, truth = sc.generate_dataset(cfg, rep)
        k1, k0 = _km_fits(data, cfg.km_floor)
        _, fit = sc.select_tau(data, k1, k0, clip=cfg.clip)
        null = truth.beta == 0.0
        zero_hits += int(np.sum(fit.beta_hat[null] == 0.0))
        zero_total += int(null.sum())
        sign_hits += int(
            np.sum(np.sign(fit.beta_hat[~null]) == np.sign(truth.beta[~null]))
        )
        sign_total += int((~null).sum())
    elapsed = time.perf_counter() - start
    return zero_hits / zero_total, sign_hits / sign_total, elapsed


@pytest.fixture(scope="module")
def consistency_medians():
    """Median coefficient error of the p = 10 design at n = 250 and 1000."""
    meds = {}
    for n in (250, 1000):
        cfg = sc.SimConfig(
            n=n, p=10, beta_nonzero=3, replications=50, seed=42,
            estimators=("proposed",),
        )
        errs = []
        for rep in range(cfg.replications):
            data, truth = sc.generate_dataset(cfg, rep)
            k1, k0 = _km_fits(data, cfg.km_floor)
            try:
                _, fit = sc.select_tau(data, k1, k0, clip=cfg.clip)
            except sc.SurvCbpsError:
                errs.append(np.inf)
                continue
            errs.append(float(np.linalg.norm(fit.beta_hat - truth.beta)))
        meds[n] = float(np.median(errs))
    return meds


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_inner_dual_oracle(check):
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    ok = True
    for _ in range(100):
        g, _ = random_moment_matrix(rng)
        state = sc.solve_inner_dual(g)
        lam_ref, val_ref = maximize_dual_generic(g)
        # balance weights from lam by the log*' formula, not the solver
        w = oracle_el_weights(state.lam, g)
        ok = ok and state.converged
        ok = ok and abs(state.inner_objective - val_ref) <= 1e-6
        ok = ok and bool(np.max(np.abs(state.lam - lam_ref)) <= 1e-4)
        ok = ok and bool(np.max(np.abs(w @ g)) <= 1e-6)
        ok = ok and bool(np.allclose(state.weights, w, rtol=1e-12, atol=0))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    assert check(
        ok,
        "criterion 1: inner EL dual matches a brute-force maximizer on "
        f"100 fixtures, obj 1e-6 / lam 1e-4, in {elapsed:.1f}s (< 10s)",
    )


def test_criterion_02_derivative_checks(check):
    from survcbps.moments import _profile_grad
    from survcbps.solver import _logstar, _Path

    ok = True
    # analytic moment jacobian against central differences
    for seed in range(5):
        data = small_dataset(seed=seed, n=50, p=3)
        k1, k0 = _km_fits(data)
        rng = np.random.default_rng(100 + seed)
        beta = rng.uniform(-0.4, 0.4, data.p)
        jac = sc.jacobian_g(sc.PropensityParams(beta=beta), data, k1, k0)
        h = 1e-6
        for j in range(data.p):
            up, dn = beta.copy(), beta.copy()
            up[j] += h
            dn[j] -= h
            gu = sc.stack_g(sc.PropensityParams(beta=up), data, k1, k0)
            gd = sc.stack_g(sc.PropensityParams(beta=dn), data, k1, k0)
            fd = (gu.mean(axis=0) - gd.mean(axis=0)) / (2 * h)
            ok = ok and bool(
                np.all(np.abs(jac[:, j] - fd) <= 1e-4 * (1.0 + np.abs(fd)))
            )

    # profile EL gradient against central differences
    data = small_dataset(seed=3)
    k1, k0 = _km_fits(data)
    path = _Path(data, k1, k0, clip=0.01)
    rng = np.random.default_rng(7)
    for _ in range(3):
        beta = rng.uniform(-0.25, 0.25, data.p)  # internal coordinates
        _, state, gm, slopes = path.q_eval(beta, None)
        state = sc.solve_inner_dual(gm, state.lam, tol=1e-12)
        row_scale = _logstar(1.0 + gm.dot(state.lam), 1.0 / path.n, derivs=True)[1]
        grad = _profile_grad(path.x, slopes, state.lam, row_scale)
        h = 1e-5
        for j in range(data.p):
            up, dn = beta.copy(), beta.copy()
            up[j] += h
            dn[j] -= h
            fd = (path.q_eval(up, None)[0] - path.q_eval(dn, None)[0]) / (2 * h)
            ok = ok and abs(grad[j] - fd) <= 1e-4 * (1.0 + abs(fd))
    assert check(
        ok,
        "criterion 2: moment jacobian and profile gradient match central "
        "finite differences to 1e-4 relative",
    )


def test_criterion_03_km_brute_force(check):
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        n1 = int(rng.integers(2, 9))
        y1 = rng.integers(1, 5, n1).astype(float)  # integer times force ties
        delta1 = rng.integers(0, 2, n1)
        delta1[int(rng.integers(n1))] = 1  # keep the arm non-degenerate
        y = np.concatenate([y1, [1.0, 2.0]])
        delta = np.concatenate([delta1, [1, 1]])
        d = np.concatenate([np.ones(n1, dtype=int), [0, 0]])
        data = sc.Dataset(y=y, delta=delta, d=d, x=np.zeros((n1 + 2, 1)))
        floor = 1e-12
        km = sc.fit_censoring_km(data, 1, floor=floor)
        grid = np.concatenate([np.arange(0.0, 6.0, 0.5), y1])
        got = km.evaluate(grid)
        want = np.array(
            [
                max(brute_force_censor_survival(y1, delta1, u), floor)
                for u in grid
            ]
        )
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert check(
        worst <= 1e-12,
        "criterion 3: censoring product-limit curve matches O(n^2) brute "
        f"force on 200 tied fixtures, max err {worst:.2e} (<= 1e-12)",
    )


def test_criterion_04_uncensored_reduction(check):
    data = small_dataset(seed=5, n=80, p=3, censor=False)
    k1, k0 = _km_fits(data)
    rng = np.random.default_rng(17)
    worst = 0.0
    base = sc.fit_pel(data, k1, k0, scad=None)
    for _ in range(5):
        beta = rng.uniform(-0.5, 0.5, data.p)
        res = sc.ate_with_ci(data, dataclasses.replace(base, beta_hat=beta), k1, k0)
        mu1, mu0 = res.mu1, res.mu0
        pi = sc.propensity(sc.PropensityParams(beta=beta), data.x)
        w1 = data.d / pi
        w0 = (1 - data.d) / (1 - pi)
        ref1 = float(w1 @ data.y / w1.sum())
        ref0 = float(w0 @ data.y / w0.sum())
        worst = max(worst, abs(mu1 - ref1), abs(mu0 - ref0))
    assert check(
        worst <= 1e-12,
        "criterion 4: with no censoring the weighted means equal the plain "
        f"Hajek estimator, max err {worst:.2e} (<= 1e-12)",
    )


def test_criterion_05_scad_forms(check):
    ok = True
    for lam, a in [(0.5, 3.7), (0.2, 3.0), (1.3, 2.5)]:
        params = sc.ScadParams(lam=lam, a=a)
        grid = np.linspace(0.0, (a + 2.0) * lam, 1000)
        dref = np.array([reference_derivative(t, lam, a) for t in grid])
        vref = np.array([reference_value(t, lam, a) for t in grid])
        ok = ok and bool(
            np.max(np.abs(sc.scad_derivative(grid, params) - dref)) <= 1e-12
        )
        ok = ok and bool(
            np.max(np.abs(sc.scad_value(grid, params) - vref)) <= 1e-12
        )
        # numerical derivative of the value off the two knots
        h = 1e-5
        interior = grid[(grid > 10 * h)]
        for knot in (lam, a * lam):
            interior = interior[np.abs(interior - knot) > 10 * h]
        num = (
            sc.scad_value(interior + h, params)
            - sc.scad_value(interior - h, params)
        ) / (2 * h)
        ok = ok and bool(
            np.max(np.abs(num - sc.scad_derivative(interior, params))) <= 1e-6
        )
    assert check(
        ok,
        "criterion 5: SCAD derivative matches its closed form on 1000-point "
        "grids and the numerical derivative of the value off-knot (1e-6)",
    )


@pytest.mark.slow
def test_criterion_06_sparsity_recovery(check, sparsity_runs):
    zero_rate, sign_rate, elapsed = sparsity_runs
    ok = zero_rate >= 0.90 and sign_rate >= 0.80 and elapsed < 1800.0
    assert check(
        ok,
        "criterion 6: n=1000 p=50 support recovery, exact zeros "
        f"{100 * zero_rate:.1f}% (>= 90%), sign agreement "
        f"{100 * sign_rate:.1f}% (>= 80%), {elapsed:.0f}s (< 30min)",
    )


@pytest.mark.slow
def test_criterion_07_consistency_trend(check, consistency_medians):
    m250 = consistency_medians[250]
    m1000 = consistency_medians[1000]
    ok = m1000 <= 0.85 * m250
    assert check(
        ok,
        "criterion 7: median coefficient error shrinks with n, "
        f"{m1000:.4f} at n=1000 vs {m250:.4f} at n=250 (ratio "
        f"{m1000 / m250:.2f} <= 0.85)",
    )


def _row(report, name):
    for row in report.rows:
        if row.estimator == name:
            return row
    raise AssertionError(f"estimator {name!r} missing from report")


@pytest.mark.slow
def test_criterion_08a_coverage(check, study300):
    report, _ = study300
    cov = _row(report, "proposed").coverage_pct
    assert check(
        88.0 <= cov <= 99.0,
        f"criterion 8a: proposed coverage {cov:.1f}% within [88, 99]",
    )


@pytest.mark.slow
def test_criterion_08b_rmse_ordering(check, study300):
    report, _ = study300
    r_prop = _row(report, "proposed").rmse
    r_naive = _row(report, "naive_ipw").rmse
    assert check(
        r_prop < r_naive,
        f"criterion 8b: RMSE proposed {r_prop:.4f} < naive IPW {r_naive:.4f}",
    )


@pytest.mark.slow
def test_criterion_08c_bias_ordering(check, study300):
    report, _ = study300
    b_prop = abs(_row(report, "proposed").bias)
    b_naive = abs(_row(report, "naive_ipw").bias)
    assert check(
        b_prop <= b_naive,
        f"criterion 8c: |bias| proposed {b_prop:.4f} <= naive IPW "
        f"{b_naive:.4f}",
    )


@pytest.mark.slow
def test_criterion_08d_runtime(check, study300):
    _, elapsed = study300
    assert check(
        elapsed < 1200.0,
        f"criterion 8d: benchmark study finished in {elapsed:.0f}s (< 20min)",
    )


@pytest.mark.slow
def test_criterion_09_se_calibration(check, p10_study):
    sd = float(np.std(p10_study["ate"], ddof=1))
    mean_se = float(np.mean(p10_study["se"]))
    ratio = mean_se / sd
    assert check(
        0.7 <= ratio <= 1.3,
        f"criterion 9: mean estimated SE {mean_se:.4f} vs empirical SD "
        f"{sd:.4f}, ratio {ratio:.2f} within [0.7, 1.3]",
    )


def test_criterion_10_worker_determinism(check, tmp_path):
    from survcbps import cli

    blobs = {}
    ok = True
    for workers in (1, 3):
        out = tmp_path / f"w{workers}"
        code = cli.main([
            "simulate", "--n", "120", "--p", "4",
            "--beta-nonzero", "2", "--gamma-nonzero", "2",
            "--replications", "6", "--n-boot", "40",
            "--estimators", "proposed,naive_ipw", "--seed", "7",
            "--workers", str(workers), "--out-dir", str(out),
        ])
        ok = ok and code == 0
        blobs[workers] = (out / "report.csv").read_bytes()
    ok = ok and blobs[1] == blobs[3]
    assert check(
        ok,
        "criterion 10: report CSV bytes identical for 1 and 3 workers at a "
        "fixed seed",
    )

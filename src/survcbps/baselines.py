"""Reference estimators the balanced fit is benchmarked against.

All three consume the same dataset and per-arm censoring curves as the
main estimator:

``fit_naive_ipw``
    plain logistic maximum likelihood (with intercept, no penalty, no
    balance constraints) plugged into the same censoring-adjusted weighted
    means.

``fit_cbps_unpenalized``
    the tau = 0 path of the penalized solver: all p coefficients kept, no
    thresholding, inference exactly as for the penalized fit.

``fit_aipw``
    augmented IPW with per-arm linear outcome regressions fitted to the
    censoring-transformed response Delta * Y / K_d(Y); the augmentation
    term uses the naive logistic propensities, unnormalized.

Naive IPW and AIPW report nonparametric-bootstrap standard errors (the
whole pipeline, censoring curves included, is refitted on each resample)
with normal-approximation intervals.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, ndtri

from .censoring import CensorSurvival, fit_censoring_km
from .data import Dataset
from .errors import DegenerateArmError, InputError
from .inference import (
    ATEResult,
    _hajek_means,
    _ipcw_weight_arrays,
    _kish,
    ate_with_ci,
    weighted_median,
)
from .solver import FitOptions, fit_pel


@dataclass(frozen=True)
class BaselineSpec:
    """Which baseline to run plus method-specific knobs."""

    kind: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("naive_ipw", "cbps_unpenalized", "aipw"):
            raise InputError(f"unknown baseline kind: {self.kind!r}")


def _logistic_mle(xmat, d, ridge=1e-6, max_iter=100, tol=1e-10):
    """Logistic regression by Newton iteration; xmat already has any constant."""
    n, q = xmat.shape
    beta = np.zeros(q)
    converged = False
    for _ in range(max_iter):
        eta = xmat @ beta
        prob = expit(eta)
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


def _naive_propensity(x, d, clip, ridge=1e-6):
    xmat = np.column_stack((np.ones(x.shape[0]), x))
    coef, clean = _logistic_mle(xmat, d, ridge=ridge)
    if not clean:
        # likely separation; refit with a stronger ridge
        coef, _ = _logistic_mle(xmat, d, ridge=1e-2)
    pi = np.clip(expit(xmat @ coef), clip, 1.0 - clip)
    return pi, clean


def _ipw_point(y, delta, d, pi, k1y, k0y):
    w1, w0 = _ipcw_weight_arrays(y, delta, d, pi, k1y, k0y)
    mu1, mu0 = _hajek_means(y, w1, w0)
    return mu1, mu0, w1, w0


def _bootstrap(data, y, delta, d, point_fn, *, ate, level, clip, floor,
               n_boot, stream, notes):
    """Bootstrap SE and normal CI, refitting censoring and propensity per resample.

    ``point_fn(y, delta, d, x, pi, k1y, k0y)`` returns ``(mu1, mu0)`` on a
    resample drawn from ``SeedSequence(stream)``. Degenerate resamples are
    skipped and counted in ``notes``; fewer than 20 usable ones give NaN.
    """
    rng = np.random.default_rng(np.random.SeedSequence(stream))
    boots = []
    failures = 0
    for _ in range(n_boot):
        idx = rng.integers(0, data.n, data.n)
        try:
            yb, db, deltab, xb = y[idx], d[idx], delta[idx], data.x[idx]
            k1b = CensorSurvival.fit(yb[db == 1], deltab[db == 1], floor=floor)
            k0b = CensorSurvival.fit(yb[db == 0], deltab[db == 0], floor=floor)
            pib, _ = _naive_propensity(xb, db, clip)
            m1b, m0b = point_fn(
                yb, deltab, db, xb, pib, k1b.evaluate(yb), k0b.evaluate(yb)
            )
            boots.append(m1b - m0b)
        except (DegenerateArmError, np.linalg.LinAlgError):
            failures += 1
    if failures:
        notes.append(f"{failures} of {n_boot} bootstrap resamples were degenerate")
    if len(boots) < 20:
        return float("nan"), (float("nan"), float("nan"))
    se = float(np.asarray(boots, dtype=float).std(ddof=1))
    z = float(ndtri(0.5 + level / 2.0))
    return se, (ate - z * se, ate + z * se)


def _medians_from_pi(y, d, pi):
    raw1 = d / pi
    raw0 = (1.0 - d) / (1.0 - pi)
    med1 = weighted_median(y, raw1 / raw1.sum())
    med0 = weighted_median(y, raw0 / raw0.sum())
    return med1, med0


def fit_naive_ipw(
    data: Dataset,
    k1: CensorSurvival,
    k0: CensorSurvival,
    clip: float = 0.01,
    level: float = 0.95,
    n_boot: int = 200,
    seed: int = 0,
) -> ATEResult:
    """Censoring-adjusted IPW with an unregularized logistic propensity."""
    notes = []
    if data.n <= data.p:
        notes.append("n <= p: logistic MLE is unstable, ridge 1e-6 applied")
    y = data.y
    delta = data.delta.astype(float)
    d = data.d.astype(float)
    k1y, k0y = k1.evaluate(y), k0.evaluate(y)
    pi, clean = _naive_propensity(data.x, d, clip)
    if not clean:
        notes.append("separation detected; propensity refit with ridge 1e-2")
    mu1, mu0, w1, w0 = _ipw_point(y, delta, d, pi, k1y, k0y)
    ate = mu1 - mu0

    se, (lo, hi) = _bootstrap(
        data, y, delta, d,
        lambda yb, deltab, db, xb, pib, k1yb, k0yb: _ipw_point(
            yb, deltab, db, pib, k1yb, k0yb
        )[:2],
        ate=ate, level=level, clip=clip, floor=k1.floor, n_boot=n_boot,
        stream=(seed, 0x1F), notes=notes,
    )
    med1, med0 = _medians_from_pi(y, d, pi)
    return ATEResult(
        mu1=mu1, mu0=mu0, ate=ate, se=se, ci_low=lo, ci_high=hi,
        median1=med1, median0=med0, median_diff=med1 - med0,
        n_effective_1=_kish(w1), n_effective_0=_kish(w0),
        warnings=tuple(notes), level=level,
    )


def fit_cbps_unpenalized(
    data: Dataset,
    k1: CensorSurvival,
    k0: CensorSurvival,
    clip: float = 0.01,
    level: float = 0.95,
) -> ATEResult:
    """Balanced fit with no penalty; requires p + 2 <= n."""
    if data.p + 2 > data.n:
        raise InputError("unpenalized balancing needs p + 2 <= n")
    fit = fit_pel(data, k1, k0, scad=None, opts=FitOptions(clip=clip))
    return ate_with_ci(data, fit, k1, k0, level=level)


def _wls_outcome(xmat, resp, ridge_floor=1e-10):
    """Least squares with a ridge fallback on rank deficiency."""
    gram = xmat.T @ xmat
    rhs = xmat.T @ resp
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        ridge = max(1e-6 * float(np.trace(gram)), ridge_floor)
        gram = gram + ridge * np.eye(gram.shape[0])
        _warnings.warn(
            "outcome regression was rank deficient; ridge added", RuntimeWarning
        )
        return np.linalg.solve(gram, rhs)


def _aipw_point(y, delta, d, x, pi, k1y, k0y, outcome_model):
    kdy = np.where(d == 1, k1y, k0y)
    ytil = delta * y / kdy
    n = y.shape[0]
    xmat = np.column_stack((np.ones(n), x))
    if outcome_model == "zero":
        m1 = np.zeros(n)
        m0 = np.zeros(n)
    else:
        treated = d == 1
        if treated.sum() < 2 or (~treated).sum() < 2:
            raise DegenerateArmError("an arm is too small for outcome regression")
        coef1 = _wls_outcome(xmat[treated], ytil[treated])
        coef0 = _wls_outcome(xmat[~treated], ytil[~treated])
        m1 = xmat @ coef1
        m0 = xmat @ coef0
    mu1 = float(np.mean(m1 + d * (ytil - m1) / pi))
    mu0 = float(np.mean(m0 + (1.0 - d) * (ytil - m0) / (1.0 - pi)))
    return mu1, mu0


def fit_aipw(
    data: Dataset,
    k1: CensorSurvival,
    k0: CensorSurvival,
    clip: float = 0.01,
    level: float = 0.95,
    n_boot: int = 200,
    seed: int = 0,
    outcome_model: str = "linear",
) -> ATEResult:
    """Augmented IPW with censoring-transformed linear outcome regressions."""
    if outcome_model not in ("linear", "zero"):
        raise InputError("outcome_model must be 'linear' or 'zero'")
    notes = []
    if data.n <= data.p:
        notes.append("n <= p: logistic MLE is unstable, ridge 1e-6 applied")
    y = data.y
    delta = data.delta.astype(float)
    d = data.d.astype(float)
    k1y, k0y = k1.evaluate(y), k0.evaluate(y)
    pi, clean = _naive_propensity(data.x, d, clip)
    if not clean:
        notes.append("separation detected; propensity refit with ridge 1e-2")
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        mu1, mu0 = _aipw_point(y, delta, d, data.x, pi, k1y, k0y, outcome_model)
    notes.extend(str(w.message) for w in caught)
    ate = mu1 - mu0

    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        se, (lo, hi) = _bootstrap(
            data, y, delta, d,
            lambda *resample: _aipw_point(*resample, outcome_model),
            ate=ate, level=level, clip=clip, floor=k1.floor, n_boot=n_boot,
            stream=(seed, 0x2F), notes=notes,
        )
    med1, med0 = _medians_from_pi(y, d, pi)
    w1, w0 = _ipcw_weight_arrays(y, delta, d, pi, k1y, k0y)
    return ATEResult(
        mu1=mu1, mu0=mu0, ate=ate, se=se, ci_low=lo, ci_high=hi,
        median1=med1, median0=med0, median_diff=med1 - med0,
        n_effective_1=_kish(w1), n_effective_0=_kish(w0),
        warnings=tuple(notes), level=level,
    )


def run_baseline(
    spec: BaselineSpec,
    data: Dataset,
    k1: CensorSurvival,
    k0: CensorSurvival,
    **common,
) -> ATEResult:
    """Dispatch a baseline by its spec; common kwargs pass through."""
    kwargs = dict(common)
    kwargs.update(spec.options)
    if spec.kind == "naive_ipw":
        return fit_naive_ipw(data, k1, k0, **kwargs)
    if spec.kind == "aipw":
        return fit_aipw(data, k1, k0, **kwargs)
    kwargs.pop("n_boot", None)
    kwargs.pop("seed", None)
    return fit_cbps_unpenalized(data, k1, k0, **kwargs)

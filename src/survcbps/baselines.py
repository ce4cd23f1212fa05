"""Reference estimators the balanced fit is benchmarked against.

All three consume the same dataset and per-arm censoring curves as the
main estimator:

``fit_naive_ipw``
    plain logistic maximum likelihood (with intercept, no penalty, no
    balance constraints) plugged into the same censoring-adjusted weighted
    means: the IPCW weights of ``moments._ipcw_weights`` on the own-arm
    curve K_D(Y) (``moments._own_arm_k``).

``fit_cbps_unpenalized``
    the tau = 0 path of the penalized solver: all p coefficients kept, no
    thresholding, inference exactly as for the penalized fit.

``fit_aipw``
    augmented IPW with per-arm linear outcome regressions fitted to the
    censoring-transformed response Delta * Y / K_d(Y); the augmentation
    term uses the naive logistic propensities, unnormalized.

Naive IPW and AIPW report nonparametric-bootstrap standard errors (the
whole pipeline, censoring curves included, is refitted on each resample)
with normal-approximation intervals. Both go through one front end,
``_fit_baseline``, and differ only in their count-weighted point step. It
checks the clip bound and the level before any work, and ends, as
``ate_with_ci`` does, with ``inference._ate_result``, which forms the
interval, the medians and the Kish sizes. The
full-sample estimate is that step on one row of counts, all ones, with the
propensity from the same Newton logistic fit (``moments._logistic_mle``)
that the solver's path start and every resample use.

The bootstrap works on counts. Resample b draws its n row indices with one
``integers(0, n, n)`` call, exactly as drawing rows would, and is kept as a
row of counts: how often each row of the y-sorted data was drawn. Blocks of
such rows go through count-weighted kernels together: the per-arm
product-limit curves (``censoring._product_limit``), Newton logistic fits
from beta = 0 that each stop at their own tolerance, and count-weighted
point steps. The counts are exact integers, so the censoring curves equal
those fitted to resampled copies, and everything else agrees with refitting
each copy up to the order of floating-point sums. A block holds
``max(1, 2**16 // max(n, q**2))`` resamples (q = p + 1), so each of its
(block x n) arrays and its (block x q x q) Hessian stack holds about 2**16
floats. The bootstrap's ``_Design`` forms its n x q(q + 1)/2 stack of
upper-triangle row products at the first block of more than one resample
(when n q <= 2**16); the full-sample design only ever sees one row and
never forms it. That stack serves the logistic Hessians and the AIPW
outcome Grams alike.
"""

from __future__ import annotations

import warnings as _warnings

import numpy as np

from .censoring import CensorSurvival, _product_limit
from .data import Dataset
from .errors import DegenerateArmError, InputError
from .inference import ATEResult, _ate_result, _z_value, ate_with_ci
from .moments import (
    _BLOCK_FLOATS, _check_clip, _Design, _ipcw_weights, _logistic_mle,
    _own_arm_k, _solve, expit,
)
from .solver import fit_pel


def _propensity(design, d, counts, clip):
    """Clipped logistic propensities and ``clean`` flags, one row per row of counts."""
    beta, clean = _logistic_mle(design, d, counts)
    if not clean.all():
        # likely separation; refit with a stronger ridge
        beta[~clean] = _logistic_mle(design, d, counts[~clean], ridge=1e-2)[0]
    return np.clip(expit(beta @ design.x.T), clip, 1.0 - clip), clean


def _ipw_means(c, y, delta, d, design, pi, kdy):
    """Count-weighted Hajek means; ``ok`` is False where an arm has zero weight."""
    w1, w0 = (c * w for w in _ipcw_weights(delta, d, pi, kdy))
    den1, den0 = w1.sum(axis=1), w0.sum(axis=1)
    ok = ~((den1 <= 0.0) | (den0 <= 0.0))
    return (w1[ok] @ y) / den1[ok], (w0[ok] @ y) / den0[ok], ok


def _ridged(gram, rhs):
    """Least squares fallback for a rank-deficient outcome regression."""
    ridge = max(1e-6 * float(np.trace(gram)), 1e-10)
    _warnings.warn(
        "outcome regression was rank deficient; ridge added", RuntimeWarning
    )
    return np.linalg.solve(gram + ridge * np.eye(gram.shape[0]), rhs)


def _outcome_coef(design, ca, ytil):
    """Least squares of ``ytil`` on ``design.x``, one fit per row of counts ``ca``.

    A fit that counts fewer rows than columns is rank deficient and takes
    ``_ridged`` directly, so its rank decides the fallback, not whether LU
    meets an exact zero pivot.
    """
    x = design.x
    gram, rhs = design.gram(ca), (ca * ytil) @ x
    short = np.count_nonzero(ca, axis=1) < x.shape[1]
    coef = np.empty(rhs.shape)
    for k in np.flatnonzero(short):
        coef[k] = _ridged(gram[k], rhs[k])
    if not short.all():
        coef[~short] = _solve(gram[~short], rhs[~short], _ridged)
    return coef


def _aipw_means(c, y, delta, d, design, pi, kdy):
    """Count-weighted AIPW means; ``ok`` is False where an arm has < 2 rows."""
    ytil = delta * y / kdy
    n1 = c @ d
    ok = (n1 >= 2) & (c.sum(axis=1) - n1 >= 2)
    c, ytil, pi = c[ok], ytil[ok], pi[ok]
    x = design.x
    m1, m0 = (
        _outcome_coef(design, ca, ytil) @ x.T for ca in (c * d, c * (1.0 - d))
    )
    n = y.shape[0]
    mu1 = (c * (m1 + d * (ytil - m1) / pi)).sum(axis=1) / n
    mu0 = (c * (m0 + (1.0 - d) * (ytil - m0) / (1.0 - pi))).sum(axis=1) / n
    return mu1, mu0, ok


def _bootstrap(data, y, delta, d, point_fn, *, clip, floors, n_boot, stream,
               notes):
    """Bootstrap SE, refitting censoring and propensity per resample.

    Resample b is drawn from ``SeedSequence(stream)``, one ``integers(0, n, n)``
    call each, and becomes a row of counts over the y-sorted data; blocks of
    rows go through the count kernels together. ``floors[arm]`` is each arm's
    curve floor. ``point_fn(c, y, delta, d, design, pi, kdy)`` returns
    ``(mu1, mu0, ok)``, the means for the rows it accepts. Degenerate
    resamples are skipped and counted in ``notes``; fewer than 20 usable ones
    give NaN.
    """
    n = data.n
    order = np.argsort(y, kind="stable")
    y, delta, d = y[order], delta[order], d[order]
    design = _Design(np.column_stack((np.ones(n), data.x[order])))
    arms = []
    for arm in (0, 1):
        rows = np.flatnonzero(d == arm)
        censored = delta[rows] == 0
        # each row's left limit sits after the censoring times below its y
        slot = np.searchsorted(np.unique(y[rows][censored]), y[rows])
        arms.append((rows, y[rows], censored, slot, floors[arm]))

    def replicates(counts):
        n1 = counts @ d
        counts = counts[(n1 > 0) & (n1 < n)]
        kdy = np.empty(counts.shape)
        for rows, y_arm, censored, slot, floor in arms:
            left = _product_limit(y_arm, censored, counts[:, rows], floor)[2]
            kdy[:, rows] = left[:, slot]
        pi = _propensity(design, d, counts, clip)[0]
        mu1, mu0, _ = point_fn(counts, y, delta, d, design, pi, kdy)
        return mu1 - mu0

    block = max(1, _BLOCK_FLOATS // max(n, design.x.shape[1] ** 2))
    rng = np.random.default_rng(np.random.SeedSequence(stream))
    boots = []
    for start in range(0, n_boot, block):
        counts = np.empty((min(block, n_boot - start), n))
        for row in counts:
            row[:] = np.bincount(rng.integers(0, n, n), minlength=n)
        boots.append(replicates(counts[:, order]))
    boots = np.concatenate(boots)
    failures = n_boot - boots.size
    if failures:
        notes.append(f"{failures} of {n_boot} bootstrap resamples were degenerate")
    if boots.size < 20:
        return float("nan")
    return float(boots.std(ddof=1))


def _check_n_boot(n_boot, error=InputError):
    """Raise ``error`` unless at least one bootstrap resample is asked for."""
    if n_boot < 1:
        raise error("n_boot must be >= 1")


def _fit_baseline(data, k1, k0, point_fn, *, clip, level, n_boot, stream):
    """Full-sample estimate, bootstrap SE and CI, and medians of a baseline.

    The full-sample estimate is ``point_fn`` on one row of counts, the case
    each bootstrap resample runs. One ``_Design`` serves its logistic
    propensity and its point step. Warnings of the full-sample point step
    become notes; those of the resamples are dropped.
    """
    _check_clip(clip)
    _z_value(level)
    _check_n_boot(n_boot)
    notes = []
    if data.n <= data.p:
        notes.append("n <= p: logistic MLE is unstable, ridge 1e-6 applied")
    y = data.y
    delta = data.delta.astype(float)
    d = data.d.astype(float)
    kdy = _own_arm_k(data, k1, k0)
    design = _Design(np.column_stack((np.ones(data.n), data.x)))
    ones = np.ones((1, data.n))
    pi, clean = _propensity(design, d, ones, clip)
    if not clean[0]:
        notes.append("separation detected; propensity refit with ridge 1e-2")
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        mu1, mu0, ok = point_fn(ones, y, delta, d, design, pi, kdy[None])
    notes.extend(str(w.message) for w in caught)
    if not ok[0]:
        raise DegenerateArmError("an arm is too small for the point estimate")
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        se = _bootstrap(
            data, y, delta, d, point_fn, clip=clip, floors=(k0.floor, k1.floor),
            n_boot=n_boot, stream=stream, notes=notes,
        )
    w1, w0 = _ipcw_weights(delta, d, pi[0], kdy)
    return _ate_result(y, w1, w0, float(mu1[0]), float(mu0[0]), se, level, notes)


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
    return _fit_baseline(
        data, k1, k0, _ipw_means,
        clip=clip, level=level, n_boot=n_boot, stream=(seed, 0x1F),
    )


def fit_cbps_unpenalized(
    data: Dataset,
    k1: CensorSurvival,
    k0: CensorSurvival,
    clip: float = 0.01,
    level: float = 0.95,
) -> ATEResult:
    """Balanced fit with no penalty; requires p + 2 <= n."""
    _z_value(level)
    if data.p + 2 > data.n:
        raise InputError("unpenalized balancing needs p + 2 <= n")
    fit = fit_pel(data, k1, k0, scad=None, clip=clip)
    return ate_with_ci(data, fit, k1, k0, level=level)


def fit_aipw(
    data: Dataset,
    k1: CensorSurvival,
    k0: CensorSurvival,
    clip: float = 0.01,
    level: float = 0.95,
    n_boot: int = 200,
    seed: int = 0,
) -> ATEResult:
    """Augmented IPW with censoring-transformed linear outcome regressions."""
    return _fit_baseline(
        data, k1, k0, _aipw_means,
        clip=clip, level=level, n_boot=n_boot, stream=(seed, 0x2F),
    )

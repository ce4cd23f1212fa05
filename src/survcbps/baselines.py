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
propensity from the same chord-Newton logistic fit
(``moments._logistic_mle``) that the solver's path start and every resample
use.

The bootstrap works on counts. Resample b draws its n row indices with one
``integers(0, n, n)`` call, exactly as drawing rows would, and is kept as a
row of counts: how often each row of the data, sorted by arm and then by y,
was drawn. Blocks of such rows go through count-weighted kernels together:
the per-arm product-limit curves (``censoring._product_limit``, over each
arm's ``_CensorGrid``, built once per bootstrap), logistic fits and
count-weighted point steps. The logistic fits start at the full-sample
coefficients when that fit is clean, and each stops at its own tolerance.
The full-sample fit lies O(1/sqrt(n)) from each resample's, so a fit
mostly takes one shared-Hessian step, one fresh Newton step and chord
steps. A fit that is not clean from there is refitted from beta = 0, as
the per-resample fit would be, before the ridge-1e-2 refit. The counts are
exact integers, so the censoring curves equal those fitted to resampled
copies, and everything else agrees with refitting each copy up to the
order of floating-point sums. A block holds
``max(1, 2**16 // max(n, q**2))`` resamples (q = p + 1), so each of its
(block x n) arrays and its (block x q x q) Hessian stacks holds about 2**16
floats. The bootstrap's ``_Design`` forms its n x q(q + 1)/2 stack of
upper-triangle row products at the first block of more than one resample
(when n q <= 2**16); the full-sample design only ever sees one row and
never forms it. That stack serves the logistic Hessians and the AIPW
outcome Grams alike.
"""

from __future__ import annotations

import warnings as _warnings

import numpy as np

from .censoring import CensorSurvival, _CensorGrid, _product_limit
from .data import Dataset
from .errors import DegenerateArmError, InputError
from .inference import ATEResult, _ate_result, _z_value, ate_with_ci
from .moments import (
    _BLOCK_FLOATS, _check_clip, _Design, _ipcw_weights, _logistic_mle,
    _own_arm_k, _solve, expit,
)
from .solver import fit_pel


def _propensity(design, d, counts, clip, start=None):
    """Clipped logistic propensities, ``clean`` flags and coefficients, one
    row per row of counts; the fits start at ``start`` (default beta = 0)."""
    beta, clean = _logistic_mle(design, d, counts, start=start)
    if start is not None and not clean.all():
        # undamped steps from the start can diverge where those from 0 do not
        retry = np.flatnonzero(~clean)
        beta[retry], clean[retry] = _logistic_mle(design, d, counts[retry])
    if not clean.all():
        # likely separation; refit with a stronger ridge
        beta[~clean] = _logistic_mle(design, d, counts[~clean], ridge=1e-2)[0]
    pi = expit(beta @ design.x.T)
    return np.clip(pi, clip, 1.0 - clip, out=pi), clean, beta


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
    """Count-weighted AIPW means; ``ok`` is False where an arm has < 2 rows.

    With a = c D / pi, the treated mean sum c (m + D (ytil - m) / pi) / n of
    the fitted m = x coef is ((c - a) x coef + a ytil) / n, so m is never
    formed; the control mean likewise.
    """
    ytil = delta * y / kdy
    n1 = c @ d
    ok = (n1 >= 2) & (c.sum(axis=1) - n1 >= 2)
    if not ok.all():
        c, ytil, pi = c[ok], ytil[ok], pi[ok]
    mus = []
    for arm, prob in ((d, pi), (1.0 - d, 1.0 - pi)):
        a = c * arm
        coef = _outcome_coef(design, a, ytil)
        a /= prob
        fitted = np.einsum("bq,bq->b", (c - a) @ design.x, coef)
        mus.append((fitted + np.einsum("bn,bn->b", a, ytil)) / y.shape[0])
    return mus[0], mus[1], ok


def _bootstrap(data, y, delta, d, point_fn, *, clip, floors, start, n_boot,
               stream, notes):
    """Bootstrap SE, refitting censoring and propensity per resample.

    Resample b is drawn from ``SeedSequence(stream)``, one ``integers(0, n, n)``
    call each, and becomes a row of counts over the data sorted by arm and
    then by y, so each arm's rows are one slice; blocks of rows go through
    the count kernels together. ``floors[arm]`` is each arm's curve floor,
    and ``start`` the coefficients every logistic refit starts from (None
    for beta = 0). ``point_fn(c, y, delta, d, design, pi, kdy)`` returns
    ``(mu1, mu0, ok)``, the means for the rows it accepts. Degenerate
    resamples are skipped and counted in ``notes``; fewer than 20 usable ones
    give NaN.
    """
    n = data.n
    order = np.lexsort((y, d))
    y, delta, d = y[order], delta[order], d[order]
    design = _Design(np.column_stack((np.ones(n), data.x[order])))
    arms = []
    n0 = n - int(d.sum())
    for rows, floor in ((slice(0, n0), floors[0]), (slice(n0, n), floors[1])):
        grid = _CensorGrid(y[rows], delta[rows] == 0)
        # each row's left limit sits after the censoring times below its y
        arms.append((rows, grid, np.searchsorted(grid.times, y[rows]), floor))

    def replicates(counts):
        n1 = counts @ d
        both = (n1 > 0) & (n1 < n)
        if not both.all():
            counts = counts[both]
        kdy = np.empty(counts.shape)
        for rows, grid, slot, floor in arms:
            left = _product_limit(grid, counts[:, rows], floor)[1]
            kdy[:, rows] = left[:, slot]
        pi = _propensity(design, d, counts, clip, start)[0]
        mu1, mu0, _ = point_fn(counts, y, delta, d, design, pi, kdy)
        return mu1 - mu0

    block = max(1, _BLOCK_FLOATS // max(n, design.x.shape[1] ** 2))
    rng = np.random.default_rng(np.random.SeedSequence(stream))
    boots = []
    for first in range(0, n_boot, block):
        counts = np.empty((min(block, n_boot - first), n))
        for row in counts:
            row[:] = np.bincount(rng.integers(0, n, n), minlength=n)[order]
        boots.append(replicates(counts))
    boots = np.concatenate(boots)
    failures = n_boot - boots.size
    if failures:
        notes.append(f"{failures} of {n_boot} bootstrap resamples were degenerate")
    if boots.size < 20:
        return float("nan")
    return float(boots.std(ddof=1))


def _check_n_boot(n_boot):
    """Raise InputError unless at least one bootstrap resample is asked for."""
    if n_boot < 1:
        raise InputError("n_boot must be >= 1")


def _check_seed(seed):
    """Raise InputError unless seed is a non-negative integer, as numpy's
    SeedSequence takes it."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InputError("seed must be a non-negative integer")


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
    _check_seed(stream[0])
    notes = []
    if data.n <= data.p:
        notes.append("n <= p: logistic MLE is unstable, ridge 1e-6 applied")
    y = data.y
    delta = data.delta.astype(float)
    d = data.d.astype(float)
    kdy = _own_arm_k(data, k1, k0)
    design = _Design(np.column_stack((np.ones(data.n), data.x)))
    ones = np.ones((1, data.n))
    pi, clean, beta = _propensity(design, d, ones, clip)
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
            start=beta[0] if clean[0] else None, n_boot=n_boot, stream=stream,
            notes=notes,
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

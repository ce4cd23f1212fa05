"""Estimating functions for the covariate-balancing propensity score.

For subject i with treatment D, covariates X, follow-up Y, event indicator
Delta, and propensity pi = expit(X' beta) clipped to [eps, 1 - eps], the
stacked moment vector has p + 2 components:

    balance:      (D/pi - (1 - D)/(1 - pi)) * X                      (p rows)
    calibration:  D * Delta / (pi * K1(Y)) - 1                       (1 row)
                  (1 - D) * Delta / ((1 - pi) * K0(Y)) - 1           (1 row)

where K1, K0 are the per-arm censoring survival curves. At the true
coefficient vector all p + 2 components have expectation zero; the two
calibration rows pin the total inverse-probability mass in each arm.

No intercept column is added implicitly; callers who want one must include
a constant covariate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .censoring import CensorSurvival
from .data import Dataset
from .errors import InputError


@dataclass(frozen=True)
class PropensityParams:
    """Coefficient vector and clipping bound eps for pi in [eps, 1 - eps]."""

    beta: np.ndarray
    clip: float = 0.01

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        if beta.ndim != 1 or not np.all(np.isfinite(beta)):
            raise InputError("beta must be a finite vector")
        if not 0.0 < self.clip < 0.5:
            raise InputError("clip must lie in (0, 0.5)")
        object.__setattr__(self, "beta", beta)
        beta.setflags(write=False)


def propensity(params: PropensityParams, x):
    """Clipped logistic propensity; x is one covariate vector or a matrix."""
    x = np.asarray(x, dtype=float)
    raw = expit(x @ params.beta)
    out = np.clip(raw, params.clip, 1.0 - params.clip)
    if out.ndim == 0:
        return float(out)
    return out


def _row_pieces(beta, clip, x, d, delta, k1y, k0y):
    """Per-row values and derivative scalars shared by g and its Jacobian.

    Returns (pi, a, cal1, cal0, b, dc1, dc0) where

        a    coefficient of X in the balance rows,
        b    coefficient of X X' in d(balance)/d(beta),
        dc1  coefficient of X in d(cal1)/d(beta),
        dc0  coefficient of X in d(cal0)/d(beta).

    Rows whose raw propensity falls outside the clip interval contribute
    zero derivative (the clipped score is locally constant there).
    """
    raw = expit(x @ beta)
    pi = np.clip(raw, clip, 1.0 - clip)
    free = (raw > clip) & (raw < 1.0 - clip)
    om = 1.0 - pi
    a = d / pi - (1.0 - d) / om
    cal1 = d * delta / (pi * k1y) - 1.0
    cal0 = (1.0 - d) * delta / (om * k0y) - 1.0
    b = np.where(free, -(d * om / pi + (1.0 - d) * pi / om), 0.0)
    dc1 = np.where(free, -d * delta * om / (pi * k1y), 0.0)
    dc0 = np.where(free, (1.0 - d) * delta * pi / (om * k0y), 0.0)
    return pi, a, cal1, cal0, b, dc1, dc0


def _gmat_and_slopes(beta, clip, x, d, delta, k1y, k0y):
    """The n x (p + 2) stacked moment matrix and the slopes (b, dc1, dc0).

    One pass over the rows serves the matrix, the mean Jacobian and the
    profile gradient at the same beta.
    """
    _, a, cal1, cal0, b, dc1, dc0 = _row_pieces(beta, clip, x, d, delta, k1y, k0y)
    n, p = x.shape
    gmat = np.empty((n, p + 2))
    np.multiply(a[:, None], x, out=gmat[:, :p])
    gmat[:, p] = cal1
    gmat[:, p + 1] = cal0
    return gmat, (b, dc1, dc0)


def _weighted_gram(x, w):
    """x' diag(w) x for w >= 0, formed as h'h with h = sqrt(w) x.

    numpy hands h.T @ h to BLAS syrk, which computes one triangle and
    mirrors it: less work than a general product, and exactly symmetric.
    """
    h = np.sqrt(w)[:, None] * x
    return h.T @ h


def _mean_jacobian(x, slopes):
    """(p + 2) x p Jacobian of the column means of the stacked matrix.

    The balance block is X' diag(b) X / n with b <= 0 by construction.
    """
    b, dc1, dc0 = slopes
    n, p = x.shape
    jac = np.empty((p + 2, p))
    jac[:p] = _weighted_gram(x, -b)
    jac[:p] /= -n
    jac[p] = dc1 @ x / n
    jac[p + 1] = dc0 @ x / n
    return jac


def _profile_grad(x, slopes, lam, row_scale):
    """sum_i row_scale_i * J_i' lam, the chain-rule gradient in beta.

    J_i' lam collapses to a scalar multiple of x_i because every moment
    component depends on beta only through x_i' beta.
    """
    b, dc1, dc0 = slopes
    p = x.shape[1]
    coeff = b * (x @ lam[:p]) + dc1 * lam[p] + dc0 * lam[p + 1]
    return x.T @ (row_scale * coeff)


def _k_vectors(data: Dataset, k1: CensorSurvival, k0: CensorSurvival):
    return k1.evaluate(data.y), k0.evaluate(data.y)


def stack_g(
    params: PropensityParams,
    data: Dataset,
    k1: CensorSurvival,
    k0: CensorSurvival,
) -> np.ndarray:
    """All n stacked moment rows as an n x (p + 2) matrix."""
    if params.beta.shape[0] != data.p:
        raise InputError("beta length must equal the number of covariates")
    k1y, k0y = _k_vectors(data, k1, k0)
    return _gmat_and_slopes(
        params.beta, params.clip, data.x, data.d.astype(float),
        data.delta.astype(float), k1y, k0y,
    )[0]


def jacobian_g(
    params: PropensityParams,
    data: Dataset,
    k1: CensorSurvival,
    k0: CensorSurvival,
) -> np.ndarray:
    """Derivative of the stacked moment column means w.r.t. beta."""
    if params.beta.shape[0] != data.p:
        raise InputError("beta length must equal the number of covariates")
    k1y, k0y = _k_vectors(data, k1, k0)
    slopes = _row_pieces(
        params.beta, params.clip, data.x, data.d.astype(float),
        data.delta.astype(float), k1y, k0y,
    )[4:]
    return _mean_jacobian(data.x, slopes)

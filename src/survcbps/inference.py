"""Treatment effect estimation and inference from a fitted propensity model.

Point estimates are ratio (Hajek) forms of the censoring-adjusted inverse
probability weighted means,

    mu1 = sum_i w1_i Y_i / sum_i w1_i,   w1_i = D_i Delta_i / (pi_i K_D(Y_i))

and the control analogue with w0_i = (1 - D_i) Delta_i / ((1 - pi_i) K_D(Y_i)),
where K_D is the censoring curve of the subject's own arm. The weights come
from the row pass that forms the moments (``moments._moment_rows``), which
takes them from ``moments._ipcw_weights`` as the baselines do. Uncensored
subjects are reweighted by the inverse of the arm-specific probability of
remaining uncensored, which restores the mean of the latent event time under
covariate-independent censoring within arm.

The medians ``median1`` and ``median0`` are weighted medians of Y under the
same IPCW weights, normalized to sum to one in each arm, so they estimate
the medians of the latent event time, not of the follow-up.

Two standard errors are computed:

``se_propensity``
    the delta-method term through the fitted coefficients only,
    sqrt(grad_h' Sigma grad_h / n), with Sigma = (G1' V^{-1} G1)^{-1} the
    sandwich covariance of the active coefficients (V^{-1} G1 as in the
    solver's outer curvature, ``moments._vinv_jac``) and grad_h the
    closed-form gradient of the ATE map. It takes the slopes dc1, dc0 of
    the IPCW weights in x' beta from the same row pass
    (``moments._moment_rows``) that gives the weights:

        grad_h = X_A' (dc1 (Y - mu1) / sum w1 - dc0 (Y - mu0) / sum w0),

    where rows whose propensity is clipped have zero slope, as in the
    moment Jacobian. At a row with x' beta on a clip bound the ATE map has a
    kink and this is one side's slope; ``ate_with_ci`` then says so in its
    warnings.

``se``
    the full first-order influence-function standard error. It adds the
    sampling variability of the weighted means themselves (and its
    covariance with the coefficient noise) to the propensity term. The
    confidence interval uses ``se``; the propensity-only term materially
    understates the spread of the estimator whenever the outcome carries
    noise beyond what the covariates explain, which is the usual case.

Estimation error in the censoring curves is ignored throughout.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .censoring import CensorSurvival
from .data import Dataset
from .errors import InputError, SingularMatrixError
from .moments import _mean_jacobian, _moment_rows, _own_arm_k, _vinv_jac
# never called here, so bench/run.py's spans for them read 0 calls; kept
# only so that its patch of this module finds them
from .moments import jacobian_g, stack_g  # noqa: F401
from .solver import PELFit

# A row with x' beta this close to +-logit(clip) sits on the clip kink, where
# the balance Jacobian and the ATE gradient switch slope.
_KINK_TOL = 1e-5


@dataclass(frozen=True)
class ATEResult:
    mu1: float
    mu0: float
    ate: float
    se: float
    ci_low: float
    ci_high: float
    median1: float
    median0: float
    median_diff: float
    n_effective_1: float
    n_effective_0: float
    warnings: tuple
    level: float = 0.95
    se_propensity: float = float("nan")

    def to_dict(self) -> dict:
        return {
            "mu1": self.mu1,
            "mu0": self.mu0,
            "ate": self.ate,
            "se": self.se,
            "se_propensity": self.se_propensity,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "median1": self.median1,
            "median0": self.median0,
            "median_diff": self.median_diff,
            "n_effective_1": self.n_effective_1,
            "n_effective_0": self.n_effective_0,
            "level": self.level,
            "warnings": list(self.warnings),
        }


def _kish(w):
    tot = float(w.sum())
    ss = float((w * w).sum())
    return tot * tot / ss if ss > 0 else 0.0


def weighted_median(y, w) -> float:
    """Smallest observed y whose weighted CDF reaches one half."""
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if y.shape != w.shape or y.ndim != 1:
        raise InputError("y and w must be 1-d arrays of equal length")
    if np.any(w < 0):
        raise InputError("weights must be nonnegative")
    total = float(w.sum())
    if total <= 0:
        raise InputError("weights must not all be zero")
    if abs(total - 1.0) > 1e-8:
        raise InputError("weights must sum to 1")
    order = np.argsort(y, kind="stable")
    cdf = np.cumsum(w[order])
    idx = int(np.searchsorted(cdf, 0.5, side="left"))
    idx = min(idx, y.size - 1)
    return float(y[order][idx])


def _sandwich(gmat, g1):
    """(Sigma, V^{-1} G1) with Sigma = (G1' V^{-1} G1)^{-1}, G1 = J[:, active]."""
    vinv_g1 = _vinv_jac(gmat, g1)
    bread = g1.T @ vinv_g1
    bread = 0.5 * (bread + bread.T)
    try:
        chol = np.linalg.cholesky(bread)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(
            "G1' V^{-1} G1 is singular; coefficients are not identified"
        ) from None
    half = np.linalg.solve(chol, np.eye(bread.shape[0]))
    sigma = half.T @ half
    sigma = 0.5 * (sigma + sigma.T)
    return sigma, vinv_g1


def _z_value(level, error=InputError):
    """The two-sided normal quantile of ``level``; ``error`` unless 0 < level < 1.

    A level within an ulp of 1 rounds 0.5 + level / 2 up to 1, whose
    quantile is infinite, so it fails too.
    """
    q = 0.5 + level / 2.0
    if not 0.0 < level < 1.0 or q == 1.0:
        raise error("level must lie in (0, 1)")
    return NormalDist().inv_cdf(q)


def _ate_result(y, w1, w0, mu1, mu0, se, level, notes,
                se_propensity=float("nan")) -> ATEResult:
    """The ATEResult of mu1, mu0 and se, for this estimator and the baselines.

    Adds the normal interval, and the medians and Kish sizes of the IPCW
    weights w1, w0.
    """
    ate = mu1 - mu0
    z = _z_value(level)
    med1 = weighted_median(y, w1 / w1.sum())
    med0 = weighted_median(y, w0 / w0.sum())
    return ATEResult(
        mu1=mu1,
        mu0=mu0,
        ate=ate,
        se=se,
        ci_low=ate - z * se,
        ci_high=ate + z * se,
        median1=med1,
        median0=med0,
        median_diff=med1 - med0,
        n_effective_1=_kish(w1),
        n_effective_0=_kish(w0),
        warnings=tuple(notes),
        level=level,
        se_propensity=se_propensity,
    )


def ate_with_ci(
    data: Dataset,
    fit: PELFit,
    k1: CensorSurvival,
    k0: CensorSurvival,
    level: float = 0.95,
) -> ATEResult:
    """Point estimate, standard errors, confidence interval and medians."""
    _z_value(level)
    notes = []
    if not fit.converged:
        notes.append("propensity fit did not converge; inference is approximate")
    y = data.y
    n = data.n
    gmat, w1, w0, slopes = _moment_rows(
        fit.beta_hat, fit.clip, data.x, data.d.astype(float),
        data.delta.astype(float), _own_arm_k(data, k1, k0),
    )
    b, dc1, dc0 = slopes
    mu1 = float((w1 * y).sum() / w1.sum())
    mu0 = float((w0 * y).sum() / w0.sum())

    # phi is the influence of the Hajek means at fixed pi; grad_h is the
    # derivative of the same sums, with the weight slopes in place of w
    r1 = (y - mu1) / float(w1.sum())
    r0 = (y - mu0) / float(w0.sum())
    phi = w1 * r1 - w0 * r0
    active = np.asarray(fit.active_set, dtype=int)
    grad_h = data.x[:, active].T @ (dc1 * r1 - dc0 * r0)

    if active.size:
        # G1 is a sum over the unclipped rows (b != 0): rank <= their count
        free = np.count_nonzero(b)
        if free < active.size:
            raise SingularMatrixError(
                f"{free} rows with an unclipped propensity (clip {fit.clip}) "
                f"cannot identify {active.size} active coefficients"
            )
        bound = math.log((1.0 - fit.clip) / fit.clip)
        kinked = np.count_nonzero(
            np.abs(np.abs(data.x @ fit.beta_hat) - bound) <= _KINK_TOL
        )
        if kinked:
            notes.append(
                f"{kinked} rows lie on a clip bound; "
                "se_propensity uses one side's slope"
            )
        g1 = _mean_jacobian(data.x, slopes)[:, active]
        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            sigma, vinv_g1 = _sandwich(gmat, g1)
        notes.extend(str(w.message) for w in caught)
        se_prop = math.sqrt(max(float(grad_h @ sigma @ grad_h), 0.0) / n)
        # per-row coefficient influence, mapped through the ATE gradient
        bmat = sigma @ vinv_g1.T   # s x m
        psi = -(gmat @ (bmat.T @ grad_h)) / n
    else:
        notes.append("active set is empty; propensity variance term is zero")
        se_prop = 0.0
        psi = np.zeros(n)

    infl = phi + psi
    se = math.sqrt(float(infl @ infl))
    return _ate_result(y, w1, w0, mu1, mu0, se, level, notes, se_prop)

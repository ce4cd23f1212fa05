"""Estimating functions for the covariate-balancing propensity score.

For subject i with treatment D, covariates X, follow-up Y, event indicator
Delta, and propensity pi = expit(X' beta) clipped to [eps, 1 - eps], the
stacked moment vector has p + 2 components:

    balance:      (D/pi - (1 - D)/(1 - pi)) * X                      (p rows)
    calibration:  w1 - 1,  w1 = D * Delta / (pi * K_D(Y))            (1 row)
                  w0 - 1,  w0 = (1 - D) * Delta / ((1 - pi) * K_D(Y)) (1 row)

where K_D(Y) is the censoring survival curve of the subject's own arm at
its follow-up time (``_own_arm_k``): K1 only ever weights treated rows and
K0 control rows. w1 and w0 are the IPCW weights, formed in one place
(``_ipcw_weights``) for this estimator, its inference and the baselines. At
the true coefficient vector all p + 2 components have expectation zero; the
two calibration rows pin the total inverse-probability mass in each arm.

Every column of the n x (p + 2) moment matrix g depends on beta only through
n-vectors: g = [a X, B] with a = D/pi - (1 - D)/(1 - pi) and the border
B = [w1 - 1, w0 - 1]. ``_Moments`` holds g in that factored form, (x, a, B),
and gives the three products every caller needs without forming g:

    g v              = a * (X v_p) + B v_b                    (``dot``)
    g' u             = [X' (a u); B' u]                       (``tdot``)
    g' diag(h) g     = X' diag(a^2 h) X, bordered by
                       X' diag(a h) B and B' diag(h) B         (``_moment_gram``)

One row pass per beta, ``_moment_rows``, gives the operator, the IPCW
weights and the slopes in x' beta to the solver, ``jacobian_g`` and
``inference.ate_with_ci``. ``_vinv_jac`` solves with the one
V = g'g / n = ``_moment_gram(g, 1)`` / n. ``stack_g`` is the one place the
dense g is formed.

No intercept column is added implicitly; callers who want one must include
a constant covariate.

The module also holds the one logistic fit, ``_logistic_mle``: one
chord-Newton fit per row of counts over a ``_Design``, all from one shared
starting vector. The solver's path start and the baselines' full-sample
propensity are its one-row case from beta = 0; the bootstrap runs it on
blocks of resamples from the full-sample fit. A design forms its stack of
upper-triangle row products lazily, at its first Gram of more than one row,
so a one-row fit never does. Every logistic curve in the package is
``expit``, computed in place with numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .censoring import CensorSurvival
from .data import Dataset
from .errors import InputError

_LOGIT_MAX_ITER = 100    # Newton and chord steps of a logistic fit
_LOGIT_TOL = 1e-10       # a logistic fit stops once max |step| is this small
_CHORD_RATIO = 0.1       # a step this much shorter than the last keeps the Hessian


def expit(z):
    """The logistic function 1 / (1 + exp(-z)); a scalar z gives a float.

    One new array, updated in place. exp(-z) overflows to inf for
    z < -709.78, which gives exactly 0 without a warning. Within 2 ulp of
    the correctly rounded value wherever that is a normal float.
    """
    z = np.asarray(z, dtype=float)
    out = np.negative(z, out=np.empty_like(z))
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return out if out.ndim else float(out)


def _check_clip(clip, error=InputError):
    """Raise ``error`` unless the clip bound lies in (0, 0.5); NaN fails too."""
    if not 0.0 < clip < 0.5:
        raise error("clip must lie in (0, 0.5)")


@dataclass(frozen=True)
class PropensityParams:
    """Coefficient vector and clipping bound eps for pi in [eps, 1 - eps]."""

    beta: np.ndarray
    clip: float = 0.01

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        if beta.ndim != 1 or not np.all(np.isfinite(beta)):
            raise InputError("beta must be a finite vector")
        _check_clip(self.clip)
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


def _own_arm_k(data: Dataset, k1: CensorSurvival, k0: CensorSurvival):
    """K_D(Y): each row's own-arm censoring survival at its follow-up time."""
    return np.where(data.d == 1, k1.evaluate(data.y), k0.evaluate(data.y))


def _ipcw_weights(delta, d, pi, kdy):
    """IPCW weights w1 = D Delta / (pi K), w0 = (1 - D) Delta / ((1 - pi) K)."""
    return d * delta / (pi * kdy), (1.0 - d) * delta / ((1.0 - pi) * kdy)


def _moment_rows(beta, clip, x, d, delta, kdy):
    """One pass over the rows at beta: (g, w1, w0, (b, dc1, dc0)).

        g     the n x (p + 2) stacked moment matrix, a ``_Moments`` over x,
        w1    IPCW weights, the treated calibration column plus 1,
        w0    IPCW weights, the control calibration column plus 1,
        b     coefficient of X X' in d(balance)/d(beta),
        dc1   coefficient of X in d(w1)/d(beta),
        dc0   coefficient of X in d(w0)/d(beta).

    Rows whose raw propensity falls outside the clip interval contribute
    zero derivative (the clipped score is locally constant there). No
    n x (p + 2) array is formed.
    """
    raw = expit(x @ beta)
    pi = np.clip(raw, clip, 1.0 - clip)
    free = (raw > clip) & (raw < 1.0 - clip)
    om = 1.0 - pi
    w1, w0 = _ipcw_weights(delta, d, pi, kdy)
    border = np.empty((x.shape[0], 2))
    np.subtract(w1, 1.0, out=border[:, 0])
    np.subtract(w0, 1.0, out=border[:, 1])
    g = _Moments(x, d / pi - (1.0 - d) / om, border)
    b = np.where(free, -(d * om / pi + (1.0 - d) * pi / om), 0.0)
    dc1 = np.where(free, -d * delta * om / (pi * kdy), 0.0)
    dc0 = np.where(free, (1.0 - d) * delta * pi / (om * kdy), 0.0)
    return g, w1, w0, (b, dc1, dc0)


def _weighted_gram(x, w):
    """x' diag(w) x for w >= 0, formed as h'h with h = sqrt(w) x.

    numpy hands h.T @ h to BLAS syrk, which computes one triangle and
    mirrors it: less work than a general product, and exactly symmetric.
    """
    h = np.sqrt(w)[:, None] * x
    return h.T @ h


class _Moments:
    """The n x m moment matrix g = [a x, border], held factored.

    x is n x p, a an n-vector of row scales and border n x k, so m = p + k.
    A dense matrix is the operator with a = 1 and no border, whose products
    are those of the matrix bit for bit. On a path x is the one fixed
    (rescaled) design and only a and the border change with beta.
    """

    __slots__ = ("x", "a", "border")

    def __init__(self, x, a=1.0, border=None):
        self.x = x
        self.a = a
        self.border = np.empty((x.shape[0], 0)) if border is None else border

    @property
    def shape(self):
        return self.x.shape[0], self.x.shape[1] + self.border.shape[1]

    @property
    def nbytes(self):
        """Bytes of the per-beta arrays held, a and the border; x is shared."""
        return np.asarray(self.a).nbytes + self.border.nbytes

    def dot(self, v):
        """g v = a (x v_p) + border v_b."""
        p = self.x.shape[1]
        out = self.x @ v[:p]
        out *= self.a
        out += self.border @ v[p:]
        return out

    def tdot(self, u):
        """g' u = [x' (a u); border' u]."""
        return np.concatenate((self.x.T @ (self.a * u), self.border.T @ u))


def _moment_gram(g, h):
    """g' diag(h) g of a ``_Moments`` for h >= 0, exactly symmetric.

    It is H'H for the rows of g scaled by sqrt(h), taken in two blocks:
    hx = sqrt(h) a x, whose hx'hx numpy hands to BLAS syrk as in
    ``_weighted_gram``, and hb = sqrt(h) border. hx is the largest
    temporary, n x p. The solver looks this name up at call time for its
    Hessians.
    """
    p, m = g.x.shape[1], g.shape[1]
    s = np.sqrt(h)
    hx = (s * g.a)[:, None] * g.x
    hb = s[:, None] * g.border
    out = np.empty((m, m))
    out[:p, :p] = hx.T @ hx
    out[:p, p:] = hx.T @ hb
    out[p:, :p] = out[:p, p:].T
    out[p:, p:] = hb.T @ hb
    return out


# A block of bootstrap resamples is processed at once. Its (block x n) arrays
# and its (block x q x q) Hessian stacks each hold at most about this many
# floats, and a design stacks its row products only when n q is this or less.
# The simulation's censoring-rate pilot draws its covariates in row blocks
# of about this many floats.
_BLOCK_FLOATS = 1 << 16


class _Design:
    """Design matrix ``x`` with a stacked weighted Gram.

    ``gram(w)`` is ``x.T @ diag(w[b]) @ x`` for every row b of ``w >= 0``.
    The first call with more than one row forms the n x q(q + 1)/2
    upper-triangle row products x_ij x_ik, j <= k, when the full n x q^2
    would take no more memory than q block arrays (n q <= 2^16). Every
    later call is one product with them, mirrored into the (rows, q, q)
    stack, so each Gram is exactly symmetric. Until then, and always for a
    wider design, each row takes one ``_weighted_gram``, which keeps memory
    at O(n q).
    """

    def __init__(self, x):
        self.x = x
        self._outer = None

    def gram(self, w):
        x = self.x
        n, q = x.shape
        if self._outer is None and w.shape[0] > 1 and n * q <= _BLOCK_FLOATS:
            j, k = np.triu_indices(q)
            self._outer = x[:, j] * x[:, k]
            # Gram entries (j, k) and (k, j) both read the product column of j <= k
            self._mirror = np.empty((q, q), dtype=np.intp)
            self._mirror[j, k] = self._mirror[k, j] = np.arange(j.size)
        if self._outer is None:
            return np.array([_weighted_gram(x, wb) for wb in w]).reshape(-1, q, q)
        return (w @ self._outer)[:, self._mirror]


def _solve(a, b, fallback):
    """Solve each system ``a[k] x = b[k]`` of a stack.

    When one is singular, each system is solved alone, and a singular one
    takes ``fallback(a[k], b[k])``; the others keep the stacked solution.
    """
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if a.shape[0] == 1:
            return fallback(a[0], b[0])[None]
        return np.concatenate([_solve(ak[None], bk[None], fallback)
                               for ak, bk in zip(a, b)])


def _lstsq(a, b):
    return np.linalg.lstsq(a, b, rcond=None)[0]


def _solve_or_lstsq(a, b):
    """a^{-1} b, or the least-squares solution when a is singular."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return _lstsq(a, b)


def _inverse(a):
    """The inverse of each matrix of a stack; pseudo-inverses if one is singular."""
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(a)


def _logistic_mle(design, d, counts, ridge=1e-6, start=None):
    """Logistic regression by chord-Newton iteration from ``start`` (default
    beta = 0), one fit per row of counts.

    ``counts[b, i]`` is how often row i of ``design.x`` enters fit b. Every
    fit takes its first step at ``start``, where one vector of probabilities
    serves all rows, with the Hessian of the rows' mean counts: one product
    gives every gradient and one Hessian serves every step. The second step
    of each fit forms its own Hessian. A step at most _CHORD_RATIO times the
    one before it lets the next step reuse the fit's last Hessian through
    its inverse, formed once; any other step is followed by a fresh Hessian.
    Each fit is frozen after its own first step with max |step| <=
    _LOGIT_TOL, within _LOGIT_MAX_ITER steps. ``clean[b]`` says fit b
    converged to a finite beta with |x beta| <= 30 on every row it counts.
    """
    x = design.x
    nb, q = counts.shape[0], x.shape[1]
    if not nb:
        return np.empty((0, q)), np.empty(0, dtype=bool)
    diag = np.arange(q)
    start = np.zeros(q) if start is None else start
    prob = expit(x @ start)
    grad = counts @ ((d - prob)[:, None] * x) - ridge * start
    hess = design.gram((counts.mean(axis=0) * (prob * (1.0 - prob) + 1e-12))[None])[0]
    hess[diag, diag] += ridge + 1e-12
    step = _solve_or_lstsq(hess, grad.T).T
    beta = start + step
    size = np.max(np.abs(step), axis=1)
    converged = size <= _LOGIT_TOL
    chord = np.zeros(nb, dtype=bool)        # the next step reuses the kept Hessian
    kept = np.empty((nb, q, q))             # each fit's last fresh Hessian
    inv = np.empty((nb, q, q))
    has_inv = np.zeros(nb, dtype=bool)
    live = np.flatnonzero(~converged)
    for _ in range(_LOGIT_MAX_ITER - 1):
        if live.size == 0:
            break
        c = counts if live.size == nb else counts[live]
        b = beta[live]
        prob = expit(b @ x.T)
        work = np.subtract(d, prob)
        work *= c
        grad = work @ x - ridge * b
        step = np.empty_like(grad)
        reuse = chord[live]
        if not reuse.all():
            fresh = ~reuse
            rows = live[fresh]
            # the Hessian weights c p (1 - p), formed in the gradient's buffer
            np.subtract(1.0, prob, out=work)
            work *= prob
            work += 1e-12
            work *= c
            del prob
            hess = design.gram(work if fresh.all() else work[fresh])
            hess[:, diag, diag] += ridge + 1e-12
            kept[rows] = hess
            has_inv[rows] = False
            step[fresh] = _solve(hess, grad[fresh], _lstsq)
        if reuse.any():
            rows = live[reuse]
            new = rows[~has_inv[rows]]
            if new.size:
                inv[new] = _inverse(kept[new])
                has_inv[new] = True
            step[reuse] = np.einsum("bij,bj->bi", inv[rows], grad[reuse])
        beta[live] = b + step
        moved = np.max(np.abs(step), axis=1)
        chord[live] = moved <= _CHORD_RATIO * size[live]
        size[live] = moved
        done = moved <= _LOGIT_TOL
        converged[live[done]] = True
        live = live[~done]
    # |x beta| <= max|x| * sum|beta| bounds the reach, so only rows whose
    # bound comes near 30 form x beta
    reach = np.zeros(nb)
    far = np.flatnonzero(np.abs(beta).sum(axis=1) * np.abs(x).max() > 29.0)
    if far.size:
        reach[far] = np.where(
            counts[far] > 0, np.abs(beta[far] @ x.T), 0.0
        ).max(axis=1)
    clean = converged & np.all(np.isfinite(beta), axis=1) & (reach <= 30)
    return beta, clean


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


def _vinv_jac(g, jac):
    """V^{-1} J, V = g'g / n plus 1e-10 (1 + tr V) on the diagonal; lstsq if singular.

    g is a ``_Moments``. The outer curvature n J' V^{-1} J and the sandwich
    both solve with it.
    """
    n = g.shape[0]
    vhat = _moment_gram(g, np.ones(n)) / n
    vhat[np.diag_indices_from(vhat)] += 1e-10 * (1.0 + np.trace(vhat))
    return _solve_or_lstsq(vhat, jac)


def _profile_grad(x, slopes, lam, row_scale):
    """sum_i row_scale_i * J_i' lam, the chain-rule gradient in beta.

    J_i' lam collapses to a scalar multiple of x_i because every moment
    component depends on beta only through x_i' beta.
    """
    b, dc1, dc0 = slopes
    p = x.shape[1]
    coeff = b * (x @ lam[:p]) + dc1 * lam[p] + dc0 * lam[p + 1]
    return x.T @ (row_scale * coeff)


def _rows_at(params: PropensityParams, data: Dataset, k1, k0):
    """``_moment_rows`` at params over data, with each row's own-arm K(Y)."""
    if params.beta.shape[0] != data.p:
        raise InputError("beta length must equal the number of covariates")
    return _moment_rows(
        params.beta, params.clip, data.x, data.d.astype(float),
        data.delta.astype(float), _own_arm_k(data, k1, k0),
    )


def stack_g(
    params: PropensityParams,
    data: Dataset,
    k1: CensorSurvival,
    k0: CensorSurvival,
) -> np.ndarray:
    """All n stacked moment rows as an n x (p + 2) matrix.

    The one place the dense g is formed; the solver and the inference use
    its factored ``_Moments`` form.
    """
    g = _rows_at(params, data, k1, k0)[0]
    return np.hstack((g.a[:, None] * g.x, g.border))


def jacobian_g(
    params: PropensityParams,
    data: Dataset,
    k1: CensorSurvival,
    k0: CensorSurvival,
) -> np.ndarray:
    """Derivative of the stacked moment column means w.r.t. beta."""
    return _mean_jacobian(data.x, _rows_at(params, data, k1, k0)[3])

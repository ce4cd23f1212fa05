"""Penalized empirical likelihood fitting of the balancing propensity score.

Inner problem (data fixed, coefficients fixed): maximize over the dual
vector lam

    phi(lam) = sum_i log*(1 + lam' g_i),

where log* is the pseudo-logarithm equal to log on [1/n, inf) and extended
below 1/n by the quadratic with matching value and first two derivatives.
phi is globally concave, so a damped Newton iteration converges fast; the
maximizing lam recovers the empirical likelihood weights
w_i = (1/n) log*'(1 + lam' g_i), which is (1/n) / (1 + lam' g_i) on the
interior branch. The solve returns them as ELDualState.weights, from the
log*' it already holds at its last step.

Outer problem: minimize over beta

    Q(beta) = phi(lam*(beta)) + n * sum_j p(|beta_j|)

with p the SCAD penalty. The EL term is differentiated through the inner
optimum (envelope rule), curvature is approximated by the familiar
n * G' V^{-1} G surrogate, the penalty by its local quadratic majorization,
and steps are accepted only when Q strictly decreases. Coefficients whose
magnitude falls below a hard threshold are snapped to exactly zero, which
is what produces sparse fits.

The line search halves a rejected step up to 40 times. At a stationary
iterate, where the model decrement is at most 1e-8 * (1 + |Q|), it stops at
the first rejected step instead, and the fit ends converged. A fit also ends
converged once an accepted step moves no coefficient by more than 1e-6,
and ends unconverged when 40 halvings find no decrease elsewhere or 200
steps run out.

The inner problem is solved by a chord-Newton iteration (Kelley 2003,
Solving Nonlinear Equations with Newton's Method). A fresh Newton step
forms the Hessian g' diag(-log*'') g as one symmetric product, O(n m^2),
takes its direction from an LU solve (least squares if that fails), and
halves a rejected step up to 60 times at O(n) a halving. The slot keeps
that Hessian. A solve handed an earlier Hessian first steps with its
inverse instead, at O(n m) a step; the slot forms the inverse the first
time a chord step needs it, at most once per Hessian. The solve keeps
doing so while each full chord step passes the same sufficient-increase
test and at least halves the largest gradient entry. A chord step that
fails either test hands over to fresh Newton steps for the rest of the
solve. A chord step whose model gain is below the resolution of the
objective ends the solve as a converged stall once the solve has accepted
a step, all of which were then contracting chord steps; at the first step
it hands over to a fresh Newton step instead, so a stale Hessian cannot
pass for a stall. One pass over the rows at each beta,
moments._moment_rows, gives the moment matrix and the slopes from which
the outer step's profile gradient and Jacobian follow.

Covariates are rescaled internally to unit variance so the penalty acts on
comparable coordinates; estimates are mapped back to the original scale.
Columns are not centered: the propensity model has no intercept, and
centering would implicitly add one.

select_tau builds one _Path for its whole penalty path: the rescaled
design, the censoring curves at the observed times, the (beta, lam) of
the last successful fit, kept in the internal scale, and a slot for the
last inner Hessian. Each fit starts at that beta and dual vector, where
the first inner problem is already solved, so it costs at most a Newton
step. Every inner solve on the path, whether for a line-search
candidate, an outer step or a new tau, hands the slot on, so the dual
mostly moves by chord steps. A failed fit leaves beta and lam as
they were, and the beta = 0 fallback starts the dual cold: its outcome
does not depend on tau. A stand-alone fit_pel builds its own one-tau path.
Both take the propensity clip bound as a plain argument, which the path
checks before any other work.
The first fit on a path starts at the one-row case of the shared
logistic fit, moments._logistic_mle, from 0 with ridge 1e-4 (beta = 0 if that is
not finite).

The outer curvature n * G' V^{-1} G does not depend on tau, so the path
also keeps the last one formed: the chord idea of the inner dual applied to
the outer loop. An outer step forms a fresh curvature only when none is
kept, and an accepted step that was halved or moved some coefficient by
more than 1e-2 drops the kept one. The beta = 0 fallback drops it too, so
the cold restart forms its own. The LQA penalty term and the gradient are
always those of the current beta. A kept curvature may certify the
stationary stop and the 1e-6 move stop, since both test the current
gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .censoring import CensorSurvival
from .data import Dataset
from .errors import FitError, InputError, SelectionError
from .moments import (
    PropensityParams,
    _check_clip,
    _Design,
    _logistic_mle,
    _lstsq,
    _mean_jacobian,
    _moment_rows,
    _own_arm_k,
    _profile_grad,
    _solve_or_lstsq,
    _vinv_jac,
    _weighted_gram,
)
from .scad import ScadParams, lqa_weight, scad_value

_INNER_TOL = 1e-8        # inner stop: max |dual gradient|
_INNER_MAX_ITER = 100    # inner Newton plus chord steps
_LQA_EPS = 1e-6          # SCAD local quadratic majorization floor
_ZERO_TOL = 1e-5         # penalized coefficients below this snap to zero
_MAX_OUTER = 200         # outer steps
_OUTER_TOL = 1e-6        # outer stop: largest accepted coefficient move
_INIT_RIDGE = 1e-4       # ridge of the logistic fit that starts a path
_REUSE_MOVE = 1e-2       # an accepted full step moving beta more forms afresh
_TAU_NUM, _TAU_LO, _TAU_HI = 20, 0.01, 2.0   # default grid, sqrt(log p / n) units


@dataclass(frozen=True)
class ELDualState:
    """Result of one inner dual maximization.

    weights are the EL weights (1/n) log*'(1 + lam' g_i) at lam, all
    positive. They depend on lam only through the products lam' g_i, so
    fit_pel's map of lam to the original scale leaves them valid there.
    iterations counts the accepted Newton and chord steps, hessians the
    Hessians formed and factored.
    """

    lam: np.ndarray
    weights: np.ndarray
    inner_objective: float
    grad_norm: float
    iterations: int
    converged: bool
    hessians: int = 0


class _FactorSlot:
    """The last fresh inner Hessian, or None, and its inverse once formed.

    A chord step multiplies the gradient by the inverse, which the slot
    forms from the kept Hessian the first time a step asks for it, so at
    most once per Hessian.
    """

    __slots__ = ("hess", "_inv")

    def __init__(self):
        self.keep(None)

    def keep(self, hess):
        self.hess = hess
        self._inv = None

    def inverse(self):
        if self._inv is None:
            self._inv = np.linalg.inv(self.hess)
        return self._inv


@dataclass(frozen=True)
class PELFit:
    beta_hat: np.ndarray
    active_set: np.ndarray
    tau: float
    dual: ELDualState
    outer_iterations: int
    objective_trace: np.ndarray
    converged: bool
    clip: float = 0.01

    @property
    def params(self) -> PropensityParams:
        return PropensityParams(beta=self.beta_hat, clip=self.clip)


def _logstar(z, eps, derivs=False):
    """log*(z), or with derivs=True the tuple (log*, log*', log*'').

    One z < eps mask serves all three.
    """
    z = np.asarray(z, dtype=float)
    lo = z < eps
    any_lo = bool(lo.any())
    zl = z[lo] if any_lo else None
    safe = np.where(lo, eps, z)
    val = np.log(safe)
    if any_lo:
        val[lo] = math.log(eps) - 1.5 + 2.0 * zl / eps - zl * zl / (2.0 * eps * eps)
    if not derivs:
        return val
    d1 = 1.0 / safe
    d2 = -1.0 / (safe * safe)
    if any_lo:
        d1[lo] = 2.0 / eps - zl / (eps * eps)
        d2[lo] = -1.0 / (eps * eps)
    return val, d1, d2


def solve_inner_dual(
    gmat,
    lambda_init=None,
    tol: float = _INNER_TOL,
    *,
    factor: _FactorSlot | None = None,
) -> ELDualState:
    """Chord-Newton maximization of the pseudo-log dual objective.

    factor, when given, holds an earlier Hessian of the same size; the
    solve may step with its inverse first and leaves its last fresh
    Hessian there.
    """
    g = np.asarray(gmat, dtype=float)
    if g.ndim != 2:
        raise InputError("gmat must be 2-d (rows = observations)")
    if not np.all(np.isfinite(g)):
        raise InputError("gmat must be finite")
    n, m = g.shape
    if n < 1:
        raise InputError("gmat needs at least one row")
    eps = 1.0 / n
    # lam = 0 gives z = 1 and a dual objective of exactly 0
    lam = np.zeros(m)
    z = np.ones(n)
    val = 0.0
    if lambda_init is not None:
        cand = np.asarray(lambda_init, dtype=float)
        if cand.shape == (m,) and np.all(np.isfinite(cand)):
            # keep the warm start only when it beats the cold one
            zc = 1.0 + g @ cand
            vc = float(np.sum(_logstar(zc, eps)))
            if vc > 0.0:
                lam, z, val = cand.copy(), zc, vc
    slot = factor if factor is not None else _FactorSlot()
    _, d1, d2 = _logstar(z, eps, derivs=True)
    grad = g.T @ d1
    gnorm = float(np.max(np.abs(grad))) if m else 0.0
    iters = 0
    hessians = 0
    stalled = False
    # chord steps run from the first step only, while each one contracts
    chord = slot.hess is not None and slot.hess.shape == (m, m)
    while iters < _INNER_MAX_ITER and gnorm > tol:
        # the model improvement for the full step is slope/2; once that is
        # below floating resolution of the objective no line search can
        # certify progress
        floor = 8.0 * np.finfo(float).eps * (1.0 + abs(val))
        accepted = False
        if chord:
            direction = slot.inverse() @ grad
            slope = float(grad @ direction)
            if 0.5 * slope > floor:
                zc = z + g @ direction
                vc = float(np.sum(_logstar(zc, eps)))
                accepted = vc >= val + 1e-4 * slope
            elif iters:
                # every step so far was a contracting chord step, so the
                # kept Hessian's model certifies the stall; at the first
                # step a stale one could pass for one
                stalled = True
                break
            chord = accepted
        if not accepted:
            # fresh Newton step; -log*'' is 1/z^2 or 1/eps^2, positive on
            # both branches
            a_mat = _weighted_gram(g, -d2)
            ridge = 1e-12 * (1.0 + np.trace(a_mat) / m)
            a_mat[np.diag_indices_from(a_mat)] += ridge
            hessians += 1
            try:
                direction = np.linalg.solve(a_mat, grad)
                slot.keep(a_mat)
            except np.linalg.LinAlgError:
                slot.keep(None)
                direction = _lstsq(a_mat, grad)
            slope = float(grad @ direction)
            if slope <= 0.0:
                direction = grad
                slope = float(grad @ grad)
            if 0.5 * slope <= floor:
                stalled = True
                break
            gdir = g @ direction
            step = 1.0
            for _ in range(60):
                zc = z + step * gdir
                vc = float(np.sum(_logstar(zc, eps)))
                if vc >= val + 1e-4 * step * slope:
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
            direction = step * direction
        lam, z, val = lam + direction, zc, vc
        iters += 1
        _, d1, d2 = _logstar(z, eps, derivs=True)
        grad = g.T @ d1
        gnorm, last = float(np.max(np.abs(grad))), gnorm
        chord = chord and gnorm <= 0.5 * last
    return ELDualState(
        lam=lam,
        weights=d1 / n,
        inner_objective=val,
        grad_norm=gnorm,
        iterations=iters,
        converged=bool(gnorm <= tol or stalled),
        hessians=hessians,
    )


class _Path:
    """One dataset's penalty path: shared arrays and the warm start.

    beta and lam are those of the last successful fit, in the internal
    (rescaled) coordinates; None before the first. factor holds the last
    inner Hessian formed on the path, whose inverse every inner solve
    (line-search candidates, outer steps, taus) may step with first.
    h_el is the kept outer curvature n * G' V^{-1} G, or None.
    """

    def __init__(self, data: Dataset, k1, k0, clip: float):
        _check_clip(clip)
        self.n = data.n
        self.p = data.p
        self.dvec = data.d.astype(float)
        self.delta = data.delta.astype(float)
        self.kdy = _own_arm_k(data, k1, k0)
        self.clip = clip
        sd = data.x.std(axis=0)
        self.scales = np.where(sd > 0, sd, 1.0)
        self.x = data.x / self.scales
        self.beta = None
        self.lam = None
        self.factor = _FactorSlot()
        self.h_el = None

    def q_eval(self, beta, scad, lam_init=None):
        """(Q, dual state, gmat, slopes) at internal beta.

        Q is the profiled EL term plus n times the summed penalty, and +inf
        when the inner solve fails, so that comparisons reject the point.
        """
        gm, _, _, slopes = _moment_rows(
            beta, self.clip, self.x, self.dvec, self.delta, self.kdy
        )
        state = solve_inner_dual(gm, lam_init, factor=self.factor)
        if not state.converged:
            return math.inf, state, gm, slopes
        q = state.inner_objective
        if scad is not None:
            q += self.n * float(np.sum(scad_value(np.abs(beta), scad)))
        return q, state, gm, slopes

    def form_curvature(self, gm, slopes):
        """Form and keep n * J' V^{-1} J from one beta's moment rows and
        slopes (V as in moments._vinv_jac)."""
        jac = _mean_jacobian(self.x, slopes)
        h_el = self.n * (jac.T @ _vinv_jac(gm, jac))
        self.h_el = 0.5 * (h_el + h_el.T)


def fit_pel(
    data: Dataset,
    k1: CensorSurvival,
    k0: CensorSurvival,
    scad: ScadParams | None,
    clip: float = 0.01,
    *,
    _path: _Path | None = None,
) -> PELFit:
    """Minimize the penalized EL objective; scad=None fits unpenalized.

    Propensities are clipped to [clip, 1 - clip]. _path, when given, is
    select_tau's path over the same data and curves. It supplies the clip
    and the starting point, and a successful fit leaves its beta and dual
    vector there for the next one.
    """
    path = _path or _Path(data, k1, k0, clip)
    n, p = path.n, path.p
    zero_tol = _ZERO_TOL if scad is not None else 0.0

    if path.beta is None:
        beta = _logistic_mle(
            _Design(path.x), path.dvec, np.ones((1, n)), ridge=_INIT_RIDGE
        )[0][0]
        if not np.all(np.isfinite(beta)):
            beta = np.zeros(p)
    else:
        beta = path.beta
    q_cur, state, gm, slopes = path.q_eval(beta, scad, path.lam)
    if not math.isfinite(q_cur):
        # the fallback starts cold, so its failure does not depend on tau,
        # and forms its own curvature
        beta = np.zeros(p)
        path.h_el = None
        q_cur, state, gm, slopes = path.q_eval(beta, scad)
        if not math.isfinite(q_cur):
            raise FitError("inner dual did not converge at the initial point")

    trace = [q_cur]
    converged = False
    outer = 0
    for outer in range(1, _MAX_OUTER + 1):
        lam = state.lam
        grad_el = _profile_grad(path.x, slopes, lam, n * state.weights)
        if scad is not None:
            w_lqa = np.atleast_1d(lqa_weight(beta, scad, _LQA_EPS))
        else:
            w_lqa = np.zeros(p)
        grad_m = grad_el + n * w_lqa * beta
        if path.h_el is None:
            path.form_curvature(gm, slopes)
        h_el = path.h_el
        h_mat = h_el + np.diag(n * w_lqa)
        h_mat[np.diag_indices_from(h_mat)] += 1e-8 * (1.0 + np.trace(h_el) / p)
        direction = -_solve_or_lstsq(h_mat, grad_m)

        # Coordinates held at zero whose proposed move is below the
        # threshold are pinned there by the rezeroing rule; they cannot
        # contribute descent, so the stationarity test skips them.
        pinned = (beta == 0.0) & (np.abs(direction) < zero_tol)
        decrement = float(-grad_m[~pinned] @ direction[~pinned])
        # Stationary when the model decrement is tiny. There a rejected
        # step ends the line search at once: halving could buy only a
        # decrease below this resolution, at one inner solve per try.
        stationary = decrement <= 1e-8 * (1.0 + abs(q_cur))
        step = 1.0
        accepted = False
        for _ in range(40):
            cand = beta + step * direction
            if zero_tol > 0.0:
                cand = np.where(np.abs(cand) < zero_tol, 0.0, cand)
            q_cand, st_cand, gm_cand, sl_cand = path.q_eval(cand, scad, lam)
            if q_cand < q_cur - 1e-12 * (1.0 + abs(q_cur)):
                accepted = True
                break
            if stationary:
                break
            step *= 0.5
        if not accepted:
            converged = stationary
            break
        delta_max = float(np.max(np.abs(cand - beta)))
        if step < 1.0 or delta_max > _REUSE_MOVE:
            path.h_el = None
        beta, q_cur, state, gm, slopes = cand, q_cand, st_cand, gm_cand, sl_cand
        trace.append(q_cur)
        if delta_max <= _OUTER_TOL:
            converged = True
            break

    path.beta, path.lam = beta, state.lam
    beta_orig = beta / path.scales
    lam_orig = state.lam.copy()
    lam_orig[:p] = lam_orig[:p] / path.scales
    active = np.flatnonzero(beta_orig != 0.0)
    return PELFit(
        beta_hat=beta_orig,
        active_set=active,
        tau=float(scad.lam) if scad is not None else 0.0,
        dual=replace(state, lam=lam_orig),
        outer_iterations=outer,
        objective_trace=np.asarray(trace),
        converged=converged,
        clip=path.clip,
    )


def default_tau_grid(n: int, p: int) -> np.ndarray:
    """20 log-spaced penalty levels from 0.01 to 2 times sqrt(log p / n)."""
    if n < 2 or p < 1:
        raise InputError("need n >= 2 and p >= 1")
    scale = math.sqrt(math.log(max(p, 2)) / n)
    return np.geomspace(_TAU_LO * scale, _TAU_HI * scale, _TAU_NUM)


def _check_tau_grid(grid) -> np.ndarray:
    """grid as a float array, which must be nonempty, finite and positive."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or not np.all(np.isfinite(grid) & (grid > 0)):
        raise InputError("tau grid must be nonempty, finite and positive")
    return grid


def select_tau(
    data: Dataset,
    k1: CensorSurvival,
    k0: CensorSurvival,
    grid=None,
    clip: float = 0.01,
):
    """Pick the penalty level by the BIC-type criterion.

    Score: 2 * (EL term at the fit) + |active set| * log n. Candidates are
    visited from the largest tau down with warm starts, and a later score
    replaces the incumbent only when it is lower by more than
    1e-9 * (1 + |incumbent|). Scores equal up to rounding thus resolve
    toward the larger tau, and the outcome does not depend on the order of
    the supplied grid. The path stops at the first failed fit: the best fit
    so far is returned, or SelectionError raised if none. A fixed tau is
    the one-value grid [tau]; the SCAD knot is ScadParams' default.
    """
    if grid is None:
        grid = default_tau_grid(data.n, data.p)
    grid = np.sort(_check_tau_grid(grid))[::-1]
    logn = math.log(data.n)
    best = None
    path = _Path(data, k1, k0, clip)
    for tau in grid:
        try:
            fit = fit_pel(data, k1, k0, ScadParams(lam=float(tau)), _path=path)
        except FitError as exc:
            # fit_pel fails only at its starting points, whose inner dual
            # does not depend on tau, and the path's warm start is left as
            # it was: every smaller tau would fail the same way
            if best is None:
                raise SelectionError(
                    f"fit at tau={float(tau):.6g} failed: {exc}"
                ) from exc
            break
        score = 2.0 * fit.dual.inner_objective + fit.active_set.size * logn
        if best is None or score < best[0] - 1e-9 * (1.0 + abs(best[0])):
            best = (score, float(tau), fit)
    return best[1], best[2]

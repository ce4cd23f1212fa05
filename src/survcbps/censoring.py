"""Censoring survival curves for inverse-probability-of-censoring weighting.

The censoring distribution is estimated per treatment arm with the
product-limit estimator applied to the flipped indicator: rows with
``delta == 0`` are the events of the censoring process, rows with
``delta == 1`` leave the risk set. Ties between an outcome event and a
censoring event at the same time are resolved by letting the outcome event
happen first, so a ``delta == 1`` subject at time t is not at risk for a
censoring event at t.

``_product_limit`` is the one implementation: one sort, then O(n) per curve.
It takes a ``_CensorGrid`` of rows sorted by time (the censoring times, the
last row at or before each and the censored rows grouped by tied time) and
a row of integer counts per curve (how many times each row enters it, 0 for
rows outside the arm). A running sum of the counts gives, at each censoring
time t, the count with y > t, and one sum per tie group of the censored
rows' counts the censoring events at t; the risk set is that count plus the
events. A censoring time without events in a curve contributes a factor of
exactly 1.0. Every count is an exact integer, so the values equal those
formed by scanning repeated rows once per event time. ``CensorSurvival.fit``
is the one-curve case with every count 1; the bootstrap baselines build each
arm's grid once and pass it a block of resample counts at a time.

Curves are evaluated with the left limit K(u) = prod_{t_k < u} (1 - d_k/n_k)
(strict inequality) and clamped below at a configurable floor so that
weights 1/K stay bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DegenerateArmError, InputError


def _check_floor(floor):
    """Raise InputError unless the curve floor lies in (0, 1); NaN fails too."""
    if not 0.0 < floor < 1.0:
        raise InputError("floor must lie in (0, 1)")


@dataclass(frozen=True)
class CensorSurvival:
    """Step function K(u) with jump times and post-jump values.

    ``values[k]`` is the curve value just after ``times[k]``; the value
    before the first jump is 1. All stored values are already clamped at
    ``floor``.
    """

    times: np.ndarray
    values: np.ndarray
    floor: float

    def __post_init__(self):
        _check_floor(self.floor)
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.shape != values.shape:
            raise InputError("times and values must align")
        if times.size and np.any(np.diff(times) <= 0):
            raise InputError("jump times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        times.setflags(write=False)
        values.setflags(write=False)

    @classmethod
    def fit(cls, y, delta, floor: float = 0.05) -> "CensorSurvival":
        """Product-limit fit on raw arrays (single arm).

        ``y`` must be finite and >= 0 and ``delta`` 0/1, both 1-d of equal
        length; anything else raises ``InputError``.
        """
        y = np.asarray(y, dtype=float)
        delta = np.asarray(delta)
        if y.ndim != 1 or delta.shape != y.shape:
            raise InputError("y and delta must be 1-d arrays of equal length")
        if y.size == 0:
            raise DegenerateArmError("cannot fit a censoring curve on no records")
        _check_floor(floor)
        if not np.all(np.isfinite(y)) or np.any(y < 0):
            raise InputError("y must be finite and nonnegative")
        if not np.all(np.isin(delta, (0, 1))):
            raise InputError("delta must contain only 0 or 1")
        order = np.argsort(y)
        grid = _CensorGrid(y[order], delta[order] == 0)
        left = _product_limit(grid, np.ones((1, y.size), dtype=np.int64), floor)[1]
        return cls(times=grid.times, values=left[0, 1:], floor=floor)

    def evaluate(self, u):
        """K at u (scalar or array), using the left limit at jump times."""
        u = np.asarray(u, dtype=float)
        if np.any(u < 0) or not np.all(np.isfinite(u)):
            raise InputError("evaluation points must be finite and >= 0")
        idx = np.searchsorted(self.times, u, side="left")
        padded = np.concatenate(([1.0], self.values))
        out = padded[idx]
        if out.ndim == 0:
            return float(out)
        return out


class _CensorGrid:
    """Where the censoring times of one arm's rows sit among them.

    Built from the rows' times ``y`` in nondecreasing order and the mask
    ``censored`` of the censoring events. ``times`` holds the m distinct
    censoring times, ``last[j]`` the last row with y <= times[j],
    ``censored_rows`` the censored rows in order and ``ties[j]`` the first
    of them at times[j]. The grid depends on the rows only, so one grid
    serves every curve over them.
    """

    __slots__ = ("times", "last", "censored_rows", "ties")

    def __init__(self, y, censored):
        self.censored_rows = np.flatnonzero(censored)
        self.times, self.ties = np.unique(y[self.censored_rows], return_index=True)
        self.last = np.searchsorted(y, self.times, side="right") - 1


def _product_limit(grid, counts, floor):
    """Censoring product-limit curves of one arm, one per row of ``counts``.

    ``grid`` is the arm's ``_CensorGrid``, and ``counts[b, i]`` (whole
    numbers, int or float) is how often row i enters curve b. Returns
    ``(events, left)``: the (B, m) event counts at ``grid.times``, and the
    (B, m + 1) clamped curves, where ``left[:, j]`` is the left limit at
    ``times[j]`` and ``left[:, j + 1]`` the value just after it. A time
    whose count is 0 in curve b contributes a factor of exactly 1.0.
    """
    upto = np.cumsum(counts, axis=1)
    # Risk set = {y > t} plus the censoring events at t, outcome events at t
    # having already left.
    beyond = upto[:, -1:] - upto[:, grid.last]
    del upto
    events = np.add.reduceat(counts[:, grid.censored_rows], grid.ties, axis=1)
    hazard = np.divide(
        events, beyond + events, out=np.zeros(events.shape), where=events > 0
    )
    left = np.ones((counts.shape[0], grid.times.size + 1))
    left[:, 1:] = np.maximum(np.cumprod(1.0 - hazard, axis=1), floor)
    return events, left


def fit_censoring_km(data: Dataset, group: int, floor: float = 0.05) -> CensorSurvival:
    """Censoring survival curve for one treatment arm of a dataset."""
    if group not in (0, 1):
        raise InputError("group must be 0 or 1")
    mask = data.d == group
    if not mask.any():
        raise DegenerateArmError(f"treatment arm d={group} is empty")
    return CensorSurvival.fit(data.y[mask], data.delta[mask], floor=floor)

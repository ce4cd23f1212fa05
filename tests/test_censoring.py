import numpy as np
import pytest

import survcbps as sc
from survcbps.censoring import CensorSurvival, _CensorGrid, _product_limit
from tests.conftest import BAD_FLOORS


def brute_force_censor_survival(y, delta, u):
    """O(n^2) product-limit value at u for the censoring process.

    Censoring events (delta == 0) at time t happen after any outcome
    events at the same t, so the risk set at t counts rows with y > t plus
    the censored rows at exactly t. Left-continuous evaluation: only jump
    times strictly below u enter the product.
    """
    y = np.asarray(y, dtype=float)
    delta = np.asarray(delta)
    value = 1.0
    for t in sorted(set(y[delta == 0])):
        if t >= u:
            continue
        d_t = sum(1 for i in range(len(y)) if y[i] == t and delta[i] == 0)
        n_t = sum(1 for i in range(len(y)) if y[i] > t) + d_t
        value *= 1.0 - d_t / n_t
    return value


def scan_censor_fit(y, delta, floor):
    """O(n*k) reference fit: one full scan of the rows per censoring time."""
    y = np.asarray(y, dtype=float)
    delta = np.asarray(delta)
    cens_times = np.unique(y[delta == 0])
    d_k = np.array(
        [np.sum((y == t) & (delta == 0)) for t in cens_times], dtype=float
    )
    n_k = np.array([np.sum(y > t) for t in cens_times], dtype=float) + d_k
    surv = np.cumprod(1.0 - d_k / n_k)
    return cens_times, np.maximum(surv, floor)


def test_hand_worked_curve():
    # censor events at 1 and 3, outcome events at 2 and 3
    y = np.array([1.0, 2.0, 3.0, 3.0])
    delta = np.array([0, 1, 1, 0])
    curve = CensorSurvival.fit(y, delta, floor=0.01)
    np.testing.assert_allclose(curve.times, [1.0, 3.0])
    # at t=1: risk {2,3,3,1c} -> 4, K = 3/4
    # at t=3: outcome row at 3 already gone, risk = censored row alone -> 1,
    # K = 3/4 * 0 clamped at the floor
    np.testing.assert_allclose(curve.values, [0.75, 0.01])
    assert curve.evaluate(1.0) == 1.0
    assert curve.evaluate(1.5) == 0.75
    assert curve.evaluate(3.0) == 0.75
    assert curve.evaluate(10.0) == 0.01


def test_no_censoring_gives_flat_one():
    curve = CensorSurvival.fit([1.0, 2.0, 3.0], [1, 1, 1])
    assert curve.times.size == 0
    np.testing.assert_array_equal(curve.evaluate([0.0, 1.0, 99.0]), [1, 1, 1])


def test_tie_rule_outcome_leaves_first():
    # one outcome and one censor event at the same time
    y = np.array([2.0, 2.0, 3.0])
    delta = np.array([1, 0, 1])
    curve = CensorSurvival.fit(y, delta, floor=0.01)
    # risk at 2 = {3.0} plus the censored row = 2, not 3
    np.testing.assert_allclose(curve.values, [0.5])


def test_brute_force_agreement_random_fixtures():
    rng = np.random.default_rng(17)
    for trial in range(200):
        n = int(rng.integers(1, 11))
        # integer-valued times force plenty of ties
        y = rng.integers(1, 5, n).astype(float)
        delta = rng.integers(0, 2, n)
        curve = CensorSurvival.fit(y, delta, floor=1e-12)
        for u in np.concatenate((np.unique(y), np.unique(y) + 0.5, [0.0, 0.25])):
            expected = max(brute_force_censor_survival(y, delta, u), 1e-12)
            assert abs(curve.evaluate(u) - expected) <= 1e-12


@pytest.mark.parametrize("ties", [True, False])
def test_scan_oracle_bit_exact(ties):
    rng = np.random.default_rng(29)
    clamped = 0
    for n in (1, 2, 3, 7, 40, 300, 1000, 3000):
        for floor in (1e-12, 0.05, 0.6):
            if ties:
                y = rng.integers(0, max(2, n // 8), n).astype(float)
            else:
                y = rng.exponential(2.0, n)
            delta = (rng.random(n) < 0.6).astype(np.int8)
            curve = CensorSurvival.fit(y, delta, floor=floor)
            times, values = scan_censor_fit(y, delta, floor)
            np.testing.assert_array_equal(curve.times, times)
            np.testing.assert_array_equal(curve.values, values)
            clamped += int(np.sum(values == floor))
    assert clamped > 0


@pytest.mark.parametrize("ties", [True, False])
def test_counts_kernel_equals_fit_on_repeated_rows(ties):
    """Row counts give bit for bit the curve of the rows repeated that often.

    Checks the jump times, the values after them and the left limit read
    at every row through its time's index, for integer and float counts.
    """
    rng = np.random.default_rng(41)
    compared = 0
    for n in (1, 2, 5, 30, 200, 1500):
        if ties:
            y = np.sort(rng.integers(0, max(2, n // 4), n).astype(float))
        else:
            y = np.sort(rng.exponential(2.0, n))
        censored = rng.random(n) < 0.4
        counts = rng.integers(0, 4, (5, n))
        counts[0] = 0
        counts[1] = 1
        for floor in (1e-12, 0.05, 0.6):
            for c_all in (counts, counts.astype(float)):
                grid = _CensorGrid(y, censored)
                times = grid.times
                events, left = _product_limit(grid, c_all, floor)
                np.testing.assert_array_equal(times, np.unique(y[censored]))
                slot = np.searchsorted(times, y)
                np.testing.assert_array_equal(left[0], 1.0)
                for c, ev, lf in zip(counts[1:], events[1:], left[1:]):
                    if c.sum() == 0:
                        continue
                    ref = CensorSurvival.fit(
                        np.repeat(y, c), np.repeat(~censored, c).astype(int),
                        floor=floor,
                    )
                    jump = ev > 0
                    np.testing.assert_array_equal(times[jump], ref.times)
                    np.testing.assert_array_equal(lf[1:][jump], ref.values)
                    np.testing.assert_array_equal(lf[slot], ref.evaluate(y))
                    compared += 1
    assert compared > 100


def test_floor_clamps_small_values():
    y = np.array([1.0, 2.0])
    delta = np.array([0, 0])
    curve = CensorSurvival.fit(y, delta, floor=0.05)
    # second factor drives the curve to zero; the floor holds it up
    assert curve.evaluate(5.0) == 0.05


def test_evaluate_validates_input():
    curve = CensorSurvival.fit([1.0, 2.0], [0, 1])
    with pytest.raises(sc.InputError):
        curve.evaluate(-1.0)
    with pytest.raises(sc.InputError):
        curve.evaluate(np.inf)


@pytest.mark.parametrize(
    "y, delta",
    [
        ([1.0, np.nan, 2.0], [0, 1, 0]),
        ([1.0, np.inf, 2.0], [0, 1, 0]),
        ([1.0, -0.5, 2.0], [0, 1, 0]),
        ([1.0, 2.0, 3.0], [0, 1]),
        ([[1.0, 2.0], [3.0, 4.0]], [[0, 1], [1, 0]]),
        ([1.0, 2.0, 3.0], [0, 2, 1]),
        ([1.0, 2.0, 3.0], [0, np.nan, 1]),
    ],
    ids=["nan_y", "inf_y", "negative_y", "delta_length", "two_d",
         "delta_two", "delta_nan"],
)
def test_fit_validates_input(y, delta):
    with pytest.raises(sc.InputError):
        CensorSurvival.fit(np.array(y), np.array(delta))


def test_constructor_validation():
    with pytest.raises(sc.InputError):
        CensorSurvival(times=np.array([2.0, 1.0]), values=np.array([0.9, 0.8]),
                       floor=0.05)
    with pytest.raises(sc.InputError):
        CensorSurvival(times=np.array([1.0]), values=np.array([0.9]), floor=1.5)


@pytest.mark.parametrize("floor", BAD_FLOORS)
def test_bad_floor_is_rejected(floor):
    with pytest.raises(sc.InputError, match="floor"):
        CensorSurvival.fit(np.array([1.0, 2.0]), np.array([0, 1]), floor=floor)
    with pytest.raises(sc.InputError, match="floor"):
        CensorSurvival(times=np.array([1.0]), values=np.array([0.9]), floor=floor)


def test_fit_censoring_km_per_arm(toy_data):
    k1 = sc.fit_censoring_km(toy_data, 1)
    k0 = sc.fit_censoring_km(toy_data, 0)
    mask = toy_data.d == 1
    ref = CensorSurvival.fit(toy_data.y[mask], toy_data.delta[mask])
    np.testing.assert_array_equal(k1.times, ref.times)
    np.testing.assert_array_equal(k1.values, ref.values)
    assert k0.times.size > 0
    with pytest.raises(sc.InputError):
        sc.fit_censoring_km(toy_data, 2)


def test_empty_arm_raises():
    with pytest.raises(sc.DegenerateArmError):
        CensorSurvival.fit(np.empty(0), np.empty(0, dtype=int))

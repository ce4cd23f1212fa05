"""Fixed-seed guard: estimates agree with recorded values within 1e-5 SE.

The literals were recorded before the IPCW weighting path was collapsed to
one formula, and pin behaviour, not correctness. A change that moves
estimates on purpose records new literals and says why in CHANGES.md. The
tolerance is far above the rounding differences between BLAS builds; the
discrete tau and active set are compared exactly.
"""

import math

import pytest

import survcbps as sc

CONFIG = sc.SimConfig(n=300, p=20, seed=42)

# (estimator, rep): tau, active set, then ate, se, se_propensity, ci_low,
# ci_high. The bootstrap baselines have no tau, active set or se_propensity.
PINNED = {
    ("proposed", 0): (
        0.007037829881693576, [0, 1, 2, 3, 4],
        0.08342681791192663, 0.20944156760214142, 0.04974846363744953,
        -0.32707111145388157, 0.49392474727773483,
    ),
    ("proposed", 1): (
        0.007037829881693576, [0, 2, 3, 4],
        0.3297366433952251, 0.21321212888128363, 0.05750520097449875,
        -0.08815145027920307, 0.7476247370696534,
    ),
    ("proposed", 2): (
        0.005325150949099985, [0, 1, 2, 3, 4],
        0.18610422132184135, 0.3511952749930744, 0.1017788280033134,
        -0.5022258692052247, 0.8744343118489074,
    ),
    ("naive_ipw", 0): (
        None, None,
        0.1167057483606766, 0.202156577163222, None,
        -0.27951386211713086, 0.5129253588384841,
    ),
    ("aipw", 0): (
        None, None,
        0.2870462699690306, 0.23520954682673384, None,
        -0.1739559706313551, 0.7480485105694163,
    ),
    ("cbps_unpenalized", 0): (
        None, None,
        0.06703156467240312, 0.18675344582546138, 0.0782695162517732,
        -0.2989984631342533, 0.43306159247905956,
    ),
}


def _estimate(name, rep):
    """(tau, active set, ATEResult) of one estimator on one replication."""
    data, _ = sc.generate_dataset(CONFIG, rep)
    k1 = sc.fit_censoring_km(data, 1)
    k0 = sc.fit_censoring_km(data, 0)
    if name == "proposed":
        tau, fit = sc.select_tau(data, k1, k0)
        active = [int(j) for j in fit.active_set]
        return tau, active, sc.ate_with_ci(data, fit, k1, k0)
    if name == "cbps_unpenalized":
        return None, None, sc.fit_cbps_unpenalized(data, k1, k0)
    fit_fn = sc.fit_naive_ipw if name == "naive_ipw" else sc.fit_aipw
    return None, None, fit_fn(data, k1, k0, n_boot=50, seed=3)


@pytest.mark.parametrize("name, rep", sorted(PINNED))
def test_fixed_seed_estimates_match_the_recorded_values(name, rep):
    tau, active, *values = PINNED[name, rep]
    got_tau, got_active, res = _estimate(name, rep)
    assert got_tau == tau
    assert got_active == active
    tol = 1e-5 * values[1]
    got = (res.ate, res.se, res.se_propensity, res.ci_low, res.ci_high)
    for field, want, have in zip(
        ("ate", "se", "se_propensity", "ci_low", "ci_high"), values, got
    ):
        if want is None:
            assert math.isnan(have), field
        else:
            assert abs(have - want) <= tol, field

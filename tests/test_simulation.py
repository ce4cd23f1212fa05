import math

import numpy as np
import pytest
from scipy.optimize import brentq

import survcbps as sc
from survcbps import simulation
from survcbps.moments import expit
from survcbps.simulation import (
    SimConfig,
    SimReport,
    _censor_rate,
    _chol,
    _pilot_times,
    _stream,
    build_beta,
    build_gamma,
    covariance_matrix,
    generate_dataset,
    parse_config_text,
    run_study,
    true_ate,
    write_outputs,
)
from tests.conftest import (
    BAD_CLIPS,
    BAD_FLOORS,
    BAD_LEVELS,
    BAD_N_BOOTS,
    BAD_WORKERS,
    SPOILED_DUMPS,
    small_dump,
)


def test_config_defaults_and_validation():
    cfg = SimConfig()
    assert cfg.n == 300 and cfg.p == 20 and cfg.censor_target == 0.30
    with pytest.raises(sc.ConfigError):
        SimConfig(n=5)
    with pytest.raises(sc.ConfigError):
        SimConfig(covariance="toeplitz")
    with pytest.raises(sc.ConfigError):
        SimConfig(beta_nonzero=99, p=10)
    with pytest.raises(sc.ConfigError):
        SimConfig(estimators=("proposed", "magic"))
    with pytest.raises(sc.ConfigError):
        SimConfig(censor_target=1.0)


@pytest.mark.parametrize("clip", BAD_CLIPS)
def test_config_rejects_bad_clip(clip):
    with pytest.raises(sc.ConfigError, match="clip"):
        SimConfig(clip=clip)


@pytest.mark.parametrize("level", BAD_LEVELS)
def test_config_rejects_bad_level(level):
    with pytest.raises(sc.ConfigError, match="level"):
        SimConfig(level=level)


@pytest.mark.parametrize("km_floor", BAD_FLOORS)
def test_config_rejects_bad_km_floor(km_floor):
    with pytest.raises(sc.ConfigError, match="floor"):
        SimConfig(km_floor=km_floor)


@pytest.mark.parametrize("n_boot", BAD_N_BOOTS)
def test_config_rejects_bad_n_boot(n_boot):
    with pytest.raises(sc.ConfigError, match="n_boot"):
        SimConfig(n_boot=n_boot)


def test_coefficient_vectors():
    cfg = SimConfig(p=6, beta_nonzero=4, beta_magnitude=0.4,
                    gamma_nonzero=2, gamma_magnitude=0.2)
    np.testing.assert_allclose(build_beta(cfg), [0.4, -0.4, 0.4, -0.4, 0, 0])
    np.testing.assert_allclose(build_gamma(cfg), [0.2, 0.2, 0, 0, 0, 0])


def test_covariance_matrix_entries():
    cfg = SimConfig(p=4, beta_nonzero=2, gamma_nonzero=2,
                    covariance="ar", ar_rho=0.5)
    s = covariance_matrix(cfg)
    expect = np.array([
        [1.0, 0.5, 0.25, 0.125],
        [0.5, 1.0, 0.5, 0.25],
        [0.25, 0.5, 1.0, 0.5],
        [0.125, 0.25, 0.5, 1.0],
    ])
    np.testing.assert_allclose(s, expect)
    np.testing.assert_allclose(
        covariance_matrix(SimConfig(p=3, beta_nonzero=1, gamma_nonzero=1)),
        np.eye(3),
    )


def test_generated_censoring_close_to_target():
    cfg = SimConfig(n=4000, p=5, beta_nonzero=2, gamma_nonzero=2,
                    replications=1, seed=31)
    fractions = []
    for rep in range(3):
        data, _ = generate_dataset(cfg, rep)
        fractions.append(1.0 - data.delta.mean())
    assert abs(np.mean(fractions) - cfg.censor_target) <= 0.05


def test_zero_censoring_target():
    cfg = SimConfig(n=200, p=3, beta_nonzero=1, gamma_nonzero=1,
                    censor_target=0.0, replications=1, seed=8)
    data, truth = generate_dataset(cfg, 0)
    assert truth.censor_rate == 0.0
    assert np.all(data.delta == 1)


@pytest.mark.parametrize("config", [
    *(SimConfig(censor_target=c) for c in (0.02, 0.3, 0.9, 0.99)),
    SimConfig(covariance="ar", ar_rho=0.9),
], ids=["target0.02", "target0.3", "target0.9", "target0.99", "ar0.9"])
def test_censor_rate_matches_brentq_and_hits_the_target(config):
    t = _pilot_times(config)

    def excess(rate):
        return float(np.mean(-np.expm1(-rate * t))) - config.censor_target

    hi = 1.0
    while excess(hi) < 0:
        hi *= 2.0
    oracle = brentq(excess, 0.0, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps)
    rate = _censor_rate(config)
    assert abs(rate - oracle) <= 1e-12 * oracle
    assert abs(excess(rate)) <= 1e-12


def test_censor_rate_of_target_zero_is_exactly_zero():
    assert _censor_rate(SimConfig(censor_target=0.0)) == 0.0


def one_shot_pilot_times(config):
    """The pilot as first written: each 20 000-draw chunk's X drawn whole."""
    rng = _stream(config, simulation._STREAM_PILOT)
    chol = _chol(config)
    beta, gamma = build_beta(config), build_gamma(config)
    times = []
    for _ in range(5):
        z = rng.standard_normal((20_000, config.p))
        x = z if chol is None else z @ chol.T
        d = (rng.random(20_000) < expit(x @ beta)).astype(np.int8)
        w1 = rng.weibull(config.weibull_k, 20_000)
        w0 = rng.weibull(config.weibull_k, 20_000)
        t1 = config.lambda0 * np.exp(x @ gamma) * w1
        t0 = config.lambda0 * w0
        times.append(np.where(d == 1, t1, t0))
    return np.concatenate(times)


def one_shot_true_ate(config):
    """A 1M-draw Monte Carlo reference for the truth, with its MC SE: the
    mean of lambda0 (exp(X' gamma) w1 - w0), X' gamma drawn as the scalar
    N(0, gamma' S gamma)."""
    rng = _stream(config, 3)  # a tag no package stream takes
    gamma = build_gamma(config)
    var_g = float(gamma @ covariance_matrix(config) @ gamma)
    ndraw = 1_000_000
    z = rng.standard_normal(ndraw) * math.sqrt(var_g)
    w1 = rng.weibull(config.weibull_k, ndraw)
    w0 = rng.weibull(config.weibull_k, ndraw)
    diff = config.lambda0 * (np.exp(z) * w1 - w0)
    return float(diff.mean()), float(diff.std(ddof=1) / math.sqrt(ndraw))


def assert_matches_one_shot(config, monkeypatch):
    """The censoring rate equals the one-shot pilot's in float.hex."""
    rate = _censor_rate.__wrapped__(config)
    monkeypatch.setattr(simulation, "_pilot_times", one_shot_pilot_times)
    assert rate.hex() == _censor_rate.__wrapped__(config).hex()


@pytest.mark.parametrize("target", [0.3, 0.5])
@pytest.mark.parametrize("p", [10, 100])
@pytest.mark.parametrize("covariance", ["identity", "ar"])
def test_block_draws_match_the_one_shot_draws(covariance, p, target, monkeypatch):
    config = SimConfig(p=p, covariance=covariance, ar_rho=0.7,
                       censor_target=target, seed=p)
    assert_matches_one_shot(config, monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize("covariance", ["identity", "ar"])
def test_block_draws_match_the_one_shot_draws_at_p_400(covariance, monkeypatch):
    assert_matches_one_shot(SimConfig(p=400, covariance=covariance), monkeypatch)


def _traced_peak(call):
    """The bytes that tracemalloc saw allocated at once during call()."""
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pilot_memory_does_not_grow_with_p():
    """A whole 20 000 x 400 chunk of X took 130 MB at (300, 400)."""
    config = SimConfig(n=300, p=400)
    assert _traced_peak(lambda: _pilot_times(config)) <= 16 * 2**20


def test_true_ate_matches_lognormal_closed_form():
    """The exact truth lambda0 Gamma(1 + 1/k) (exp(g' S g / 2) - 1) lies
    within 3 MC SEs of the 1M-draw reference, under identity and AR
    covariance."""
    for cfg in (SimConfig(),
                SimConfig(n=100, p=8, beta_nonzero=3, gamma_nonzero=4,
                          gamma_magnitude=0.25, covariance="ar", seed=14)):
        exact = true_ate(cfg)
        est, mc_se = one_shot_true_ate(cfg)
        assert type(exact) is float
        assert abs(exact - est) <= 3.0 * mc_se
        assert mc_se < 0.02


@pytest.mark.parametrize("design", [{"gamma_magnitude": 20.0},
                                    {"weibull_k": 0.005}],
                         ids=["gamma20", "k0.005"])
def test_non_finite_truth_is_a_config_error_before_any_replication(
        design, monkeypatch):
    def never(task):
        raise AssertionError("a replication started")

    monkeypatch.setattr(simulation, "_run_rep", never)
    with pytest.raises(sc.ConfigError, match="true ATE is not a finite float"):
        run_study(SimConfig(**design))


def test_generate_dataset_deterministic_per_rep():
    cfg = SimConfig(n=80, p=4, beta_nonzero=2, gamma_nonzero=2,
                    replications=2, seed=77)
    a1, _ = generate_dataset(cfg, 0)
    a2, _ = generate_dataset(cfg, 0)
    b, _ = generate_dataset(cfg, 1)
    np.testing.assert_array_equal(a1.y, a2.y)
    np.testing.assert_array_equal(a1.x, a2.x)
    assert not np.array_equal(a1.y, b.y)


def test_sample_ate_tracks_population_truth():
    cfg = SimConfig(n=20000, p=4, beta_nonzero=2, gamma_nonzero=2,
                    replications=1, seed=4)
    _, truth = generate_dataset(cfg, 0)
    # a 20k-subject sample mean should sit a few SEs from the truth
    assert abs(truth.sample_ate - true_ate(cfg)) < 0.1


def _tiny_config(**kwargs):
    base = dict(
        n=100, p=3, beta_nonzero=2, gamma_nonzero=2, replications=3,
        seed=99, estimators=("proposed", "naive_ipw"), n_boot=30,
    )
    base.update(kwargs)
    return SimConfig(**base)


def test_run_study_shape_and_order():
    report = run_study(_tiny_config())
    assert [row.estimator for row in report.rows] == ["proposed", "naive_ipw"]
    assert len(report.replications) == 6
    assert report.true_ate == true_ate(_tiny_config())
    assert report.true_ate_mc_se == 0.0
    for row in report.rows:
        assert np.isfinite(row.bias)
        assert row.n_fail == 0
    # estimator order in the config must not affect the output order
    flipped = run_study(_tiny_config(estimators=("naive_ipw", "proposed")))
    assert [row.estimator for row in flipped.rows] == ["proposed", "naive_ipw"]
    assert flipped.report_csv_text() == report.report_csv_text()


@pytest.mark.parametrize("workers", BAD_WORKERS)
def test_run_study_rejects_bad_workers_before_any_work(workers, monkeypatch):
    import survcbps.simulation as sim

    def never(config):
        raise AssertionError("the study started")

    monkeypatch.setattr(sim, "true_ate", never)
    with pytest.raises(sc.InputError, match="workers must be >= 1"):
        run_study(_tiny_config(), workers=workers)


def test_run_study_deterministic_across_workers():
    cfg = _tiny_config()
    serial = run_study(cfg, workers=1)
    parallel = run_study(cfg, workers=2)
    assert serial.report_csv_text() == parallel.report_csv_text()
    for a, b in zip(serial.replications, parallel.replications):
        assert a.estimate == b.estimate
        assert a.se == b.se


def test_report_render_and_csv():
    report = run_study(_tiny_config())
    table = report.render_table()
    lines = table.splitlines()
    assert lines[0].startswith("Method")
    assert "Coverage" in lines[0]
    assert lines[1].startswith("proposed")
    csv_text = report.report_csv_text()
    assert csv_text.splitlines()[0] == "estimator,bias,rmse,coverage_pct,n_fail"
    assert csv_text.endswith("\n")
    timing = report.timings_csv_text()
    assert timing.splitlines()[0] == "estimator,mean_runtime_ms"


def test_dump_round_trip(tmp_path):
    report = run_study(_tiny_config())
    paths = write_outputs(report, tmp_path / "out")
    back = sc.load_dump(paths["dump"])
    assert back.render_table() == report.render_table()
    assert back.report_csv_text() == report.report_csv_text()
    assert back.true_ate == report.true_ate
    assert back.config == report.config


def test_dump_rejects_bad_documents():
    with pytest.raises(sc.DumpFormatError):
        SimReport.from_dump({"schema_version": 99})
    with pytest.raises(sc.DumpFormatError):
        SimReport.from_dump([1, 2, 3])
    with pytest.raises(sc.DumpFormatError):
        SimReport.from_dump({"schema_version": 1, "replications": []})
    assert SimReport.from_dump(small_dump()).true_ate == 1.0
    for spoil in SPOILED_DUMPS.values():
        doc = small_dump()
        spoil(doc)
        with pytest.raises(sc.DumpFormatError, match="malformed dump"):
            SimReport.from_dump(doc)


@pytest.mark.parametrize("spoil, named", [
    (lambda doc: [doc["config"].pop(k) for k in ("n", "seed")],
     "config lacks n, seed"),
    (lambda doc: doc["rows"][0].update(n_fail=1.0), "rows[0].n_fail must be int"),
    (lambda doc: doc["rows"][0].update(bias=True), "rows[0].bias must be float"),
    (lambda doc: doc["replications"][0].update(rep=False),
     "replications[0].rep must be int"),
    (lambda doc: doc["replications"][0].update(error=3),
     "replications[0].error must be str | None"),
    (lambda doc: doc.update(true_ate_mc_se="0.01"), "true_ate_mc_se must be float"),
    (lambda doc: doc["config"].update(n=60.0), "config.n must be int"),
    (lambda doc: doc["config"].update(estimators="naive_ipw"),
     "config.estimators must be tuple"),
    (lambda doc: doc.update(rows={}), "rows must be tuple"),
])
def test_dump_error_names_the_field(spoil, named):
    doc = small_dump()
    spoil(doc)
    with pytest.raises(sc.DumpFormatError) as exc:
        SimReport.from_dump(doc)
    assert named in str(exc.value)


def test_dump_fields_take_any_json_number_and_error_text():
    doc = small_dump()
    doc["rows"][0]["bias"] = 0
    doc["replications"][0]["error"] = "FitError: no fit"
    doc["config"]["lambda0"] = 2
    report = SimReport.from_dump(doc)
    assert report.rows[0].bias == 0
    assert report.replications[0].error == "FitError: no fit"
    assert report.config.lambda0 == 2


@pytest.mark.parametrize("content", [b'{"schema_version": "\xff"}\n', b"{not json"])
def test_load_dump_of_bad_text_is_a_dump_error(content, tmp_path):
    path = tmp_path / "dump.json"
    path.write_bytes(content)
    with pytest.raises(sc.DumpFormatError, match="not UTF-8 JSON text"):
        sc.load_dump(path)


def test_load_config_of_non_utf8_text_is_a_config_error(tmp_path):
    path = tmp_path / "study.conf"
    path.write_bytes(b"n = 1\xff0\n")
    with pytest.raises(sc.ConfigError, match="not UTF-8"):
        sc.load_config(path)


def test_parse_config_text():
    cfg = parse_config_text(
        """
        # benchmark setup
        n = 250
        p = 8
        estimators = proposed, aipw
        censor_target = 0.25   # lighter censoring
        """
    )
    assert cfg.n == 250 and cfg.p == 8
    assert cfg.estimators == ("proposed", "aipw")
    assert cfg.censor_target == 0.25
    with pytest.raises(sc.ConfigError):
        parse_config_text("unknown_key = 5")
    with pytest.raises(sc.ConfigError):
        parse_config_text("n : 250")
    with pytest.raises(sc.ConfigError):
        parse_config_text("n = lots")
    over = parse_config_text("n = 250", overrides={"n": 400})
    assert over.n == 400


def test_parse_config_text_rejects_a_repeated_key():
    with pytest.raises(
        sc.ConfigError, match=r"^line 2: repeated key 'n' \(first on line 1\)$"
    ):
        parse_config_text("n = 300\nn = 50\n")
    # comments and blank lines keep their line numbers
    with pytest.raises(sc.ConfigError, match=r"line 4: repeated key 'p' \(first on line 2\)"):
        parse_config_text("# study\np = 3\n\np = 4  # again\n")
    # an override of a key given once is not a repeat
    assert parse_config_text("n = 300", overrides={"n": 50}).n == 50


def test_failed_replication_is_recorded_not_fatal(monkeypatch):
    import survcbps.simulation as sim

    calls = {"count": 0}
    real = sim.select_tau

    def flaky(*args, **kwargs):
        calls["count"] += 1
        if calls["count"] == 2:
            raise sc.FitError("synthetic failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(sim, "select_tau", flaky)
    report = run_study(_tiny_config(estimators=("proposed",)))
    row = report.rows[0]
    assert row.n_fail == 1
    failed = [r for r in report.replications if r.error is not None]
    assert len(failed) == 1
    assert "synthetic failure" in failed[0].error

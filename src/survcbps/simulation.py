"""Monte Carlo study harness.

Data generating process, per configuration:

- covariates X ~ N(0, S) with S either the identity or the AR(1) matrix
  S[j, k] = rho^|j - k|,
- treatment D ~ Bernoulli(expit(X' beta)) with ``beta_nonzero`` leading
  coefficients of magnitude ``beta_magnitude`` and alternating sign,
- potential event times from Weibull distributions with shape k and scale
  lambda0 for control, lambda0 * exp(X' gamma) for treated (gamma has
  ``gamma_nonzero`` leading entries equal to ``gamma_magnitude``),
- censoring C ~ Exponential with the rate calibrated on a 100k-draw pilot
  sample so the realized censoring fraction matches the target,
- observed Y = min(T, C), delta = 1(T <= C).

The estimates are scored against the exact E T1 - E T0 (``true_ate``), so a
dump's ``true_ate_mc_se`` is 0; older dumps of a 1M-draw truth still load.

Every replication gets its own counter-based random stream derived from
(seed, stream tag, replication index), so results do not depend on how the
replications are scheduled across workers. Reports aggregate bias, RMSE,
confidence interval coverage, failures and runtime per estimator.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache

import numpy as np

from .baselines import (
    _check_n_boot, _check_seed, fit_aipw, fit_cbps_unpenalized, fit_naive_ipw,
)
from .censoring import _check_floor, fit_censoring_km
from .data import Dataset
from .errors import ConfigError, DumpFormatError, InputError, SurvCbpsError
from .inference import _z_value, ate_with_ci
from .moments import _BLOCK_FLOATS, _check_clip, expit
from .solver import select_tau

SCHEMA_VERSION = 1

ESTIMATOR_ORDER = ("proposed", "naive_ipw", "cbps_unpenalized", "aipw")
# tag 3 is unused; _STREAM_EST keeps 4 so that no estimator seed moves
_STREAM_DATA, _STREAM_PILOT, _STREAM_EST = 1, 2, 4


@dataclass(frozen=True)
class SimConfig:
    n: int = 300
    p: int = 20
    covariance: str = "identity"
    ar_rho: float = 0.5
    beta_nonzero: int = 5
    beta_magnitude: float = 0.4
    gamma_nonzero: int = 5
    gamma_magnitude: float = 0.2
    lambda0: float = 2.0
    weibull_k: float = 1.5
    censor_target: float = 0.30
    replications: int = 100
    seed: int = 42
    estimators: tuple = ("proposed", "naive_ipw")
    clip: float = 0.01
    km_floor: float = 0.05
    level: float = 0.95
    n_boot: int = 200

    def __post_init__(self):
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.n < 20:
            raise ConfigError("n must be >= 20")
        if self.p < 1:
            raise ConfigError("p must be >= 1")
        if self.covariance not in ("identity", "ar"):
            raise ConfigError("covariance must be 'identity' or 'ar'")
        if not 0.0 < self.ar_rho < 1.0:
            raise ConfigError("ar_rho must lie in (0, 1)")
        if not 0 <= self.beta_nonzero <= self.p:
            raise ConfigError("beta_nonzero must lie in [0, p]")
        if not 0 <= self.gamma_nonzero <= self.p:
            raise ConfigError("gamma_nonzero must lie in [0, p]")
        if self.lambda0 <= 0 or self.weibull_k <= 0:
            raise ConfigError("lambda0 and weibull_k must be positive")
        if not 0.0 <= self.censor_target < 1.0:
            raise ConfigError("censor_target must lie in [0, 1)")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if not self.estimators:
            raise ConfigError("at least one estimator is required")
        for name in self.estimators:
            if name not in ESTIMATOR_ORDER:
                raise ConfigError(
                    f"unknown estimator {name!r}; known: {ESTIMATOR_ORDER}"
                )
        try:
            _check_clip(self.clip)
            _check_floor(self.km_floor)
            _z_value(self.level)
            _check_n_boot(self.n_boot)
            _check_seed(self.seed)
        except InputError as exc:
            raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class TruthRecord:
    """Per-replication latent quantities."""

    t1: np.ndarray
    t0: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    censor_rate: float

    @property
    def sample_ate(self) -> float:
        return float(np.mean(self.t1 - self.t0))


@dataclass(frozen=True)
class RepRecord:
    rep: int
    estimator: str
    estimate: float
    ci_low: float
    ci_high: float
    se: float
    runtime_ms: float
    error: str | None = None


@dataclass(frozen=True)
class EstimatorRow:
    estimator: str
    bias: float
    rmse: float
    coverage_pct: float
    n_fail: int
    mean_runtime_ms: float


@dataclass(frozen=True)
class SimReport:
    config: SimConfig
    true_ate: float
    true_ate_mc_se: float  # 0.0: the truth is exact
    rows: tuple
    replications: tuple = field(repr=False)

    @property
    def failure_flagged(self) -> bool:
        limit = 0.05 * self.config.replications
        return any(row.n_fail > limit for row in self.rows)

    def render_table(self) -> str:
        lines = [
            f"{'Method':<18}{'Bias':>10}{'RMSE':>10}{'Coverage (%)':>16}"
        ]
        for row in self.rows:
            lines.append(
                f"{row.estimator:<18}"
                f"{row.bias:>10.4f}"
                f"{row.rmse:>10.4f}"
                f"{row.coverage_pct:>16.1f}"
            )
        return "\n".join(lines)

    def report_csv_text(self) -> str:
        lines = ["estimator,bias,rmse,coverage_pct,n_fail"]
        for row in self.rows:
            lines.append(
                f"{row.estimator},{row.bias!r},{row.rmse!r},"
                f"{row.coverage_pct!r},{row.n_fail}"
            )
        return "\n".join(lines) + "\n"

    def timings_csv_text(self) -> str:
        lines = ["estimator,mean_runtime_ms"]
        for row in self.rows:
            lines.append(f"{row.estimator},{row.mean_runtime_ms!r}")
        return "\n".join(lines) + "\n"

    def to_dump(self) -> dict:
        cfg = asdict(self.config)
        cfg["estimators"] = list(self.config.estimators)
        return {
            "schema_version": SCHEMA_VERSION,
            "config": cfg,
            "true_ate": self.true_ate,
            "true_ate_mc_se": self.true_ate_mc_se,
            "rows": [asdict(r) for r in self.rows],
            "replications": [asdict(r) for r in self.replications],
        }

    @classmethod
    def from_dump(cls, doc: dict) -> "SimReport":
        if not isinstance(doc, dict):
            raise DumpFormatError("dump must be a JSON object")
        version = doc.get("schema_version")
        if version != SCHEMA_VERSION:
            raise DumpFormatError(
                f"unknown schema_version {version!r}; this build reads "
                f"{SCHEMA_VERSION}"
            )
        _check_json_types(cls, doc, "")
        reps = doc.get("replications")
        if not reps:
            raise DumpFormatError("dump has an empty replication list")
        config = doc.get("config")
        missing = [f.name for f in fields(SimConfig)
                   if not isinstance(config, dict) or f.name not in config]
        if missing:
            raise DumpFormatError(f"malformed dump: config lacks {', '.join(missing)}")
        _check_json_types(SimConfig, config, "config.")
        try:
            return cls(
                config=SimConfig(**config),
                true_ate=float(doc["true_ate"]),
                true_ate_mc_se=float(doc["true_ate_mc_se"]),
                rows=_records(EstimatorRow, doc["rows"], "rows"),
                replications=_records(RepRecord, reps, "replications"),
            )
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise DumpFormatError(f"malformed dump: {exc}") from None


# a dump field's JSON types, by its annotation: a number is an int or a
# float, never a bool
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,),
               "str | None": (str, type(None)), "tuple": (list,),
               "SimConfig": (dict,)}


def _check_json_types(cls, item, where):
    """DumpFormatError unless each field of cls in item has its JSON type."""
    for f in fields(cls):
        if f.name in item and type(item[f.name]) not in _JSON_TYPES[f.type]:
            raise DumpFormatError(
                f"malformed dump: {where}{f.name} must be {f.type}")


def _records(cls, items, where):
    """The records cls(**item) of a dump list, each field of its JSON type."""
    for k, item in enumerate(items):
        _check_json_types(cls, item, f"{where}[{k}].")
    return tuple(cls(**item) for item in items)


def build_beta(config: SimConfig) -> np.ndarray:
    beta = np.zeros(config.p)
    for j in range(config.beta_nonzero):
        beta[j] = config.beta_magnitude * (1.0 if j % 2 == 0 else -1.0)
    return beta


def build_gamma(config: SimConfig) -> np.ndarray:
    gamma = np.zeros(config.p)
    gamma[: config.gamma_nonzero] = config.gamma_magnitude
    return gamma


def covariance_matrix(config: SimConfig) -> np.ndarray:
    if config.covariance == "identity":
        return np.eye(config.p)
    idx = np.arange(config.p)
    return config.ar_rho ** np.abs(idx[:, None] - idx[None, :])


def _stream(config: SimConfig, tag: int, *extra) -> np.random.Generator:
    seq = np.random.SeedSequence((config.seed, tag, *extra))
    return np.random.Generator(np.random.Philox(seq))


def _chol(config: SimConfig):
    if config.covariance == "identity":
        return None
    return np.linalg.cholesky(covariance_matrix(config))


def _pilot_times(config: SimConfig) -> np.ndarray:
    """Observed-arm event times of the 100k-draw censoring-rate pilot.

    Each 20 000-draw chunk takes its draws in the order ``generate_dataset``
    does, but draws its normals in row blocks of about ``_BLOCK_FLOATS``
    floats and keeps only X'beta and X'gamma of each, so the working memory
    does not grow with p (a traced peak of 2.7 MB at p = 400, where a whole
    chunk of X took 130 MB). Blocks span a multiple of 8 rows, at least 64,
    the last taking the remainder: OpenBLAS groups rows in fours and routes
    products of few rows to other kernels, and either would change bits.
    The times then equal a one-shot draw's bit for bit, except possibly an
    ulp in a few rows under AR covariance when p is large and not a
    multiple of 8; the rate was unchanged wherever tried.
    """
    rng = _stream(config, _STREAM_PILOT)
    chol = _chol(config)
    beta, gamma = build_beta(config), build_gamma(config)
    chunk = 20_000
    rows = min(chunk, max(64, _BLOCK_FLOATS // config.p // 8 * 8))
    starts = range(0, chunk - rows + 1, rows)
    blocks = list(zip(starts, [*starts[1:], chunk]))
    times = np.empty(100_000)
    for start in range(0, times.shape[0], chunk):
        xb, xg = np.empty(chunk), np.empty(chunk)
        for lo, hi in blocks:
            z = rng.standard_normal((hi - lo, config.p))
            x = z if chol is None else z @ chol.T
            xb[lo:hi] = x @ beta
            xg[lo:hi] = x @ gamma
        d = rng.random(chunk) < expit(xb)
        w1 = rng.weibull(config.weibull_k, chunk)
        w0 = rng.weibull(config.weibull_k, chunk)
        t1 = config.lambda0 * np.exp(xg) * w1
        times[start:start + chunk] = np.where(d, t1, config.lambda0 * w0)
    return times


@lru_cache(maxsize=32)
def _censor_rate(config: SimConfig) -> float:
    """Exponential censoring rate hitting the target fraction (pilot run).

    The censored fraction f(r) = 1 - mean(exp(-r t)) is increasing and
    concave in r, so each Newton step on f(r) = target from r = 0 lands at
    or below the root: the iterates climb to it without a bracket, and stop
    once a step is lost in the rounding of r.
    """
    if config.censor_target == 0.0:
        return 0.0
    t = _pilot_times(config)
    rate = 0.0
    for _ in range(100):
        em1 = np.expm1(-rate * t)
        step = (config.censor_target + float(np.mean(em1))) / float(
            np.mean(t * (em1 + 1.0)))
        rate += step
        if step <= 4.0 * np.finfo(float).eps * rate:
            break
    return rate


def true_ate(config: SimConfig) -> float:
    """E T1 - E T0 = lambda0 Gamma(1 + 1/k) (exp(v / 2) - 1), v = gamma' S gamma.

    X enters the treated event time only through X' gamma ~ N(0, v), and the
    Weibull factor is independent of X. ConfigError unless the value is a
    finite float.
    """
    gamma = build_gamma(config)
    var_g = float(gamma @ covariance_matrix(config) @ gamma)
    try:
        value = config.lambda0 * math.gamma(1.0 + 1.0 / config.weibull_k) * (
            math.expm1(var_g / 2.0))
        if math.isfinite(value):
            return value
    except OverflowError:
        pass
    raise ConfigError("the design's true ATE is not a finite float; lower "
                      "gamma_magnitude or raise weibull_k")


def generate_dataset(config: SimConfig, rep_seed: int):
    """One replication: (Dataset, TruthRecord); InputError for a negative rep_seed."""
    _check_seed(rep_seed)
    rng = _stream(config, _STREAM_DATA, rep_seed)
    chol = _chol(config)
    beta, gamma = build_beta(config), build_gamma(config)
    z = rng.standard_normal((config.n, config.p))
    x = z if chol is None else z @ chol.T
    d = (rng.random(config.n) < expit(x @ beta)).astype(np.int8)
    w1 = rng.weibull(config.weibull_k, config.n)
    w0 = rng.weibull(config.weibull_k, config.n)
    t1 = config.lambda0 * np.exp(x @ gamma) * w1
    t0 = config.lambda0 * w0
    t_obs = np.where(d == 1, t1, t0)
    rate = _censor_rate(config)
    if rate > 0:
        c = rng.exponential(1.0 / rate, config.n)
    else:
        c = np.full(config.n, np.inf)
    y = np.minimum(t_obs, c)
    delta = (t_obs <= c).astype(np.int8)
    data = Dataset(y=y, delta=delta, d=d, x=x)
    truth = TruthRecord(t1=t1, t0=t0, beta=beta, gamma=gamma, censor_rate=rate)
    return data, truth


def _estimator_seed(config: SimConfig, rep: int, name: str) -> int:
    tag = ESTIMATOR_ORDER.index(name)
    seq = np.random.SeedSequence((config.seed, _STREAM_EST, rep, tag))
    return int(seq.generate_state(1)[0])


def _fit_one(name: str, config: SimConfig, data: Dataset, rep: int):
    k1 = fit_censoring_km(data, 1, floor=config.km_floor)
    k0 = fit_censoring_km(data, 0, floor=config.km_floor)
    if name == "proposed":
        _, fit = select_tau(data, k1, k0, clip=config.clip)
        return ate_with_ci(data, fit, k1, k0, level=config.level)
    if name == "cbps_unpenalized":
        return fit_cbps_unpenalized(
            data, k1, k0, clip=config.clip, level=config.level
        )
    bootstrapped = fit_naive_ipw if name == "naive_ipw" else fit_aipw
    return bootstrapped(
        data, k1, k0, clip=config.clip, level=config.level,
        n_boot=config.n_boot, seed=_estimator_seed(config, rep, name),
    )


def _run_rep(args) -> list:
    config, rep = args
    out = []
    try:
        data, _ = generate_dataset(config, rep)
        gen_error = None
    except SurvCbpsError as exc:
        data, gen_error = None, f"generation failed: {exc}"
    for name in ESTIMATOR_ORDER:
        if name not in config.estimators:
            continue
        if gen_error is not None:
            out.append(RepRecord(rep, name, math.nan, math.nan, math.nan,
                                 math.nan, 0.0, gen_error))
            continue
        start = time.perf_counter()
        try:
            res = _fit_one(name, config, data, rep)
            elapsed = (time.perf_counter() - start) * 1000.0
            bad = [key for key in ("ate", "se", "ci_low", "ci_high")
                   if not math.isfinite(getattr(res, key))]
            out.append(RepRecord(
                rep, name, res.ate, res.ci_low, res.ci_high, res.se, elapsed,
                f"non-finite {', '.join(bad)}" if bad else None,
            ))
        except (SurvCbpsError, np.linalg.LinAlgError) as exc:
            elapsed = (time.perf_counter() - start) * 1000.0
            out.append(RepRecord(rep, name, math.nan, math.nan, math.nan,
                                 math.nan, elapsed, str(exc)))
    return out


def _check_workers(workers):
    """Raise InputError unless at least one worker process is asked for."""
    if workers < 1:
        raise InputError("workers must be >= 1")


def run_study(config: SimConfig, workers: int = 1) -> SimReport:
    """Run all replications and aggregate; deterministic for any workers."""
    _check_workers(workers)
    delta_true = true_ate(config)
    tasks = [(config, rep) for rep in range(config.replications)]
    if workers == 1:
        per_rep = [_run_rep(t) for t in tasks]
    else:
        # imported here: `survcbps fit` and a one-worker study never load
        # the multiprocessing modules
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_rep = list(pool.map(_run_rep, tasks, chunksize=1))
    records = tuple(rec for group in per_rep for rec in group)

    rows = []
    for name in ESTIMATOR_ORDER:
        if name not in config.estimators:
            continue
        recs = [r for r in records if r.estimator == name]
        ok = [r for r in recs if r.error is None]
        n_fail = len(recs) - len(ok)
        if ok:
            est = np.array([r.estimate for r in ok])
            bias = float(est.mean() - delta_true)
            rmse = float(np.sqrt(np.mean((est - delta_true) ** 2)))
            covered = [
                1.0 if (r.ci_low <= delta_true <= r.ci_high) else 0.0
                for r in ok
            ]
            coverage = 100.0 * float(np.mean(covered))
            runtime = float(np.mean([r.runtime_ms for r in ok]))
        else:
            bias = rmse = coverage = runtime = math.nan
        rows.append(EstimatorRow(
            estimator=name, bias=bias, rmse=rmse, coverage_pct=coverage,
            n_fail=n_fail, mean_runtime_ms=runtime,
        ))
    return SimReport(
        config=config,
        true_ate=delta_true,
        true_ate_mc_se=0.0,
        rows=tuple(rows),
        replications=records,
    )


def parse_config_text(text: str, overrides: dict | None = None) -> SimConfig:
    """Flat ``key = value`` lines with # comments into a SimConfig.

    A key may appear once; overrides replace file values.
    """
    values = {}
    first = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in SimConfig.__dataclass_fields__:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in first:
            raise ConfigError(
                f"line {lineno}: repeated key {key!r} (first on line {first[key]})"
            )
        first[key] = lineno
        values[key] = _coerce_config_value(key, val, f"line {lineno}")
    if overrides:
        values.update(overrides)
    try:
        return SimConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def _coerce_config_value(key, val, where):
    """The typed value of text val for field key; where names its source."""
    field_obj = SimConfig.__dataclass_fields__[key]
    default = field_obj.default
    try:
        if key == "estimators":
            return tuple(s.strip() for s in val.split(",") if s.strip())
        if isinstance(default, int):
            return int(val)
        if isinstance(default, float):
            return float(val)
        return val
    except ValueError:
        raise ConfigError(f"{where}: bad value for {key}: {val!r}") from None


def load_config(path, overrides: dict | None = None) -> SimConfig:
    """The SimConfig of a ``key = value`` file; ConfigError if not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise ConfigError("config file is not UTF-8 text") from None
    return parse_config_text(text, overrides)


def load_dump(path) -> SimReport:
    """The SimReport stored in a dump.json; DumpFormatError if malformed."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # UnicodeDecodeError or json.JSONDecodeError
        raise DumpFormatError(f"not UTF-8 JSON text: {exc}") from None
    return SimReport.from_dump(doc)


def write_outputs(report: SimReport, out_dir) -> dict:
    """Write report.csv, timings.csv and dump.json; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "report": os.path.join(out_dir, "report.csv"),
        "timings": os.path.join(out_dir, "timings.csv"),
        "dump": os.path.join(out_dir, "dump.json"),
    }
    with open(paths["report"], "w", newline="") as fh:
        fh.write(report.report_csv_text())
    with open(paths["timings"], "w", newline="") as fh:
        fh.write(report.timings_csv_text())
    with open(paths["dump"], "w") as fh:
        json.dump(report.to_dump(), fh, indent=2)
        fh.write("\n")
    return paths

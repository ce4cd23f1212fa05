"""Command line interface.

Three subcommands:

``fit``       estimate the treatment effect on one CSV dataset
``simulate``  run a Monte Carlo study and write report.csv / timings.csv /
              dump.json into an output directory
``report``    re-render the summary table from a stored dump.json without
              recomputing anything

The commands only raise. ``main`` maps each failure to a JSON error object on
stdout and an exit code through one table, ``_FAILURES``: 2 for file, schema,
dump and config problems (a path that cannot be read or written, input that
is not UTF-8, a repeated CSV column, a malformed dump.json), 3 for convergence
failures, 4 for degenerate data (an arm empty or without uncensored records).
A non-converged fit or more than 5% failed replications also exits 3.

``fit`` makes one ``select_tau`` call: ``--tau X`` is the one-value grid
[X], so it writes the same JSON as ``--tau-grid X``; giving both is a config
error. The clip bound, the censoring floor, the level, the tau grid and the
``--out`` target are checked before the data are read.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

import numpy as np

from . import __version__
from .censoring import _check_floor, fit_censoring_km
from .data import parse_csv
from .errors import (
    ConfigError,
    DegenerateArmError,
    DumpFormatError,
    FitError,
    InputError,
    RowParseError,
    SchemaError,
    SingularMatrixError,
    SurvCbpsError,
)
from .inference import _z_value, ate_with_ci
from .moments import _check_clip
from .simulation import (
    SCHEMA_VERSION,
    SimConfig,
    _check_workers,
    _coerce_config_value,
    load_config,
    load_dump,
    run_study,
    write_outputs,
)
from .solver import _check_tau_grid, select_tau

# glibc's malloc raises its mmap threshold to the largest block freed so far,
# up to 32 MB, and gives free heap above twice that back to the OS. The
# solver's loop allocates and frees arrays of n x p floats, so unless a larger
# block was freed first, glibc trims that heap and faults it in again: 13 000
# to 25 000 page faults per (2000, 100) fit, 7% of its time. Setting the
# thresholds glibc reaches by itself after freeing a 32 MB block keeps the
# heap for reuse instead. (mallopt option numbers, from glibc's malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3

_EXIT_OK = 0
_EXIT_INPUT = 2
_EXIT_CONVERGENCE = 3
_EXIT_DEGENERATE = 4

# (exception types, error category, exit code) of every failure main reports
_FAILURES = (
    (OSError, "file", _EXIT_INPUT),
    ((SchemaError, RowParseError), "schema", _EXIT_INPUT),
    (DumpFormatError, "dump", _EXIT_INPUT),
    ((ConfigError, InputError), "config", _EXIT_INPUT),
    (DegenerateArmError, "degenerate", _EXIT_DEGENERATE),
    ((FitError, SingularMatrixError), "convergence", _EXIT_CONVERGENCE),
)


def _fail(category: str, exc: Exception, code: int) -> int:
    message = str(exc)
    if isinstance(exc, OSError) and exc.filename is not None:
        message = f"{exc.filename}: {exc.strerror or exc}"
    print(json.dumps({"error": {"category": category, "message": message}}))
    return code


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="survcbps",
        description=(
            "Treatment effect estimation for right-censored outcomes with "
            "covariate-balancing propensity scores"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="estimate the ATE from a CSV dataset")
    fit.add_argument("--data", required=True, help="input CSV path")
    fit.add_argument("--tau", type=float, default=None,
                     help="fixed penalty level, the same as a one-value grid")
    fit.add_argument("--tau-grid", default=None,
                     help="'auto' (default) or a comma-separated list of levels")
    fit.add_argument("--level", type=float, default=0.95)
    fit.add_argument("--out", default=None, help="output JSON path (default stdout)")
    fit.add_argument("--clip", type=float, default=0.01)
    fit.add_argument("--km-floor", type=float, default=0.05)

    sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    sim.add_argument("--config", default=None, help="flat key = value file")
    sim.add_argument("--out-dir", default="sim_out")
    sim.add_argument("--workers", type=int, default=1)
    # one flag per SimConfig field, coerced as its config-file line would be
    for key in SimConfig.__dataclass_fields__:
        sim.add_argument(_flag(key), dest=key, default=None)

    rep = sub.add_parser("report", help="re-render tables from a dump.json")
    rep.add_argument("--in", dest="infile", required=True)
    return parser


def _fit_doc(data, tau, fit, result) -> dict:
    names = list(data.covariate_names)
    active = [int(j) for j in fit.active_set]
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "fit",
        "n": data.n,
        "p": data.p,
        "tau": tau,
        "converged": bool(fit.converged),
        "active_set": active,
        "active_covariates": [names[j] for j in active],
        "beta": {names[j]: float(fit.beta_hat[j]) for j in active},
        "diagnostics": {
            "outer_iterations": int(fit.outer_iterations),
            "objective_final": float(fit.objective_trace[-1]),
            "inner_grad_norm": float(fit.dual.grad_norm),
            "inner_converged": bool(fit.dual.converged),
        },
        "result": result.to_dict(),
    }


def _emit(doc: dict, out_path) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _tau_grid(args):
    """The select_tau grid of --tau / --tau-grid; None for 'auto'."""
    if args.tau is not None:
        if args.tau_grid is not None:
            raise ConfigError("--tau fixes a one-value tau grid; give --tau "
                              "or --tau-grid, not both")
        return [args.tau]
    if args.tau_grid in (None, "auto"):
        return None
    try:
        return [float(s) for s in args.tau_grid.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"bad --tau-grid: {args.tau_grid!r}") from None


def _check_out_path(path) -> None:
    """The OSError that writing the fit JSON to path would raise, before any
    work; the file itself is neither created nor truncated."""
    if path is None:
        return
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not path or not os.path.exists(parent):
        code = errno.ENOENT
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR
    else:
        return
    raise OSError(code, os.strerror(code), path)


def cmd_fit(args) -> int:
    _check_clip(args.clip)
    _check_floor(args.km_floor)
    _z_value(args.level)
    grid = _tau_grid(args)
    if grid is not None:
        _check_tau_grid(grid)
    _check_out_path(args.out)
    data = parse_csv(args.data)
    k1 = fit_censoring_km(data, 1, floor=args.km_floor)
    k0 = fit_censoring_km(data, 0, floor=args.km_floor)
    tau, fit = select_tau(data, k1, k0, grid=grid, clip=args.clip)
    result = ate_with_ci(data, fit, k1, k0, level=args.level)
    _emit(_fit_doc(data, tau, fit, result), args.out)
    if not fit.converged:
        print("warning: propensity fit did not converge", file=sys.stderr)
        return _EXIT_CONVERGENCE
    return _EXIT_OK


def _simulate_config(args) -> SimConfig:
    """The study's SimConfig: --config lines, overridden by field flags."""
    overrides = {}
    for key in SimConfig.__dataclass_fields__:
        val = getattr(args, key)
        if val is None:
            continue
        if key == "seed" and val == "random":
            overrides[key] = int(np.random.SeedSequence().generate_state(1)[0])
        else:
            overrides[key] = _coerce_config_value(key, val, _flag(key))
    if args.config is not None:
        return load_config(args.config, overrides)
    return SimConfig(**overrides)


def cmd_simulate(args) -> int:
    config = _simulate_config(args)
    _check_workers(args.workers)
    os.makedirs(args.out_dir, exist_ok=True)
    report = run_study(config, workers=args.workers)
    paths = write_outputs(report, args.out_dir)
    print(report.render_table())
    print(
        f"wrote {paths['report']}, {paths['timings']}, {paths['dump']}",
        file=sys.stderr,
    )
    if report.failure_flagged:
        print("warning: more than 5% of replications failed", file=sys.stderr)
        return _EXIT_CONVERGENCE
    return _EXIT_OK


def cmd_report(args) -> int:
    print(load_dump(args.infile).render_table())
    return _EXIT_OK


def _keep_freed_heap() -> None:
    """Have glibc's malloc keep freed heap for reuse; a no-op off Linux."""
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = {"fit": cmd_fit, "simulate": cmd_simulate, "report": cmd_report}
    try:
        return command[args.command](args)
    except (OSError, SurvCbpsError) as exc:
        for types, category, code in _FAILURES:
            if isinstance(exc, types):
                return _fail(category, exc, code)
        raise


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""Observational survival dataset: container, validation, CSV round trip.

A dataset holds, for each subject, the follow-up time ``y`` (minimum of the
event time and the censoring time), the event indicator ``delta`` (1 when the
event was observed, 0 when censored), the binary treatment ``d`` and a row of
covariates ``x``. Columns are kept as numpy arrays.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateArmError, InputError, RowParseError, SchemaError

_DEFAULT_CORE = ("y", "delta", "d")


@dataclass(frozen=True)
class SummaryStats:
    n: int
    p: int
    treated_fraction: float
    censor_rate: float
    censor_rate_treated: float
    censor_rate_control: float


@dataclass(frozen=True)
class Dataset:
    """Validated right-censored observational sample.

    Invariants enforced at construction: all entries finite, ``y >= 0``,
    ``delta`` and ``d`` binary, both treatment arms present and each arm
    containing at least one uncensored (``delta == 1``) record, since the
    censoring survival curve and the censoring weights are degenerate
    otherwise.
    """

    y: np.ndarray
    delta: np.ndarray
    d: np.ndarray
    x: np.ndarray
    covariate_names: tuple = field(default=())

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        delta = np.asarray(self.delta)
        d = np.asarray(self.d)
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 2:
            raise InputError("x must be a 2-d array")
        n = y.shape[0]
        if n < 2:
            raise InputError("need at least two records")
        if not (delta.shape[0] == d.shape[0] == x.shape[0] == n):
            raise InputError("y, delta, d, x must have matching length")
        if not np.all(np.isfinite(y)) or np.any(y < 0):
            raise InputError("y must be finite and nonnegative")
        if not np.all(np.isfinite(x)):
            raise InputError("x must be finite")
        for name, arr in (("delta", delta), ("d", d)):
            vals = np.asarray(arr, dtype=float)
            if not np.all(np.isfinite(vals)) or not np.all(np.isin(vals, (0.0, 1.0))):
                raise InputError(f"{name} must contain only 0 or 1")
        delta = delta.astype(np.int8)
        d = d.astype(np.int8)
        names = tuple(self.covariate_names) or tuple(
            f"x{j + 1}" for j in range(x.shape[1])
        )
        if len(names) != x.shape[1]:
            raise InputError("covariate_names length must match x columns")
        for arm in (0, 1):
            mask = d == arm
            if not mask.any():
                raise DegenerateArmError(f"treatment arm d={arm} is empty")
            if not (delta[mask] == 1).any():
                raise DegenerateArmError(
                    f"treatment arm d={arm} has no uncensored (delta=1) record"
                )
        for key, val in (
            ("y", y), ("delta", delta), ("d", d), ("x", x),
            ("covariate_names", names),
        ):
            object.__setattr__(self, key, val)
        for arr in (y, delta, d, x):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


def summarize(data: Dataset) -> SummaryStats:
    """Sample size, dimension, treated fraction and censoring rates."""
    treated = data.d == 1
    cens = data.delta == 0
    return SummaryStats(
        n=data.n,
        p=data.p,
        treated_fraction=float(treated.mean()),
        censor_rate=float(cens.mean()),
        censor_rate_treated=float(cens[treated].mean()),
        censor_rate_control=float(cens[~treated].mean()),
    )


def _parse_cell(token: str, row: int, column: str) -> float:
    token = token.strip()
    if token == "":
        raise RowParseError(row, column, "empty cell")
    try:
        value = float(token)
    except ValueError:
        raise RowParseError(row, column, f"not a number: {token!r}") from None
    if math.isnan(value) or math.isinf(value):
        raise RowParseError(row, column, f"non-finite value: {token!r}")
    return value


def _resolve_schema(header, schema):
    """Map the logical columns onto header names.

    Default layout: columns named ``y``, ``delta``, ``d`` plus covariates
    ``x1..xp`` (matched by name, ordered by index). An explicit ``schema``
    dict with keys ``y``, ``delta``, ``d`` and ``x`` (list of column names)
    overrides the defaults.
    """
    if schema is None:
        core = {k: k for k in _DEFAULT_CORE}
        xcols = []
        for name in header:
            if name in _DEFAULT_CORE:
                continue
            if name.startswith("x") and name[1:].isdigit():
                xcols.append(name)
            else:
                raise SchemaError(
                    f"unexpected column {name!r}; expected y, delta, d, x1..xp"
                )
        xcols.sort(key=lambda s: int(s[1:]))
    else:
        missing_keys = {"y", "delta", "d", "x"} - set(schema)
        if missing_keys:
            raise SchemaError(f"schema is missing keys: {sorted(missing_keys)}")
        core = {k: schema[k] for k in _DEFAULT_CORE}
        xcols = list(schema["x"])
    for name in (*core.values(), *xcols):
        if name not in header:
            raise SchemaError(f"required column {name!r} not found in header")
    if not xcols:
        raise SchemaError("no covariate columns found")
    return core, xcols


def parse_csv(path, schema=None) -> Dataset:
    """Read a dataset from a CSV file with a header row.

    Raises SchemaError for missing/unknown columns, RowParseError (naming
    the 1-based data row and the column) for bad cells, DegenerateArmError
    for inputs on which the estimator is undefined.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file") from None
        header = [h.strip() for h in header]
        core, xcols = _resolve_schema(header, schema)
        idx = {name: header.index(name) for name in (*core.values(), *xcols)}
        rows_y, rows_delta, rows_d, rows_x = [], [], [], []
        for rownum, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise RowParseError(
                    rownum, "<row>", f"expected {len(header)} cells, got {len(row)}"
                )
            yv = _parse_cell(row[idx[core["y"]]], rownum, core["y"])
            if yv < 0:
                raise RowParseError(rownum, core["y"], f"negative time: {yv}")
            binvals = {}
            for logical in ("delta", "d"):
                col = core[logical]
                v = _parse_cell(row[idx[col]], rownum, col)
                if v not in (0.0, 1.0):
                    raise RowParseError(rownum, col, f"must be 0 or 1, got {v}")
                binvals[logical] = int(v)
            xv = [_parse_cell(row[idx[c]], rownum, c) for c in xcols]
            rows_y.append(yv)
            rows_delta.append(binvals["delta"])
            rows_d.append(binvals["d"])
            rows_x.append(xv)
    if len(rows_y) < 2:
        raise SchemaError("file contains fewer than two data rows")
    return Dataset(
        y=np.array(rows_y),
        delta=np.array(rows_delta),
        d=np.array(rows_d),
        x=np.array(rows_x),
        covariate_names=tuple(xcols),
    )


def write_csv(data: Dataset, path) -> None:
    """Inverse of parse_csv; floats written with full round-trip precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "delta", "d", *data.covariate_names])
        for i in range(data.n):
            writer.writerow(
                [
                    repr(float(data.y[i])),
                    int(data.delta[i]),
                    int(data.d[i]),
                    *(repr(float(v)) for v in data.x[i]),
                ]
            )

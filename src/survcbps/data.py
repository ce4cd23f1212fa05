"""Observational survival dataset: container, validation, CSV round trip.

A dataset holds, for each subject, the follow-up time ``y`` (minimum of the
event time and the censoring time), the event indicator ``delta`` (1 when the
event was observed, 0 when censored), the binary treatment ``d`` and a row of
covariates ``x``. Columns are kept as numpy arrays.
"""

from __future__ import annotations

import csv
import math
import operator
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


def _check_value(k: int, value: float, row: int, names) -> None:
    """The value rules of logical column k: y >= 0, delta and d in {0, 1}."""
    if k == 0 and value < 0:
        raise RowParseError(row, names[0], f"negative time: {value}")
    if k in (1, 2) and value not in (0.0, 1.0):
        raise RowParseError(row, names[k], f"must be 0 or 1, got {value}")


def _check_row(cells, row: int, names) -> list:
    """One row's values by the per-cell rules, in y, delta, d, x order.

    Raises RowParseError at the first bad cell.
    """
    values = []
    for k, (cell, name) in enumerate(zip(cells, names)):
        values.append(_parse_cell(cell, row, name))
        _check_value(k, values[-1], row, names)
    return values


def _check_values(rows, names) -> np.ndarray:
    """Finite rows of y, delta, d, x values as one array.

    Raises the RowParseError of the first row whose y is negative or whose
    delta or d is not 0/1.
    """
    values = np.array(rows, dtype=float).reshape(len(rows), len(names))
    ok = (values[:, 0] >= 0) & np.isin(values[:, 1:3], (0.0, 1.0)).all(axis=1)
    if not ok.all():
        bad = int(np.argmin(ok))
        for k, value in enumerate(values[bad, :3].tolist()):
            _check_value(k, value, bad + 1, names)
    return values


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

    Each row's cells are converted with float(), and the value rules are
    checked over the whole array at once. Only a row that fails to convert
    or holds a non-finite value goes through the per-cell rules, which name
    its first bad cell; any error is the one a cell-by-cell scan in
    row-major, y/delta/d/x order raises.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file") from None
        header = [h.strip() for h in header]
        core, xcols = _resolve_schema(header, schema)
        names = (core["y"], core["delta"], core["d"], *xcols)
        pick = operator.itemgetter(*(header.index(name) for name in names))
        rows = []
        for row in reader:
            if len(row) != len(header):
                _check_values(rows, names)
                raise RowParseError(
                    len(rows) + 1, "<row>",
                    f"expected {len(header)} cells, got {len(row)}",
                )
            cells = pick(row)
            try:
                converted = list(map(float, cells))
            except ValueError:
                converted = None
            # a nan or inf cell makes the sum non-finite; a sum that only
            # overflows sends a good row through the per-cell rules
            if converted is None or not math.isfinite(sum(converted)):
                try:
                    converted = _check_row(cells, len(rows) + 1, names)
                except RowParseError:
                    # a value rule broken in an earlier row comes first
                    _check_values(rows, names)
                    raise
            rows.append(converted)
    values = _check_values(rows, names)
    if values.shape[0] < 2:
        raise SchemaError("file contains fewer than two data rows")
    return Dataset(
        y=values[:, 0].copy(),
        delta=values[:, 1],
        d=values[:, 2],
        x=np.ascontiguousarray(values[:, 3:]),
        covariate_names=tuple(xcols),
    )


def write_csv(data: Dataset, path) -> None:
    """Inverse of parse_csv; floats written with full round-trip precision.

    csv writes a float as its repr, the shortest string that reads back to
    the same bits.
    """
    rows = zip(data.y.tolist(), data.delta.tolist(), data.d.tolist(), data.x)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "delta", "d", *data.covariate_names])
        writer.writerows([y, dl, d, *x.tolist()] for y, dl, d, x in rows)

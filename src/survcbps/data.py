"""Observational survival dataset: container, validation, CSV round trip.

A dataset holds, for each subject, the follow-up time ``y`` (minimum of the
event time and the censoring time), the event indicator ``delta`` (1 when the
event was observed, 0 when censored), the binary treatment ``d`` and a row of
covariates ``x``. Columns are kept as numpy arrays.

A CSV file's header names ``y``, ``delta``, ``d`` and ``x1..xp``, in any order.
A cell is a number when ``float`` reads it stripped, unless it holds ``_`` or a
non-ASCII character; nan and inf are rejected. A leading UTF-8 byte-order mark
is dropped. ``parse_csv`` hands the lines of the open file, past its header,
to one ``np.loadtxt`` call, which reads them one at a time, and counts them as
they are read, so a blank line, which loadtxt skips, is caught. A
cell-by-cell scan names the first bad cell. The file is read once and no copy
of its whole text is made: reading a (2000, 100) file peaks at about twice
the arrays it returns.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateArmError, InputError, RowParseError, SchemaError

_CORE = ("y", "delta", "d")


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


def _cell_value(token: str, row: int, k: int, name: str) -> float:
    """One cell of logical column k (y, delta, d, then x) by the per-cell rule."""
    token = token.strip()
    if token == "":
        raise RowParseError(row, name, "empty cell")
    try:
        # float() also reads '1_000' and non-ASCII digits; np.loadtxt does not
        if "_" in token or not token.isascii():
            raise ValueError
        value = float(token)
    except ValueError:
        raise RowParseError(row, name, f"not a number: {token!r}") from None
    if not math.isfinite(value):
        raise RowParseError(row, name, f"non-finite value: {token!r}")
    if k == 0 and value < 0:
        raise RowParseError(row, name, f"negative time: {value}")
    if k in (1, 2) and value not in (0.0, 1.0):
        raise RowParseError(row, name, f"must be 0 or 1, got {value}")
    return value


def _column_names(header) -> tuple:
    """The header's names in y, delta, d, x1..xp order; covariates exactly x1..xp."""
    for name, count in Counter(header).items():
        if count > 1:
            raise SchemaError(f"duplicate column {name!r}")
    xcols = [name for name in header if name not in _CORE]
    covariates = tuple(f"x{j}" for j in range(1, len(xcols) + 1))
    for name in xcols:
        if name not in covariates:
            raise SchemaError(
                f"unexpected column {name!r}; expected y, delta, d, x1..xp"
            )
    for name in _CORE:
        if name not in header:
            raise SchemaError(f"required column {name!r} not found in header")
    if not xcols:
        raise SchemaError("no covariate columns found")
    return (*_CORE, *covariates)


def _load(fh, width, cols):
    """The lines left in ``fh`` as rows of their ``cols`` cells, read by
    np.loadtxt.

    None when loadtxt fails, a line gives no row (blank, or in a quoted cell)
    or a value breaks a rule.
    """
    lines = 0

    def counted():
        nonlocal lines
        for line in fh:
            lines += 1
            yield line

    try:
        with warnings.catch_warnings():
            # loadtxt warns on input without data, which _scan then reads
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(counted(), delimiter=",", comments=None,
                                quotechar='"', ndmin=2)
    except ValueError:
        return None
    if values.shape != (lines, width):
        return None
    if cols != list(range(width)):
        values = values[:, cols]
    rules = (values[:, 0] >= 0).all() and np.isin(values[:, 1:3], (0.0, 1.0)).all()
    return values if rules and np.isfinite(values).all() else None


def _scan(path, width, cols, names) -> np.ndarray:
    """The rows of their ``cols`` cells, read one csv record and cell at a time.

    Raises the RowParseError of the first bad cell, in row-major order.
    """
    rows = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)
        for num, record in enumerate(reader, start=1):
            if len(record) != width:
                raise RowParseError(
                    num, "<row>", f"expected {width} cells, got {len(record)}"
                )
            rows.append([
                _cell_value(record[j], num, k, name)
                for k, (j, name) in enumerate(zip(cols, names))
            ])
    return np.array(rows, dtype=float)


def _header(fh) -> list:
    """The stripped cells of the header record of text handle ``fh``."""
    try:
        return [h.strip() for h in next(csv.reader(fh))]
    except StopIteration:
        raise SchemaError("empty file") from None


def parse_csv(path) -> Dataset:
    """Read a dataset from a CSV file with a header row.

    Raises SchemaError for a file that is not UTF-8 text, missing, unknown or
    repeated columns or fewer than two data rows, RowParseError (naming the
    1-based data row and the column) for a bad cell or a ragged row, and
    DegenerateArmError for inputs on which the estimator is undefined. When
    ``_load`` cannot vouch for the values, ``_scan`` raises the first bad
    cell's error, or returns the values if no cell is bad.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            header = _header(fh)
            names = _column_names(header)
            cols = [header.index(name) for name in names]
            values = _load(fh, len(header), cols)
        if values is None:
            values = _scan(path, len(header), cols, names)
    except UnicodeDecodeError:
        raise SchemaError("file is not UTF-8 text") from None
    if values.shape[0] < 2:
        raise SchemaError("file contains fewer than two data rows")
    return Dataset(
        y=values[:, 0].copy(), delta=values[:, 1], d=values[:, 2],
        x=np.ascontiguousarray(values[:, 3:]), covariate_names=names[3:],
    )


def write_csv(data: Dataset, path) -> None:
    """Inverse of parse_csv; floats written with full round-trip precision.

    The header is always ``y,delta,d,x1..xp``, the columns parse_csv
    requires, whatever ``covariate_names`` the dataset carries. A float is
    written as its repr, the shortest string that reads back to the same
    bits. Every line ends in CRLF, as ``csv.writer`` ends it.
    """
    header = ["y", "delta", "d", *(f"x{j}" for j in range(1, data.p + 1))]
    # x is converted and written a row at a time: data.x.tolist() or one
    # string of the whole file would raise the process's peak memory
    rows = zip(data.y.tolist(), data.delta.tolist(), data.d.tolist(), data.x)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(repr, (y, dl, d, *x.tolist()))) + "\r\n"
                      for y, dl, d, x in rows)

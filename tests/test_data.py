import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import survcbps as sc
from survcbps.data import summarize


def _valid_arrays():
    y = np.array([1.0, 2.0, 3.0, 0.5, 4.0, 2.5])
    delta = np.array([1, 0, 1, 1, 0, 1])
    d = np.array([1, 1, 0, 0, 1, 0])
    x = np.arange(12, dtype=float).reshape(6, 2)
    return y, delta, d, x


def test_dataset_basic_properties():
    y, delta, d, x = _valid_arrays()
    data = sc.Dataset(y=y, delta=delta, d=d, x=x)
    assert data.n == 6
    assert data.p == 2
    assert data.covariate_names == ("x1", "x2")


def test_dataset_arrays_are_read_only():
    y, delta, d, x = _valid_arrays()
    data = sc.Dataset(y=y, delta=delta, d=d, x=x)
    with pytest.raises(ValueError):
        data.y[0] = 9.0
    with pytest.raises(ValueError):
        data.x[0, 0] = 9.0


def test_dataset_rejects_bad_inputs():
    y, delta, d, x = _valid_arrays()
    with pytest.raises(sc.InputError):
        sc.Dataset(y=-y, delta=delta, d=d, x=x)
    with pytest.raises(sc.InputError):
        sc.Dataset(y=y, delta=delta + 1, d=d, x=x)
    bad_x = x.copy()
    bad_x[0, 0] = np.nan
    with pytest.raises(sc.InputError):
        sc.Dataset(y=y, delta=delta, d=d, x=bad_x)
    with pytest.raises(sc.InputError):
        sc.Dataset(y=y[:1], delta=delta[:1], d=d[:1], x=x[:1])


def test_dataset_rejects_degenerate_arms():
    y, delta, d, x = _valid_arrays()
    with pytest.raises(sc.DegenerateArmError):
        sc.Dataset(y=y, delta=delta, d=np.ones_like(d), x=x)
    # control arm present but fully censored
    delta2 = delta.copy()
    delta2[d == 0] = 0
    with pytest.raises(sc.DegenerateArmError):
        sc.Dataset(y=y, delta=delta2, d=d, x=x)


def test_summarize():
    y, delta, d, x = _valid_arrays()
    stats = summarize(sc.Dataset(y=y, delta=delta, d=d, x=x))
    assert stats.n == 6 and stats.p == 2
    assert stats.treated_fraction == pytest.approx(0.5)
    assert stats.censor_rate == pytest.approx(2 / 6)
    assert stats.censor_rate_treated == pytest.approx(2 / 3)
    assert stats.censor_rate_control == pytest.approx(0.0)


def test_csv_round_trip(tmp_path):
    y, delta, d, x = _valid_arrays()
    data = sc.Dataset(y=y, delta=delta, d=d, x=x)
    path = tmp_path / "rt.csv"
    sc.write_csv(data, path)
    back = sc.parse_csv(path)
    np.testing.assert_array_equal(back.y, data.y)
    np.testing.assert_array_equal(back.delta, data.delta)
    np.testing.assert_array_equal(back.d, data.d)
    np.testing.assert_array_equal(back.x, data.x)
    assert back.covariate_names == data.covariate_names


def test_csv_round_trip_with_own_covariate_names(tmp_path):
    _, delta, d, _ = _valid_arrays()
    rng = np.random.default_rng(6)
    y, x = rng.exponential(size=6), rng.standard_normal((6, 2)) / 3.0
    data = sc.Dataset(y=y, delta=delta, d=d, x=x, covariate_names=("age", "bmi"))
    path = tmp_path / "named.csv"
    sc.write_csv(data, path)
    back = sc.parse_csv(path)
    assert back.covariate_names == ("x1", "x2")
    for a, b in ((back.y, data.y), (back.x, data.x)):
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))
    np.testing.assert_array_equal(back.delta, data.delta)
    np.testing.assert_array_equal(back.d, data.d)


def test_parse_csv_column_order_independent(tmp_path):
    path = tmp_path / "shuffled.csv"
    path.write_text(
        "x2,d,y,x1,delta\n"
        "0.5,1,1.0,0.1,1\n"
        "0.6,0,2.0,0.2,1\n"
        "0.7,1,3.0,0.3,0\n"
        "0.8,0,4.0,0.4,1\n"
    )
    data = sc.parse_csv(path)
    np.testing.assert_allclose(data.y, [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(data.x[:, 0], [0.1, 0.2, 0.3, 0.4])
    np.testing.assert_allclose(data.x[:, 1], [0.5, 0.6, 0.7, 0.8])


def test_parse_csv_unknown_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,delta,d,age\n1.0,1,1,30\n2.0,1,0,40\n")
    with pytest.raises(sc.SchemaError):
        sc.parse_csv(path)
    # a digit that int() cannot read
    path.write_text("y,delta,d,x²\n1.0,1,1,30\n2.0,1,0,40\n")
    with pytest.raises(sc.SchemaError, match="x²"):
        sc.parse_csv(path)


@pytest.mark.parametrize("header, repeated", [
    ("y,delta,d,x1,x1", "x1"), ("y,delta,d,x1,y", "y"),
])
def test_parse_csv_repeated_column_is_a_schema_error(header, repeated, tmp_path):
    path = tmp_path / "repeated.csv"
    path.write_text(f"{header}\n1.0,1,1,0.2,5\n2.0,1,0,0.4,6\n")
    with pytest.raises(sc.SchemaError, match=f"duplicate column '{repeated}'"):
        sc.parse_csv(path)


@pytest.mark.parametrize("header, stray", [
    ("y,delta,d,x1,x01", "x01"), ("y,delta,d,x1,x3", "x3"),
])
def test_parse_csv_covariates_must_be_x1_to_xp(header, stray, tmp_path):
    path = tmp_path / "covariates.csv"
    path.write_text(f"{header}\n1.0,1,1,0.2,5\n2.0,1,0,0.4,6\n")
    with pytest.raises(sc.SchemaError, match=f"unexpected column '{stray}'"):
        sc.parse_csv(path)


def test_parse_csv_bad_cell_names_row_and_column(tmp_path):
    path = tmp_path / "cell.csv"
    rows = ["y,delta,d,x1"]
    for i in range(6):
        rows.append(f"{i + 1}.0,1,{i % 2},0.5")
    rows[5] = "oops,1,0,0.5"  # data row 5
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(sc.RowParseError) as exc:
        sc.parse_csv(path)
    assert exc.value.row == 5
    assert exc.value.column == "y"
    assert "5" in str(exc.value)


def test_parse_csv_rejects_negative_time_and_nonbinary(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("y,delta,d,x1\n-1.0,1,1,0.5\n2.0,1,0,0.3\n")
    with pytest.raises(sc.RowParseError):
        sc.parse_csv(path)
    path.write_text("y,delta,d,x1\n1.0,2,1,0.5\n2.0,1,0,0.3\n")
    with pytest.raises(sc.RowParseError):
        sc.parse_csv(path)


def test_parse_csv_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("y,delta,d,x1\n1.0,1,1,0.5\n2.0,1,0\n")
    with pytest.raises(sc.RowParseError) as exc:
        sc.parse_csv(path)
    assert exc.value.row == 2


def test_parse_csv_empty_and_tiny_files(tmp_path):
    """Empty, header-only and one-row files; no np.loadtxt warning escapes."""
    path = tmp_path / "tiny.csv"
    for text in ("", "y,delta,d,x1\n", "y,delta,d,x1", "y,delta,d,x1\n1.0,1,1,0.5\n"):
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sc.SchemaError):
                sc.parse_csv(path)


def test_parse_csv_non_utf8_is_a_schema_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"y,delta,d,x1\n1.0,1,1,0.\xff5\n2.0,1,0,0.3\n")
    with pytest.raises(sc.SchemaError, match="UTF-8"):
        sc.parse_csv(path)


def reference_parse_error(path):
    """(row, column, message) of the first bad cell, found one cell at a
    time in row-major order; None when every cell passes. The files here
    put their columns in y, delta, d, x order."""
    import csv

    def cell(token, row, column):
        token = token.strip()
        if token == "":
            return None, (row, column, "empty cell")
        try:
            if "_" in token or not token.isascii():
                raise ValueError
            value = float(token)
        except ValueError:
            return None, (row, column, f"not a number: {token!r}")
        if math.isnan(value) or math.isinf(value):
            return None, (row, column, f"non-finite value: {token!r}")
        return value, None

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        for rownum, row in enumerate(reader, start=1):
            if len(row) != len(header):
                return (rownum, "<row>",
                        f"expected {len(header)} cells, got {len(row)}")
            for column in header:
                value, error = cell(row[header.index(column)], rownum, column)
                if error:
                    return error
                if column == "y" and value < 0:
                    return rownum, column, f"negative time: {value}"
                if column in ("delta", "d") and value not in (0.0, 1.0):
                    return rownum, column, f"must be 0 or 1, got {value}"
    return None


# each fault as {column: token}; the header is y, delta, d, x1, x2, x3
BAD_CELLS = {
    "empty": {"x2": ""},
    "blank": {"d": "  "},
    "non_numeric": {"x1": "abc"},
    "hex": {"y": "0x1p3"},
    "nan": {"x3": "nan"},
    "inf": {"y": "inf"},
    "minus_inf": {"x1": "-Infinity"},
    "negative_time": {"y": "-1.5"},
    "non_binary": {"delta": "2"},
    "fractional_treatment": {"d": "0.5"},
    "two_faults": {"x1": "nan", "delta": "3"},
    "underscore": {"x2": "1_000"},
    "non_ascii": {"x1": "１２"},
    "ragged": None,
}


def _write_rows(path, faults, n=40):
    """n valid rows, then the given faults as {row: BAD_CELLS entry}.

    Row 20 is valid, but its values sum to inf.
    """
    header = ["y", "delta", "d", "x1", "x2", "x3"]
    lines = [",".join(header)]
    for i in range(1, n + 1):
        cells = {"y": f"{0.5 + i / 7:.6f}", "delta": "1" if i % 3 else "0",
                 "d": str(i % 2), "x1": f"{np.sin(i):.17g}",
                 "x2": " 1000", "x3": f"{-i / 3:.4e}"}
        if i == 20:
            cells.update(x1="1e308", x3="1.7e308")
        line = ",".join(cells[h] for h in header)
        if i in faults:
            if faults[i] is None:
                line = ",".join(cells[h] for h in header[:-1])
            else:
                cells.update(faults[i])
                line = ",".join(cells[h] for h in header)
        lines.append(line)
    path.write_text("\n".join(lines) + "\n")


def assert_reads_like_reference(path):
    """parse_csv raises the reference scan's error, or reads the file."""
    expected = reference_parse_error(path)
    if expected is None:
        return sc.parse_csv(path)
    with pytest.raises(sc.RowParseError) as exc:
        sc.parse_csv(path)
    row, column, message = expected
    assert (exc.value.row, exc.value.column) == (row, column)
    assert str(exc.value) == f"row {row}, column {column!r}: {message}"
    return None


@pytest.mark.parametrize("late", sorted(BAD_CELLS))
@pytest.mark.parametrize("early", [None, *sorted(BAD_CELLS)])
def test_parse_csv_error_matches_a_cell_by_cell_scan(tmp_path, early, late):
    faults = {38: BAD_CELLS[late]}
    if early is not None:
        faults[3] = BAD_CELLS[early]
    path = tmp_path / "bad.csv"
    _write_rows(path, faults)
    expected = reference_parse_error(path)
    assert expected is not None and expected[0] == (3 if early else 38)
    assert_reads_like_reference(path)


def test_parse_csv_blank_line_is_a_ragged_row(tmp_path):
    path = tmp_path / "blank.csv"
    _write_rows(path, {})
    lines = path.read_text().split("\n")
    lines.insert(21, "")
    path.write_text("\n".join(lines))
    assert reference_parse_error(path) == (21, "<row>", "expected 6 cells, got 0")
    assert_reads_like_reference(path)


@pytest.mark.parametrize(
    "cell", ['"0.25"', '" 0.25 "', '"0.25\n"', '"0.25\r\n"', '"0.2""5"', '"0,25"'],
)
def test_parse_csv_quoted_cell(tmp_path, cell):
    path = tmp_path / "quoted.csv"
    _write_rows(path, {5: {"x1": cell}})
    data = assert_reads_like_reference(path)
    if data is not None:
        assert data.n == 40 and data.x[4, 0] == 0.25


# number-like cell tokens; none holds a delimiter, a quote or a line break
NUMBER_LIKE = st.one_of(
    st.sampled_from(["0", "1", " 1.0 ", "1e0", "-0", "+1", "2", "0_1", "１", "\xa01"]),
    st.floats().map(repr),
    st.text(alphabet="0123456789.eE+-_ \tnaifINF\xa0１", max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(tokens=st.tuples(NUMBER_LIKE, NUMBER_LIKE, NUMBER_LIKE, NUMBER_LIKE))
def test_parse_csv_reads_a_row_exactly_when_the_reference_does(
    tmp_path_factory, tokens
):
    path = tmp_path_factory.getbasetemp() / "one_row.csv"
    path.write_text("y,delta,d,x1\n" + ",".join(tokens) + "\n1,1,1,0\n2,1,0,0\n")
    data = assert_reads_like_reference(path)
    if data is not None:
        row = [data.y[0], data.delta[0], data.d[0], data.x[0, 0]]
        assert row == [float(t) for t in tokens]


def test_parse_csv_reads_what_float_reads(tmp_path):
    path = tmp_path / "good.csv"
    _write_rows(path, {})
    assert reference_parse_error(path) is None
    data = sc.parse_csv(path)
    assert data.n == 40 and data.p == 3
    np.testing.assert_array_equal(data.x[:, 1], 1000.0)
    x1 = np.sin(np.arange(1, 41))
    x1[19] = 1e308
    np.testing.assert_array_equal(data.x[:, 0], x1)
    assert data.x[19, 2] == 1.7e308
    assert data.x.flags["C_CONTIGUOUS"] and data.y.flags["C_CONTIGUOUS"]


def assert_same_dataset(a, b):
    """Equal arrays, bit for bit, and equal covariate names."""
    for key in ("y", "delta", "d", "x"):
        np.testing.assert_array_equal(getattr(a, key).view(np.uint8),
                                      getattr(b, key).view(np.uint8))
    assert a.covariate_names == b.covariate_names


@pytest.mark.parametrize("faults", [{}, {7: {"x2": "abc"}}], ids=["good", "bad_cell"])
def test_parse_csv_reads_a_byte_order_mark_copy_alike(tmp_path, faults):
    """Excel's "CSV UTF-8" files start with a byte-order mark."""
    path, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    _write_rows(path, faults)
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    if faults:
        with pytest.raises(sc.RowParseError) as plain_exc:
            sc.parse_csv(path)
        with pytest.raises(sc.RowParseError) as bom_exc:
            sc.parse_csv(bom)
        assert str(bom_exc.value) == str(plain_exc.value)
    else:
        assert_same_dataset(sc.parse_csv(bom), sc.parse_csv(path))


@pytest.mark.parametrize("ending", ["\r", "\r\n"])
def test_parse_csv_reads_other_line_endings_alike(tmp_path, ending):
    path, other = tmp_path / "lf.csv", tmp_path / "other.csv"
    _write_rows(path, {})
    other.write_bytes(path.read_bytes().replace(b"\n", ending.encode()))
    assert_same_dataset(sc.parse_csv(other), sc.parse_csv(path))


def test_parse_csv_reads_a_last_line_without_newline(tmp_path):
    path, cut = tmp_path / "lf.csv", tmp_path / "cut.csv"
    _write_rows(path, {})
    cut.write_bytes(path.read_bytes().rstrip(b"\n"))
    data = sc.parse_csv(cut)
    assert data.n == 40
    assert_same_dataset(data, sc.parse_csv(path))


def test_parse_csv_blank_line_at_the_end_is_a_ragged_row(tmp_path):
    path = tmp_path / "blank_end.csv"
    _write_rows(path, {})
    path.write_text(path.read_text() + "\n")
    assert reference_parse_error(path) == (41, "<row>", "expected 6 cells, got 0")
    assert_reads_like_reference(path)


@pytest.mark.parametrize("text", ["y,delta,d,x1\n", "y,delta,d,x1", "y,delta,d,x1\r\n"])
def test_parse_csv_header_only_file_emits_no_warning(tmp_path, text):
    path = tmp_path / "header.csv"
    path.write_text(text, newline="")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(sc.SchemaError, match="fewer than two data rows"):
            sc.parse_csv(path)
    assert caught == []


def _write_large(path, n=6000, p=10, seed=3):
    """A valid CSV of about 1 MB from a seeded draw; returns its dataset."""
    rng = np.random.default_rng(seed)
    data = sc.Dataset(y=rng.exponential(size=n), delta=np.arange(n) % 3 > 0,
                      d=np.arange(n) % 2, x=rng.standard_normal((n, p)))
    sc.write_csv(data, path)
    return data


def test_parse_csv_non_utf8_byte_deep_in_a_large_file_is_a_schema_error(
    tmp_path, capsys
):
    """The bad byte sits on data row 5000, far past the first block read."""
    from survcbps.cli import main

    path = tmp_path / "large.csv"
    _write_large(path)
    lines = path.read_bytes().split(b"\r\n")
    assert sum(map(len, lines[:5000])) > 1 << 20
    lines[5000] = lines[5000].replace(b".", b".\xff", 1)
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(sc.SchemaError, match="UTF-8"):
        sc.parse_csv(path)
    assert main(["fit", "--data", str(path)]) == 2
    assert '"category": "schema"' in capsys.readouterr().out


def test_parse_csv_peak_memory_is_a_few_times_its_arrays(tmp_path):
    """The file's text is never held whole: reading a (2000, 100) CSV of
    about 4 MB peaks at no more than 3 times the arrays returned."""
    import tracemalloc

    path = tmp_path / "wide.csv"
    _write_large(path, n=2000, p=100)
    tracemalloc.start()
    try:
        data = sc.parse_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(getattr(data, key).nbytes for key in ("y", "delta", "d", "x"))
    assert path.stat().st_size > 2 * arrays
    assert peak <= 3 * arrays

def test_write_csv_bytes_match_a_per_cell_repr(tmp_path):
    tiny = np.nextafter(0.0, 1.0)
    y = np.array([0.0, -0.0, tiny, 1e308, 2.2250738585072014e-308 / 3, 0.1])
    delta = np.array([1, 0, 1, 1, 0, 1])
    d = np.array([1, 1, 0, 0, 1, 0])
    x = np.array([
        [-0.0, 1e308, -1e308],
        [tiny, -tiny, 1 / 3],
        [5e-324, 1e-320, 123456789.123456789],
        [-1.5, 2.0, 1e-7],
        [np.pi, -np.e, 1e16],
        [0.0, 1e22, -2.5e-310],
    ])
    data = sc.Dataset(y=y, delta=delta, d=d, x=x)
    path = tmp_path / "out.csv"
    sc.write_csv(data, path)
    lines = ["y,delta,d,x1,x2,x3"]
    for i in range(data.n):
        cells = [repr(float(data.y[i])), str(int(data.delta[i])),
                 str(int(data.d[i])), *(repr(float(v)) for v in data.x[i])]
        lines.append(",".join(cells))
    assert path.read_bytes() == ("\r\n".join(lines) + "\r\n").encode()
    back = sc.parse_csv(path)
    for a, b in ((back.y, data.y), (back.x, data.x)):
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))

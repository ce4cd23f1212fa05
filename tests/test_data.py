import numpy as np
import pytest

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


def test_parse_csv_explicit_schema(tmp_path):
    path = tmp_path / "named.csv"
    path.write_text(
        "time,event,treat,age,bmi\n"
        "1.0,1,1,30,22\n"
        "2.0,1,0,40,25\n"
        "3.0,0,1,50,27\n"
        "4.0,1,0,60,24\n"
    )
    schema = {"y": "time", "delta": "event", "d": "treat", "x": ["age", "bmi"]}
    data = sc.parse_csv(path, schema=schema)
    assert data.covariate_names == ("age", "bmi")
    np.testing.assert_allclose(data.x[:, 0], [30, 40, 50, 60])


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
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(sc.SchemaError):
        sc.parse_csv(path)
    path.write_text("y,delta,d,x1\n1.0,1,1,0.5\n")
    with pytest.raises(sc.SchemaError):
        sc.parse_csv(path)

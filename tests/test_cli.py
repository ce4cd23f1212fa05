import errno
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import survcbps as sc
from survcbps import cli
from survcbps.cli import _build_parser, _simulate_config, main
from survcbps.simulation import SimConfig, parse_config_text
from tests.conftest import (
    BAD_CLIPS,
    BAD_FLOORS,
    BAD_LEVELS,
    BAD_WORKERS,
    SPOILED_DUMPS,
    small_dataset,
    small_dump,
)


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data.csv"
    sc.write_csv(small_dataset(seed=19, n=120, p=3), path)
    return str(path)


def test_fit_happy_path(data_csv, capsys):
    code = main(["fit", "--data", data_csv])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "fit"
    assert doc["n"] == 120 and doc["p"] == 3
    assert doc["converged"] is True
    assert len(doc["active_set"]) <= 3
    res = doc["result"]
    assert res["ci_low"] <= res["ate"] <= res["ci_high"]
    assert res["se"] > 0


def test_fit_writes_out_file(data_csv, tmp_path, capsys):
    out_path = tmp_path / "fit.json"
    code = main(["fit", "--data", data_csv, "--out", str(out_path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out_path.read_text())
    assert doc["result"]["ate"] == pytest.approx(
        doc["result"]["mu1"] - doc["result"]["mu0"]
    )


def test_fit_repeated_runs_identical(data_csv, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert main(["fit", "--data", data_csv, "--out", str(p)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_fit_evaluates_the_censoring_curves_once_per_stage(
    data_csv, monkeypatch, capsys
):
    """One evaluation of each curve in select_tau and one in ate_with_ci."""
    calls = []
    real = sc.CensorSurvival.evaluate

    def counted(self, u):
        calls.append(self)
        return real(self, u)

    monkeypatch.setattr(sc.CensorSurvival, "evaluate", counted)
    data = sc.parse_csv(data_csv)
    k1, k0 = sc.fit_censoring_km(data, 1), sc.fit_censoring_km(data, 0)
    _, fit = sc.select_tau(data, k1, k0)
    calls.clear()
    sc.ate_with_ci(data, fit, k1, k0)
    assert len(calls) == 2
    calls.clear()
    assert main(["fit", "--data", data_csv]) == 0
    assert len(calls) == 4


def test_fit_fixed_tau_and_grid(data_csv, tmp_path, capsys):
    code = main(["fit", "--data", data_csv, "--tau", "0.08"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["tau"] == 0.08
    # a fixed tau is the one-value grid
    paths = [tmp_path / "tau.json", tmp_path / "grid.json"]
    for flag, path in zip(("--tau", "--tau-grid"), paths):
        assert main(["fit", "--data", data_csv, flag, "0.08",
                     "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    code = main(["fit", "--data", data_csv, "--tau-grid", "0.05,0.1,0.2"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["tau"] in (0.05, 0.1, 0.2)
    code = main(["fit", "--data", data_csv, "--tau-grid", "a,b"])
    assert code == 2


def test_fit_missing_file(capsys):
    code = main(["fit", "--data", "/nonexistent/nothing.csv"])
    err_doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert err_doc["error"]["category"] == "file"


def test_fit_schema_error_cites_row(tmp_path, capsys):
    path = tmp_path / "broken.csv"
    rows = ["y,delta,d,x1"]
    for i in range(8):
        rows.append(f"{i + 1}.0,1,{i % 2},0.3")
    rows[5] = "not_a_number,1,0,0.3"  # data row 5
    path.write_text("\n".join(rows) + "\n")
    code = main(["fit", "--data", str(path)])
    err_doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert err_doc["error"]["category"] == "schema"
    assert "row 5" in err_doc["error"]["message"]


def test_fit_degenerate_data(tmp_path, capsys):
    path = tmp_path / "onearm.csv"
    path.write_text(
        "y,delta,d,x1\n"
        "1.0,1,1,0.2\n"
        "2.0,1,1,0.4\n"
        "3.0,0,1,0.1\n"
    )
    code = main(["fit", "--data", str(path)])
    err_doc = json.loads(capsys.readouterr().out)
    assert code == 4
    assert err_doc["error"]["category"] == "degenerate"


@pytest.mark.parametrize("argv", (
    [[f"--clip={c}"] for c in BAD_CLIPS] + [[f"--level={v}"] for v in BAD_LEVELS]
    + [[f"--km-floor={f}"] for f in BAD_FLOORS]
))
def test_fit_bad_clip_or_level_fails_before_reading_data(
    argv, data_csv, capsys, monkeypatch
):
    def never(path):
        raise AssertionError("the data were read")

    monkeypatch.setattr(cli, "parse_csv", never)
    assert main(["fit", "--data", data_csv, *argv]) == 2
    err_doc = json.loads(capsys.readouterr().out)
    assert err_doc["error"]["category"] == "config"


@pytest.mark.parametrize("argv", [["--tau", "inf"], ["--tau-grid", "nan"],
                                  ["--tau-grid", ","],
                                  ["--tau", "0.1", "--tau-grid", "0.2"],
                                  ["--tau", "0.1", "--tau-grid", "auto"]])
def test_fit_bad_tau_grid_fails_before_reading_data(argv, tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert main(["fit", "--data", str(missing), *argv]) == 2
    err_doc = json.loads(capsys.readouterr().out)
    assert err_doc["error"]["category"] == "config"
    assert "tau grid" in err_doc["error"]["message"]


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["fit"]) == 2
    capsys.readouterr()


def test_simulate_and_report_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "study"
    code = main([
        "simulate", "--n", "100", "--p", "3", "--beta-nonzero", "2",
        "--gamma-nonzero", "2", "--replications", "3", "--n-boot", "25",
        "--estimators", "proposed,naive_ipw", "--out-dir", str(out_dir),
    ])
    captured = capsys.readouterr()
    assert code == 0
    table_from_simulate = captured.out
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "timings.csv").exists()
    assert (out_dir / "dump.json").exists()

    code = main(["report", "--in", str(out_dir / "dump.json")])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == table_from_simulate


def test_simulate_with_config_file(tmp_path, capsys):
    conf = tmp_path / "study.conf"
    conf.write_text(
        "n = 100\np = 3\nbeta_nonzero = 2\ngamma_nonzero = 2\n"
        "replications = 2\nestimators = proposed\n"
    )
    out_dir = tmp_path / "out"
    code = main([
        "simulate", "--config", str(conf), "--out-dir", str(out_dir),
        "--replications", "3",  # inline flag wins over the file
    ])
    capsys.readouterr()
    assert code == 0
    doc = json.loads((out_dir / "dump.json").read_text())
    assert doc["config"]["replications"] == 3
    assert doc["config"]["n"] == 100


def test_simulate_bad_config(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("banana = 5\n")
    code = main(["simulate", "--config", str(conf)])
    err_doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert err_doc["error"]["category"] == "config"
    assert main(["simulate", "--config", "/missing.conf"]) == 2
    capsys.readouterr()
    assert main(["simulate", "--workers", "0"]) == 2
    capsys.readouterr()


def test_simulate_config_with_a_repeated_key(tmp_path, capsys):
    conf = tmp_path / "twice.conf"
    conf.write_text("n = 300\nreplications = 2\nn = 50\n")
    code = main(["simulate", "--config", str(conf)])
    err_doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert err_doc["error"]["category"] == "config"
    assert "line 3: repeated key 'n' (first on line 1)" in err_doc["error"]["message"]


@pytest.mark.parametrize("argv", [["--gamma-magnitude", "20"],
                                  ["--weibull-k", "0.005"]])
def test_simulate_non_finite_truth_is_a_config_error(
    argv, tmp_path, capsys, monkeypatch
):
    def never(task):
        raise AssertionError("a replication started")

    monkeypatch.setattr(sc.simulation, "_run_rep", never)
    assert main(["simulate", *argv, "--out-dir", str(tmp_path / "out")]) == 2
    err_doc = json.loads(capsys.readouterr().out)
    assert err_doc["error"]["category"] == "config"
    assert "true ATE is not a finite float" in err_doc["error"]["message"]


# a valid, non-default text value for every SimConfig field
SIM_FIELD_TEXT = {
    "n": "150", "p": "7", "covariance": "ar", "ar_rho": "0.3",
    "beta_nonzero": "2", "beta_magnitude": "0.5", "gamma_nonzero": "3",
    "gamma_magnitude": "0.1", "lambda0": "1.5", "weibull_k": "2.0",
    "censor_target": "0.4", "replications": "7", "seed": "9",
    "estimators": "proposed, aipw", "clip": "0.02", "km_floor": "0.1",
    "level": "0.9", "n_boot": "50",
}


def _config_from_flags(*argv):
    return _simulate_config(_build_parser().parse_args(["simulate", *argv]))


def test_simulate_flag_equals_config_line_for_every_field():
    assert set(SIM_FIELD_TEXT) == set(SimConfig.__dataclass_fields__)
    default = SimConfig()
    for key, text in SIM_FIELD_TEXT.items():
        flag = "--" + key.replace("_", "-")
        by_flag = _config_from_flags(flag, text)
        assert by_flag == parse_config_text(f"{key} = {text}")
        assert getattr(by_flag, key) != getattr(default, key)
    argv = []
    for key, text in SIM_FIELD_TEXT.items():
        argv += ["--" + key.replace("_", "-"), text]
    lines = "".join(f"{key} = {text}\n" for key, text in SIM_FIELD_TEXT.items())
    assert _config_from_flags(*argv) == parse_config_text(lines)


@pytest.mark.parametrize("argv", [
    ["--covariance", "bogus"], ["--n", "1.5"], ["--ar-rho", "half"],
    ["--seed", "soon"], ["--estimators", "proposed,mystery"],
])
def test_simulate_bad_flag_value_is_a_config_error(argv, capsys):
    assert main(["simulate", *argv]) == 2
    err_doc = json.loads(capsys.readouterr().out)
    assert err_doc["error"]["category"] == "config"


def test_report_errors(tmp_path, capsys):
    assert main(["report", "--in", "/missing/dump.json"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["report", "--in", str(bad)]) == 2
    err_doc = json.loads(capsys.readouterr().out)
    assert err_doc["error"]["category"] == "dump"
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"schema_version": 42}))
    assert main(["report", "--in", str(wrong)]) == 2
    capsys.readouterr()


# one input file per subcommand, each with a 0xff byte, and its error category
NON_UTF8 = {
    "fit": ("--data", b"y,delta,d,x1\n1.0,1,1,0.\xff2\n2.0,1,0,0.4\n", "schema"),
    "report": ("--in", b'{"schema_version": "\xff"}\n', "dump"),
    "simulate": ("--config", b"n = 1\xff0\n", "config"),
}


def _never(*args, **kwargs):
    raise AssertionError("the study ran")


@pytest.mark.parametrize("unreadable", ["directory", "non_utf8"])
@pytest.mark.parametrize("command", sorted(NON_UTF8))
def test_unreadable_input_is_a_typed_failure(
    command, unreadable, tmp_path, capsys, monkeypatch
):
    flag, content, category = NON_UTF8[command]
    path = tmp_path / "input"
    if unreadable == "directory":
        path.mkdir()
        category = "file"
    else:
        path.write_bytes(content)
    monkeypatch.setattr(cli, "run_study", _never)
    assert main([command, flag, str(path)]) == 2
    err_doc = json.loads(capsys.readouterr().out)
    assert err_doc["error"]["category"] == category


def test_unwritable_output_is_a_typed_failure(
    data_csv, tmp_path, capsys, monkeypatch
):
    taken = tmp_path / "taken"
    taken.write_text("")
    monkeypatch.setattr(cli, "run_study", _never)
    argv = ["--n", "60", "--p", "5", "--replications", "3", "--out-dir", str(taken)]
    assert main(["simulate", *argv]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["category"] == "file"
    assert main(["fit", "--data", data_csv, "--out", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["category"] == "file"


@pytest.mark.parametrize("target", ["directory", "missing_parent", "file_parent", "empty"])
def test_fit_out_that_cannot_be_written_fails_before_the_fit(
    target, data_csv, tmp_path, capsys, monkeypatch
):
    def never(*args, **kwargs):
        raise AssertionError("the fit ran")

    monkeypatch.setattr(cli, "select_tau", never)
    (tmp_path / "file").write_text("kept")
    out = {"directory": tmp_path, "missing_parent": tmp_path / "missing" / "fit.json",
           "file_parent": tmp_path / "file" / "fit.json", "empty": ""}[target]
    assert main(["fit", "--data", data_csv, "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["category"] == "file"
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert (tmp_path / "file").read_text() == "kept"


def test_fit_out_check_leaves_an_existing_file_alone(data_csv, tmp_path, monkeypatch):
    out = tmp_path / "fit.json"
    out.write_text("kept")

    def stop(*args, **kwargs):
        raise sc.FitError("stopped after the out check")

    monkeypatch.setattr(cli, "select_tau", stop)
    assert main(["fit", "--data", data_csv, "--out", str(out)]) == 3
    assert out.read_text() == "kept"


def test_simulate_with_no_finite_interval_counts_failures(tmp_path, capsys):
    argv = ["simulate", "--n", "60", "--p", "5", "--replications", "3",
            "--estimators", "naive_ipw", "--n-boot", "5",
            "--out-dir", str(tmp_path)]
    assert main(argv) == 3
    capsys.readouterr()
    report = sc.load_dump(tmp_path / "dump.json")
    assert report.rows[0].n_fail == 3
    assert math.isnan(report.rows[0].coverage_pct)
    assert all(r.error == "non-finite se, ci_low, ci_high"
               for r in report.replications)


def test_unwritable_study_output_is_a_typed_failure(tmp_path, capsys):
    (tmp_path / "report.csv").mkdir()
    argv = ["--n", "60", "--p", "5", "--replications", "2",
            "--estimators", "proposed", "--out-dir", str(tmp_path)]
    assert main(["simulate", *argv]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["category"] == "file"


def test_report_on_a_malformed_dump_is_a_dump_error(tmp_path, capsys):
    path = tmp_path / "dump.json"
    for spoil in SPOILED_DUMPS.values():
        doc = small_dump()
        spoil(doc)
        path.write_text(json.dumps(doc))
        assert main(["report", "--in", str(path)]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["category"] == "dump"


@pytest.mark.parametrize("workers", BAD_WORKERS)
def test_simulate_bad_workers_fails_before_making_the_out_dir(
    workers, tmp_path, capsys, monkeypatch
):
    out_dir = tmp_path / "sim_out"
    monkeypatch.setattr(cli, "run_study", _never)
    argv = ["simulate", "--workers", str(workers), "--out-dir", str(out_dir)]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out)["error"]["category"] == "config"
    assert not out_dir.exists()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize(
    "exc_type", [OSError, *_subclasses(sc.SurvCbpsError)], ids=lambda t: t.__name__
)
def test_every_failure_type_has_one_row_in_the_table(exc_type, capsys, monkeypatch):
    rows = [row for row in cli._FAILURES if issubclass(exc_type, row[0])]
    assert len(rows) == 1
    _, category, code = rows[0]
    args = {
        sc.RowParseError: (3, "x1", "not a number"),
        sc.InfeasibleBalanceError: (np.full(4, 0.5),),
    }.get(exc_type, ("boom",))
    exc = exc_type(*args)

    def raise_it(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_report", raise_it)
    assert main(["report", "--in", "dump.json"]) == code
    err_doc = json.loads(capsys.readouterr().out)
    assert err_doc["error"] == {"category": category, "message": str(exc)}


def test_file_error_names_the_file(tmp_path, capsys):
    path = tmp_path / "missing.json"
    assert main(["report", "--in", str(path)]) == 2
    message = json.loads(capsys.readouterr().out)["error"]["message"]
    assert message == f"{path}: {os.strerror(errno.ENOENT)}"


def test_version_flag(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == sc.__version__


def test_importing_the_cli_loads_neither_scipy_special_nor_optimize():
    """`survcbps fit` and `report` start without the two slowest scipy parts."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, survcbps.cli; "
            "print([m for m in ('scipy.special', 'scipy.optimize') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_multiprocessing_module():
    """Only a study with more than one worker needs the process pool."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, survcbps.cli; print([m for m in sys.modules "
            "if m == 'multiprocessing' or m.startswith('multiprocessing.')])")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_a_second_fit_reuses_the_freed_heap(tmp_path):
    """Without the kept heap, glibc trims and re-faults the solver's arrays:
    a second (2000, 100) fit in one process took 13 000+ page faults."""
    data = tmp_path / "wide.csv"
    sc.write_csv(sc.generate_dataset(SimConfig(n=2000, p=100, seed=1), 0)[0], data)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import resource, sys; from survcbps import cli; "
            "argv = ['fit', '--data', sys.argv[1], '--out', sys.argv[2]]; "
            "assert cli.main(argv) == 0; "
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt; "
            "assert cli.main(argv) == 0; "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
    proc = subprocess.run([sys.executable, "-c", code, str(data), str(tmp_path / "fit.json")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert int(proc.stdout.strip().splitlines()[-1]) < 2000

def test_fit_and_report_run_without_loading_scipy(tmp_path):
    """`survcbps fit` and `report` load no scipy module, at import or at work."""
    data, out, dump = tmp_path / "data.csv", tmp_path / "fit.json", tmp_path / "dump.json"
    sc.write_csv(small_dataset(seed=23, n=200, p=10), data)
    dump.write_text(json.dumps(small_dump()))
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import json, sys; from survcbps import cli; "
            "codes = [cli.main(['fit', '--data', sys.argv[1], '--out', sys.argv[2]]), "
            "cli.main(['report', '--in', sys.argv[3]])]; "
            "print(json.dumps([codes, sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.'))]))")
    proc = subprocess.run([sys.executable, "-c", code, str(data), str(out), str(dump)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [[0, 0], []]
    assert json.loads(out.read_text())["command"] == "fit"


def test_fit_simulate_and_report_run_with_scipy_blocked(tmp_path):
    """numpy is the only runtime dependency: with every scipy import made to
    fail, `survcbps fit`, `simulate` and `report` each exit 0."""
    data, out, dump = tmp_path / "data.csv", tmp_path / "fit.json", tmp_path / "dump.json"
    sc.write_csv(small_dataset(seed=23, n=200, p=10), data)
    dump.write_text(json.dumps(small_dump()))
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import json, sys; sys.modules['scipy'] = None; "
            "from survcbps import cli; "
            "codes = [cli.main(['fit', '--data', sys.argv[1], '--out', sys.argv[2]]), "
            "cli.main(['simulate', '--n', '60', '--p', '5', '--replications', '2', "
            "'--estimators', 'naive_ipw', '--n-boot', '20', '--out-dir', sys.argv[4]]), "
            "cli.main(['report', '--in', sys.argv[3]])]; "
            "print(json.dumps([codes, sorted(m for m in sys.modules "
            "if m.startswith('scipy.'))]))")
    argv = [str(data), str(out), str(dump), str(tmp_path / "sim_out")]
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [[0, 0, 0], []]
    assert json.loads(out.read_text())["command"] == "fit"
    assert (tmp_path / "sim_out" / "dump.json").is_file()

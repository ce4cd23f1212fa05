"""Benchmark of the survcbps estimator pipeline, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Workloads (closed loops with one caller in one process; see bench/README.md):

    fit_wide_csv   `survcbps fit` on seeded CSV files at (n, p) = (2000, 100)
    boot_large_n   `survcbps simulate` at n = 5000, p = 10 with the two
                   bootstrap baselines, workers 1

The package is driven only through `survcbps.cli.main` and the library; all
inputs are generated from --seed. With --trace 0 the last stdout line holds
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced pass. --smoke runs both workloads at a tiny size, traced and
untraced, in a few seconds.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy loads, so a run uses one core.
THREAD_CAPS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

WORKLOADS = {
    "fit_wide_csv": {"kind": "fit", "n": 2000, "p": 100, "files": 8},
    "boot_large_n": {"kind": "study", "conf": "boot_large_n.conf", "flags": []},
}
SMOKE = {
    "fit_wide_csv": {"n": 200, "p": 10, "files": 2},
    "boot_large_n": {"flags": ["--n", "300", "--p", "5", "--n-boot", "30"]},
}
SETUP_REPEATS = 3
# Fresh interpreters that import the package, for the import share of setup_s.
IMPORT_REPEATS = 3
DEGENERATE = re.compile(r"(\d+) of \d+ bootstrap resamples were degenerate")


class Run:
    """State of one benchmark run: workload spec, seed and work directory."""

    def __init__(self, spec, seed, work):
        self.spec = spec
        self.seed = seed
        self.work = work
        self.inputs = []
        self.estimators = ()


# ---------------------------------------------------------------- set-up


def import_package():
    """Import survcbps from this checkout's src/; exit 2 when it is absent."""
    init = SRC / "survcbps" / "__init__.py"
    if not init.is_file():
        print(f"error: {init.relative_to(ROOT)} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import survcbps
    import survcbps.cli

    if Path(survcbps.__file__).resolve() != init.resolve():
        print(f"error: imported survcbps from {survcbps.__file__}, not from "
              "this checkout", file=sys.stderr)
        sys.exit(2)
    return survcbps


def prepare(run, sc, target):
    """Write the workload's inputs into target; returns the input list."""
    target.mkdir(parents=True)
    if run.spec["kind"] == "study":
        conf = BENCH / run.spec["conf"]
        config = sc.load_config(conf)
        run.estimators = config.estimators
        return [conf]
    config = sc.SimConfig(n=run.spec["n"], p=run.spec["p"], seed=run.seed)
    paths = []
    for k in range(run.spec["files"]):
        data, _ = sc.generate_dataset(config, k)
        path = target / f"data{k}.csv"
        sc.write_csv(data, path)
        paths.append(path)
    run.estimators = ("proposed",)
    return paths


def import_seconds():
    """Median seconds to import survcbps.cli, over IMPORT_REPEATS fresh
    interpreters; each is waited for, and killed if it outlives 60 s."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import survcbps.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                             capture_output=True, text=True, check=True,
                             timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def set_up(run, sc):
    """Prepare inputs SETUP_REPEATS times; returns the median seconds."""
    times = []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        run.inputs = prepare(run, sc, run.work / f"setup{k}")
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ------------------------------------------------------------ work units


def check_estimate(rec):
    """Problem with a returned estimate, or None when it passes."""
    ate, se, lo, hi = rec["ate"], rec["se"], rec["ci_low"], rec["ci_high"]
    values = (ate, se, lo, hi)
    if not all(isinstance(v, float) and math.isfinite(v) for v in values):
        return f"{rec['key']}: non-finite estimate {values}"
    if not lo <= ate <= hi:
        return f"{rec['key']}: ate {ate} outside [{lo}, {hi}]"
    if not se > 0:
        return f"{rec['key']}: se {se} is not positive"
    return None


def quiet_call(call, argv):
    """call(argv) with the CLI's stdout/stderr captured, not printed."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return call(argv)


def fit_unit(run, k, call):
    """One `survcbps fit` analysis of input file k mod (number of files)."""
    path = run.inputs[k % len(run.inputs)]
    out = run.work / "fit.json"
    out.unlink(missing_ok=True)
    rec = {"key": f"analysis{k}:{path.name}", "estimator": "proposed",
           "ate": math.nan, "se": math.nan, "ci_low": math.nan,
           "ci_high": math.nan, "error": None}
    unit = {"records": [rec], "problems": [], "reps": 1}
    t0 = time.perf_counter()
    try:
        code = quiet_call(call, ["fit", "--data", str(path), "--out", str(out)])
    except Exception:
        traceback.print_exc()
        code = None
    unit["wall_s"] = time.perf_counter() - t0
    rec["runtime_ms"] = unit["wall_s"] * 1000.0
    if code not in (0, 3):
        rec["error"] = f"fit exited with {code}"
        return unit
    doc = json.loads(out.read_text())
    missing = [key for key in ("tau", "active_set", "result") if key not in doc]
    if missing:
        unit["problems"].append(f"{rec['key']}: fit JSON lacks {missing}")
        rec["error"] = "incomplete fit JSON"
        return unit
    for key in ("ate", "se", "ci_low", "ci_high"):
        rec[key] = doc["result"][key]
    problem = check_estimate(rec)
    if problem:
        unit["problems"].append(problem)
        rec["error"] = problem
    return unit


def study_unit(run, k, call):
    """One `survcbps simulate` study of one replication, in this process."""
    reps = 1
    out = run.work / f"study{k}"
    argv = ["simulate", "--config", str(run.inputs[0]), *run.spec["flags"],
            "--replications", str(reps), "--seed", str(run.seed * 1000 + k),
            "--workers", "1", "--out-dir", str(out)]
    unit = {"records": [], "problems": [], "reps": reps}
    t0 = time.perf_counter()
    try:
        code = quiet_call(call, argv)
    except Exception:
        traceback.print_exc()
        code = None
    unit["wall_s"] = time.perf_counter() - t0
    expected = [(rep, name) for rep in range(reps) for name in run.estimators]
    if code not in (0, 3):
        unit["records"] = [
            {"key": f"study{k}:rep{rep}:{name}", "estimator": name,
             "ate": math.nan, "se": math.nan, "ci_low": math.nan,
             "ci_high": math.nan, "runtime_ms": 0.0,
             "error": f"simulate exited with {code}"}
            for rep, name in expected
        ]
        return unit
    dump = json.loads((out / "dump.json").read_text())
    rows = [row["estimator"] for row in dump["rows"]]
    if sorted(rows) != sorted(run.estimators):
        unit["problems"].append(f"study{k}: report rows {rows}, expected one "
                                f"per estimator {list(run.estimators)}")
    seen = [(r["rep"], r["estimator"]) for r in dump["replications"]]
    if sorted(seen) != sorted(expected):
        unit["problems"].append(f"study{k}: replication records do not match "
                                f"{reps} x {list(run.estimators)}")
    for r in dump["replications"]:
        rec = {"key": f"study{k}:rep{r['rep']}:{r['estimator']}",
               "estimator": r["estimator"], "ate": r["estimate"],
               "se": r["se"], "ci_low": r["ci_low"], "ci_high": r["ci_high"],
               "runtime_ms": r["runtime_ms"], "error": r["error"]}
        if rec["error"] is None:
            problem = check_estimate(rec)
            if problem:
                unit["problems"].append(problem)
                rec["error"] = problem
        unit["records"].append(rec)
    shutil.rmtree(out)
    return unit


def clear_caches():
    """Empty the package's in-process caches (true_ate, the censoring-rate
    pilot), so every pass pays what a fresh `survcbps` process pays."""
    for name, module in list(sys.modules.items()):
        if name.startswith("survcbps"):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def unit_runner(run):
    return fit_unit if run.spec["kind"] == "fit" else study_unit


def measure(run, call, seconds):
    """Closed loop: as many units as bring the elapsed time closest to
    `seconds`, and at least one."""
    do_unit = unit_runner(run)
    clear_caches()
    done = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if done and elapsed + elapsed / len(done) / 2 >= seconds:
            break
        done.append(do_unit(run, len(done), call))
    return done


def paired_passes(run, sc, tr, units):
    """Units 0..units-1 again in one process, each untraced and traced back
    to back, the order alternating, so host speed drift falls on both alike."""
    do_unit = unit_runner(run)
    untraced, traced = [], []
    for k in range(units):
        for tracing in ((False, True) if k % 2 == 0 else (True, False)):
            clear_caches()
            if not tracing:
                untraced.append(do_unit(run, k, sc.cli.main))
                continue
            try:
                traced.append(do_unit(run, k, traced_call(run, tr)))
            finally:
                tr.close()
    return untraced, traced


# --------------------------------------------------------------- metrics


def records_of(units):
    return [rec for unit in units for rec in unit["records"]]


def rep_seconds(units):
    """Seconds of estimator work per replication (per analysis for fit)."""
    per_rep = {}
    for rec in records_of(units):
        key = rec["key"].rsplit(":", 1)[0]
        per_rep[key] = per_rep.get(key, 0.0) + rec["runtime_ms"] / 1e3
    return list(per_rep.values())


def end_to_end(run, units, prepare_s):
    recs = records_of(units)
    failed = sum(rec["error"] is not None for rec in recs)
    reps = sum(unit["reps"] for unit in units)
    wall = sum(unit["wall_s"] for unit in units)
    per_rep = rep_seconds(units)
    metrics = {
        "setup_s": import_seconds() + prepare_s,
        "fit_s_p50": statistics.median(per_rep),
        "reps_per_s": reps / wall,
        "success_frac": (len(recs) - failed) / len(recs),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"fit_s_p50": f"median of {len(per_rep)} "
                          f"{'analyses' if run.spec['kind'] == 'fit' else 'replications'}",
             "reps_per_s": f"{reps} over {wall:.2f} s"}
    return metrics, notes, len(recs), failed


def pct(values, q):
    """q-th percentile (q in 1..99) of values; the value itself for one sample."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(run, tr, ref, untraced, traced):
    """Per-layer figures per unit of work: one analysis, or one replication."""
    totals = tr.totals()
    c = tr.counters
    u = sum(unit["reps"] for unit in traced)

    def calls(name):
        return totals[name][0] if name in totals else 0

    def ms(name):
        return totals[name][1] / 1e6 if name in totals else 0.0

    def self_ms(*names):
        return sum(totals[n][2] for n in names if n in totals) / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    inner_calls = calls("solver.inner_dual")
    studies = sum(1 for name in tr.names if name == "simulation.run_study")
    m = {
        "solver.select_tau.calls": calls("solver.select_tau") / u,
        "solver.select_tau.ms": ms("solver.select_tau") / u,
        "solver.fit_pel.calls": calls("solver.fit_pel") / u,
        "solver.fit_pel.ms": ms("solver.fit_pel") / u,
        "solver.fit_pel.failed": c["solver.fit_pel.raised"] / u,
        "solver.fit_pel.not_converged": c["solver.fit_pel.not_converged"] / u,
        "solver.outer_steps": c["solver.outer_steps"] / u,
        "solver.inner_dual.calls": inner_calls / u,
        "solver.inner_dual.ms": ms("solver.inner_dual") / u,
        "solver.inner_dual.ms_per_call": ratio(ms("solver.inner_dual"), inner_calls),
        "solver.inner_dual.newton_iters": c["solver.inner_dual.newton_iters"] / u,
        "solver.inner_dual.not_converged": c["solver.inner_dual.not_converged"] / u,
        "solver.self_ms": self_ms("solver.select_tau", "solver.fit_pel") / u,
        "solver.outer_steps_per_inner_call": ratio(c["solver.outer_steps"], inner_calls),
        "solver.newton_per_inner_call":
            ratio(c["solver.inner_dual.newton_iters"], inner_calls),
        "moments.gmat_builds": inner_calls / u,
        "moments.gmat_bytes_computed": c["moments.gmat_bytes"] / u,
        "moments.stack_g.calls": calls("moments.stack_g") / u,
        "moments.stack_g.ms": ms("moments.stack_g") / u,
        "moments.jacobian_g.calls": calls("moments.jacobian_g") / u,
        "moments.jacobian_g.ms": ms("moments.jacobian_g") / u,
        "censoring.fit.calls": calls("censoring.fit") / u,
        "censoring.fit.ms": ms("censoring.fit") / u,
        "censoring.fit.ms_per_call": ratio(ms("censoring.fit"), calls("censoring.fit")),
        "censoring.evaluate.calls": calls("censoring.evaluate") / u,
        "censoring.evaluate.ms": ms("censoring.evaluate") / u,
        "baselines.fit_naive_ipw.calls": calls("baselines.fit_naive_ipw") / u,
        "baselines.fit_naive_ipw.ms": ms("baselines.fit_naive_ipw") / u,
        "baselines.fit_aipw.calls": calls("baselines.fit_aipw") / u,
        "baselines.fit_aipw.ms": ms("baselines.fit_aipw") / u,
        "baselines.self_ms":
            self_ms("baselines.fit_naive_ipw", "baselines.fit_aipw") / u,
        "baselines.boot_refits": tr.children_of("baselines.", "censoring.fit") / u,
        "baselines.boot_degenerate": c["baselines.boot_degenerate"] / u,
        "data.parse_csv.ms": ms("data.parse_csv") / u,
        "data.parse_csv.bytes": c["data.parse_csv.bytes"] / u,
        "cli.fit.self_ms": self_ms("cli.fit") / u,
        "inference.ate_with_ci.calls": calls("inference.ate_with_ci") / u,
        "inference.ate_with_ci.ms": ms("inference.ate_with_ci") / u,
        "scad.calls": c["scad.calls"] / u,
        "simulation.generate_dataset.calls": calls("simulation.generate_dataset") / u,
        "simulation.generate_dataset.ms": ms("simulation.generate_dataset") / u,
        "simulation.setup_ms": ratio(self_ms("simulation.run_study"), studies),
    }
    study = run.spec["kind"] == "study"
    ref_recs = records_of(ref) if study else []
    for name in ("naive_ipw", "aipw"):
        times = [r["runtime_ms"] for r in ref_recs
                 if r["estimator"] == name and r["error"] is None]
        m[f"simulation.{name}.rep_ms_p50"] = pct(times, 50)
        m[f"simulation.{name}.rep_ms_p90"] = pct(times, 90)
    busy = sum(r["runtime_ms"] for r in ref_recs) / 1e3
    m["simulation.worker_busy_frac"] = ratio(
        busy, sum(unit["wall_s"] for unit in ref)) if study else 0.0
    m["trace.overhead_pct"] = 100.0 * (
        sum(rep_seconds(traced)) / sum(rep_seconds(untraced)) - 1.0)
    m["trace.units"] = u
    return m


def mismatches(ref, traced):
    """Keys whose ATE or SE differ in any bit between the two passes."""
    def bits(units):
        return {rec["key"]: (float(rec["ate"]).hex(), float(rec["se"]).hex())
                for rec in records_of(units)}

    a, b = bits(ref), bits(traced)
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


# ----------------------------------------------------------------- trace


def traced_call(run, tr):
    """Patch the package's call-time names; returns the CLI entry to call."""
    from survcbps import censoring, cli, inference, simulation, solver

    def inner_done(t, args, state):
        t.counters["solver.inner_dual.newton_iters"] += state.iterations
        t.counters["solver.inner_dual.not_converged"] += not state.converged
        t.counters["moments.gmat_bytes"] += args[0].nbytes

    def fit_done(t, args, fit):
        t.counters["solver.outer_steps"] += fit.outer_iterations
        t.counters["solver.fit_pel.not_converged"] += not fit.converged

    def parse_done(t, args, data):
        t.counters["data.parse_csv.bytes"] += os.path.getsize(args[0])

    def baseline_done(t, args, res):
        for note in res.warnings:
            hit = DEGENERATE.match(note)
            if hit:
                t.counters["baselines.boot_degenerate"] += int(hit.group(1))

    tr.patch(solver, "solve_inner_dual", "solver.inner_dual", inner_done)
    tr.patch(solver, "fit_pel", "solver.fit_pel", fit_done)
    tr.count(solver, "scad_value", "scad.calls")
    tr.count(solver, "lqa_weight", "scad.calls")
    tr.patch(censoring.CensorSurvival, "fit", "censoring.fit")
    tr.patch(censoring.CensorSurvival, "evaluate", "censoring.evaluate")
    tr.patch(inference, "stack_g", "moments.stack_g")
    tr.patch(inference, "jacobian_g", "moments.jacobian_g")
    for module in (cli, simulation):
        tr.patch(module, "select_tau", "solver.select_tau")
        tr.patch(module, "ate_with_ci", "inference.ate_with_ci")
    tr.patch(cli, "parse_csv", "data.parse_csv", parse_done)
    tr.patch(cli, "run_study", "simulation.run_study")
    tr.patch(simulation, "generate_dataset", "simulation.generate_dataset")
    tr.patch(simulation, "fit_naive_ipw", "baselines.fit_naive_ipw", baseline_done)
    tr.patch(simulation, "fit_aipw", "baselines.fit_aipw", baseline_done)
    if run.spec["kind"] == "fit":
        return tr.wrap("cli.fit", cli.main)
    return cli.main


# ----------------------------------------------------------------- drive


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "survcbps").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_caps": THREAD_CAPS,
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def run_workload(name, spec, seed, seconds, trace, sc, out_root):
    """Set up, measure and check one workload; returns the result document."""
    work = out_root / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    run = Run(spec, seed, work)
    try:
        prepare_s = set_up(run, sc)
        if not trace:
            units = measure(run, sc.cli.main, seconds)
            metrics, notes, attempted, failed = end_to_end(run, units, prepare_s)
            problems = [p for unit in units for p in unit["problems"]]
            doc_units = units
        else:
            # A third of the run for the reference pass and two thirds for
            # the paired passes over the same units.
            ref = measure(run, sc.cli.main, seconds / 3)
            tr = Tracer()
            untraced, traced = paired_passes(run, sc, tr, len(ref))
            values = per_layer(run, tr, ref, untraced, traced)
            diff = sorted(set(mismatches(ref, untraced)) | set(mismatches(ref, traced)))
            values["trace.estimate_mismatches"] = len(diff)
            passes = [ref, untraced, traced]
            problems = [p for units in passes for unit in units
                        for p in unit["problems"]]
            problems += [f"{key}: estimate differs between passes"
                         for key in diff]
            metrics, notes = values, {}
            recs = [rec for units in passes for rec in records_of(units)]
            attempted = len(recs)
            failed = sum(rec["error"] is not None for rec in recs)
            traces = out_root / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            tr.write(traces / f"{name}-seed{seed}.json")
            doc_units = traced
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": not problems, "attempted": attempted, "failed": failed,
        "problems": problems, "metrics": metrics, "notes": notes,
        "unit_wall_s": [unit["wall_s"] for unit in doc_units],
        "rep_s": rep_seconds(doc_units),
        "estimates": {rec["key"]: [rec["ate"], rec["se"]]
                      for rec in records_of(doc_units)},
    }


def result_line(doc):
    """The one-line JSON result; metric names and units come from BENCHMARK.json."""
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in listed["per_layer" if doc["trace"] else "end_to_end"]}
    if set(units) != set(doc["metrics"]):
        raise RuntimeError(
            f"metrics {sorted(doc['metrics'])} do not match BENCHMARK.json "
            f"{sorted(units)}")
    return {"correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"],
            "metrics": {key: {"value": value, "unit": units[key]}
                        for key, value in doc["metrics"].items()}}


def print_metrics(doc, line):
    """One human-readable line per metric, then any failed check."""
    for key, metric in line["metrics"].items():
        note = doc["notes"].get(key)
        print(f"{doc['workload']:<14} {key:<40} {metric['value']:>14.6g} "
              f"{metric['unit']}" + (f"  ({note})" if note else ""))
    for problem in doc["problems"]:
        print(f"CHECK FAILED: {problem}")


def report(doc, env):
    """Human-readable lines, then the one-line JSON result last."""
    line = result_line(doc)
    print_metrics(doc, line)
    print("env: " + json.dumps(env, sort_keys=True))
    results = RUN_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{doc['workload']}-seed{doc['seed']}-trace{doc['trace']}.json"
    path.write_text(json.dumps({**doc, "env": env}, indent=1) + "\n")
    print(json.dumps(line))


def smoke(sc):
    """Every workload at a tiny size, untraced and traced."""
    shutil.rmtree(RUN_DIR / "smoke", ignore_errors=True)
    ok = True
    for name, spec in WORKLOADS.items():
        tiny = {**spec, **SMOKE[name]}
        for trace in (0, 1):
            doc = run_workload(name, tiny, 7, 1, trace, sc, RUN_DIR / "smoke")
            print_metrics(doc, result_line(doc))
            ok = ok and doc["correct"] and doc["failed"] == 0
            print(f"smoke {name:<14} trace={trace} correct={doc['correct']} "
                  f"attempted={doc['attempted']} failed={doc['failed']}")
    trace_files = sorted((RUN_DIR / "smoke" / "traces").glob("*.json"))
    for path in trace_files:
        spans = json.loads(path.read_text())["spans"]
        print(f"smoke trace {path.name}: {len(spans)} spans")
    ok = ok and len(trace_files) == len(WORKLOADS)
    print(json.dumps({"smoke": True, "correct": ok}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and exit")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    sc = import_package()
    if args.smoke:
        return smoke(sc)
    doc = run_workload(args.workload, WORKLOADS[args.workload], args.seed,
                       args.seconds, args.trace, sc, RUN_DIR)
    report(doc, environment(args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())

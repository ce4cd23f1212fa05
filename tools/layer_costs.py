"""Cost of the inner EL dual inside select_tau and ate_with_ci, per size.

    python3 tools/layer_costs.py [--src DIR] [--sizes 300x20,2000x100]
                                 [--seed 7] [--reps 0,1] [--passes 2]

For each n x p size and replication k, draws `SimConfig(n, p, seed)`
replication k, fits both censoring curves, and times `select_tau` and
`ate_with_ci` (the fastest of --passes passes is kept). `minflt` is the
most minor page faults (`ru_minflt`) of any timed `select_tau`, as a
library caller sees them: this tool never calls `cli.main`, so glibc's
malloc keeps its default trim and mmap thresholds. `traced_peak_mb` is
the tracemalloc peak of one more, untimed `select_tau`, above the data and
curves it is handed, in MiB. It counts the
inner dual calls, their Newton plus chord steps and their Hessians by
wrapping `solver.solve_inner_dual` and summing the returned state's
iterations and hessians, the outer curvature builds by wrapping
`solver._mean_jacobian`, which only the curvature build calls, and the
outer steps and the taus fitted (`fits`; the path stops early once no
later tau can win) by wrapping `solver.fit_pel`, summing its
outer_iterations and counting its calls. A failing path is reported
with its error and time.
--src picks the package tree, so two checkouts can be compared on one
machine; BLAS runs on one thread. Prints one JSON document.
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def wrap_counts(solver, counts):
    """Replace the solver's call-time names by counting wrappers; returns
    the function that puts the originals back."""
    names = ("solve_inner_dual", "_mean_jacobian", "fit_pel")
    real = {name: getattr(solver, name) for name in names}

    def dual(*args, **kwargs):
        state = real["solve_inner_dual"](*args, **kwargs)
        counts["inner_calls"] += 1
        counts["steps"] += state.iterations
        counts["hessians"] += state.hessians
        return state

    def curvature(*args):
        counts["curvatures"] += 1
        return real["_mean_jacobian"](*args)

    def fit(*args, **kwargs):
        result = real["fit_pel"](*args, **kwargs)
        counts["fits"] += 1
        counts["outer_steps"] += result.outer_iterations
        return result

    for name, wrapper in zip(names, (dual, curvature, fit)):
        setattr(solver, name, wrapper)

    def restore():
        for name, original in real.items():
            setattr(solver, name, original)

    return restore


def one_size(sc, solver, n, p, seed, rep, passes):
    data, _ = sc.generate_dataset(sc.SimConfig(n=n, p=p, seed=seed), rep)
    k1 = sc.fit_censoring_km(data, 1)
    k0 = sc.fit_censoring_km(data, 0)
    out = {"n": n, "p": p, "seed": seed, "rep": rep}
    tau_s, ate_s, faults = [], [], []
    for _ in range(passes):
        counts = {"hessians": 0, "inner_calls": 0, "steps": 0,
                  "curvatures": 0, "outer_steps": 0, "fits": 0}
        restore = wrap_counts(solver, counts)
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        try:
            tau, fit = solver.select_tau(data, k1, k0)
        except sc.SurvCbpsError as exc:
            out["error"] = f"{type(exc).__name__}: {exc}"
            continue
        finally:
            tau_s.append(time.perf_counter() - t0)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
            restore()
        t1 = time.perf_counter()
        res = sc.ate_with_ci(data, fit, k1, k0)
        ate_s.append(time.perf_counter() - t1)
        out.update(tau=tau, active_set=fit.active_set.tolist(),
                   converged=fit.converged, ate=res.ate, se=res.se)
    out.update(counts, select_tau_s=min(tau_s), minflt=max(faults),
               traced_peak_mb=traced_peak(sc, solver, data, k1, k0))
    if ate_s:
        out["ate_with_ci_s"] = min(ate_s)
    return out


def traced_peak(sc, solver, data, k1, k0):
    """tracemalloc peak, in MiB, of one select_tau above its inputs."""
    tracemalloc.start()
    try:
        solver.select_tau(data, k1, k0)
    except sc.SurvCbpsError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak / 2**20


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--sizes", default="300x20,2000x100")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--reps", default="0")
    parser.add_argument("--passes", type=int, default=2)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import survcbps as sc
    from survcbps import solver

    rows = []
    for size in args.sizes.split(","):
        n, p = (int(v) for v in size.split("x"))
        for rep in (int(v) for v in args.reps.split(",")):
            rows.append(one_size(sc, solver, n, p, args.seed, rep, args.passes))
    print(json.dumps({"src": args.src, "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

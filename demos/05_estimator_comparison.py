"""
Comparing estimators on a small Monte Carlo study
=================================================

Runs the proposed balanced-propensity estimator against a naive
logistic IPW fit and an augmented (doubly robust) variant on twenty
replications of a ten-covariate design, then prints the bias / RMSE /
coverage table. A serious comparison wants hundreds of replications;
see configs/benchmark.conf for the full setup.
"""

import survcbps as sc

cfg = sc.SimConfig(
    n=250,
    p=10,
    beta_nonzero=3,
    gamma_nonzero=3,
    replications=20,
    n_boot=60,
    seed=314,
    estimators=("proposed", "naive_ipw", "aipw"),
)

report = sc.run_study(cfg, workers=1)

print(f"true ATE {report.true_ate:.4f} (exact, no Monte Carlo error)")
print()
print(report.render_table())
print()
for row in report.rows:
    print(f"{row.estimator}: {row.n_fail} failures, "
          f"{row.mean_runtime_ms:.0f} ms per replication")

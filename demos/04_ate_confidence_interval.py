# Point estimate and confidence interval for the treatment effect.
#
# Full pipeline on one simulated sample: censoring curves, penalized
# propensity fit, weighted means, sandwich/delta standard error.

import numpy as np

import survcbps as sc

cfg = sc.SimConfig(n=500, p=10, beta_nonzero=3, replications=1, seed=11,
                   estimators=("proposed",))
data, truth = sc.generate_dataset(cfg, 0)
target = sc.true_ate(cfg)  # exact: lambda0 Gamma(1 + 1/k) (exp(g' S g / 2) - 1)

k1 = sc.fit_censoring_km(data, 1)
k0 = sc.fit_censoring_km(data, 0)
tau, fit = sc.select_tau(data, k1, k0)
res = sc.ate_with_ci(data, fit, k1, k0, level=0.95)

print(f"mean survival, treated:  {res.mu1:7.3f}")
print(f"mean survival, control:  {res.mu0:7.3f}")
print(f"ATE estimate:            {res.ate:7.3f}  (truth {target:.3f})")
print(f"standard error:          {res.se:7.3f}")
print(f"95% CI:                  [{res.ci_low:.3f}, {res.ci_high:.3f}]")
print(f"median difference:       {res.median_diff:7.3f}")
print(f"effective sample sizes:  {res.n_effective_1:.0f} treated, "
      f"{res.n_effective_0:.0f} control")
for note in res.warnings:
    print("note:", note)

covered = res.ci_low <= target <= res.ci_high
print("interval covers the truth:", covered)

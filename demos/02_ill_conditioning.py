"""
Why the unconstrained filter breaks
===================================

Two experiments on one ill-conditioned synthetic model:

1. the condition number of the input covariance explodes as the input
   window grows, and
2. a tiny relative perturbation of the covariances (standing in for
   estimation error) wrecks the unconstrained filter while the
   joint-eigenbasis truncation barely moves.
"""

import numpy as np

from wclmmse import (
    CovarianceModel,
    analytic_mse,
    geometric_spectrum,
    jpc,
    run_condition_report,
    synthetic_model,
    wiener,
)

n, m = 4, 256
model = synthetic_model(n, geometric_spectrum(n + m, 1.0, 0.91), seed=7)

# Condition number of the trailing k x k input covariance block as the
# effective window grows.
print("input-window size vs condition number:")
for k, cond in run_condition_report(model, [16, 64, 128, 256], n):
    print(f"  m={k:>4}  cond={cond:.3e}")

# Perturb every covariance entry by 1e-6 relative noise, the order of
# error a finite-sample estimate easily carries.
rng = np.random.default_rng(123)


def perturb(a):
    return a * (1.0 + 1e-6 * rng.standard_normal(a.shape))


c_y_p = perturb(model.c_y)
c_x_p = perturb(model.c_x)
perturbed = CovarianceModel(
    c_x=0.5 * (c_x_p + c_x_p.T),
    c_y=0.5 * (c_y_p + c_y_p.T),
    c_xy=perturb(model.c_xy),
)

# Evaluate every filter on the TRUE model: that is the error a deployed
# filter would actually incur.
mse_opt = analytic_mse(model, wiener(model))
mse_wiener_noisy = analytic_mse(model, wiener(perturbed))
print(f"\nunconstrained filter: clean mse {mse_opt:.3e}"
      f" -> noisy-covariance mse {mse_wiener_noisy:.3e}"
      f"  (x{mse_wiener_noisy / mse_opt:.1e})")

l = 32
jpc_clean = analytic_mse(model, jpc(model, l))
jpc_noisy = analytic_mse(model, jpc(perturbed, l))
print(f"jpc at l={l}:          clean mse {jpc_clean:.3e}"
      f" -> noisy-covariance mse {jpc_noisy:.3e}"
      f"  (excess x{(jpc_noisy - mse_opt) / (jpc_clean - mse_opt):.3f})")

print("\nthe truncated filter only ever inverts an l x l matrix whose"
      "\neigenvalues sit at the top of the spectrum, far above the noise.")

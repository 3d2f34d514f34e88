"""
Tour of the filter family
=========================

Build one synthetic covariance model and construct every estimator the
library offers, comparing their closed-form mean square errors and the
size of the largest matrix each one had to invert.
"""

import numpy as np

from wclmmse import (
    analytic_mse,
    csw,
    geometric_spectrum,
    jpc,
    jpc_simplified,
    lrw,
    lsjpc,
    lsjpc_simplified,
    synthetic_model,
    wiener,
)

# A model with 4 target coordinates, 32 input coordinates, and a joint
# spectrum that decays geometrically. The random eigenbasis is seeded,
# so every run of this script prints the same numbers.
n, m, l = 4, 32, 8
model = synthetic_model(n, geometric_spectrum(n + m, scale=1.0, ratio=0.8), seed=42)

print(f"model: n={n}, m={m}, truncation level l={l}")
print(f"{'filter':<18} {'analytic mse':>14} {'largest inverse':>16}")

# The unconstrained optimum is the floor every other filter is measured
# against. It solves an m x m system.
reference = wiener(model)
print(f"{'wiener':<18} {analytic_mse(model, reference):>14.6f} {reference.max_inverse_dim:>16}")

# Rank-truncated filters: optimal (the Wiener filter projected onto the
# leading eigenvectors of c_xy inv(c_y) c_xy') and cross-spectral-ranked.
# Both still invert the full input covariance, so their largest
# inversion is m-dimensional no matter how small l is.
for name, build in (("lrw", lrw), ("csw", csw)):
    filt = build(model, l)
    print(f"{name:<18} {analytic_mse(model, filt):>14.6f} {filt.max_inverse_dim:>16}")

# Joint-eigenbasis truncations: nothing larger than l x l is ever
# inverted, which is the whole point of the construction.
for name, build in (("jpc", jpc), ("lsjpc", lsjpc)):
    filt = build(model, l)
    print(f"{name:<18} {analytic_mse(model, filt):>14.6f} {filt.max_inverse_dim:>16}")

# Inverse-free approximations: the l x l solve is replaced by reciprocal
# eigenvalues (jpc) or dropped entirely (lsjpc).
for name, build in (("jpc_simplified", jpc_simplified),
                    ("lsjpc_simplified", lsjpc_simplified)):
    filt = build(model, l)
    print(f"{name:<18} {analytic_mse(model, filt):>14.6f} {filt.max_inverse_dim:>16}")

# Applying a filter is a single matrix-vector product.
rng = np.random.default_rng(0)
y = rng.standard_normal(m)
estimate = jpc(model, l).apply(y)
print(f"\njpc estimate for one input vector: {np.round(estimate, 4)}")

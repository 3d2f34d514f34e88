"""
Weighted-trace and determinant objectives
=========================================

The mean square error weights every target coordinate equally. Two
generalizations come for free because they reduce to the plain problem:

 * weighted trace  tr(g'g C_err) -- solve the plain problem for the
   transformed target g x and map the filter back through inv(g);
 * determinant     det(C_err)    -- the weighted-trace problem with the
   inverse square root of the target covariance as the weight.
"""

import numpy as np

from wclmmse import (
    FilterKind,
    analytic_mse,
    det_objective,
    det_optimal_weight,
    geometric_spectrum,
    lrw,
    synthetic_model,
    weighted_filter,
    weighted_trace_objective,
    wiener,
)

model = synthetic_model(3, geometric_spectrum(11, 1.0, 0.7), seed=21)
l = 2

# Weighting can never move the unconstrained optimum: inv(g) g cancels.
g = np.diag([3.0, 1.0, 0.5])
plain = wiener(model)
reweighted = weighted_filter(model, g, FilterKind.WIENER)
print("unconstrained filter is weight-independent:"
      f" max deviation {np.abs(plain.matrix - reweighted.matrix).max():.2e}")

# For a truncated filter the weight matters: optimizing the weighted
# objective beats reusing the unweighted filter.
weighted_lrw = weighted_filter(model, g, FilterKind.LRW, l=l)
plain_lrw = lrw(model, l)
print(f"\nweighted trace at l={l}:")
print(f"  filter built for the weight : {weighted_trace_objective(model, weighted_lrw, g):.6f}")
print(f"  unweighted filter           : {weighted_trace_objective(model, plain_lrw, g):.6f}")

# With the identity weight the weighted trace IS the mean square error.
a = np.random.default_rng(0).standard_normal((3, 8))
assert abs(weighted_trace_objective(model, a, np.eye(3)) - analytic_mse(model, a)) < 1e-12

# Determinant objective: use the inverse square root of the target
# covariance as the weight and the machinery above does the rest.
g_det = det_optimal_weight(model)
det_filter = weighted_filter(model, g_det, FilterKind.LRW, l=l)
print(f"\ndeterminant of the error covariance at l={l}:")
print(f"  determinant-optimal weight  : {det_objective(model, det_filter):.6e}")
print(f"  unweighted filter           : {det_objective(model, plain_lrw):.6e}")

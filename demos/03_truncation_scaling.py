"""
Convergence to the unconstrained filter
=======================================

As the truncation level grows, the truncated filters approach the
unconstrained one. This script tabulates the truncation-power loss, the
nuclear-norm distance to the unconstrained filter, the mean-square-error
gap, and the Gram defect of the kept basis on a well-conditioned model.
"""

from wclmmse import FilterKind, geometric_spectrum, scaling_study, synthetic_model

n, m = 2, 12
model = synthetic_model(n, geometric_spectrum(n + m, 1.0, 0.5), seed=3)

for kind in (FilterKind.JPC, FilterKind.LSJPC, FilterKind.LRW):
    study = scaling_study(model, kind, range(1, m + 1), norm="nuclear")
    print(f"\n{kind.value}  (fitted dist-vs-loss slope {study.slope:.4g},"
          f" max dist/loss ratio {study.max_ratio:.4g})")
    print(f"  {'l':>3} {'loss':>12} {'dist':>12} {'mse gap':>12} {'gram defect':>12}")
    for i in range(study.l.shape[0]):
        print(f"  {study.l[i]:>3} {study.rho_l[i]:>12.4e} {study.dist[i]:>12.4e}"
              f" {study.mse_gap[i]:>12.4e} {study.gram_defect[i]:>12.4e}")

print("""
Reading the table:
 * loss is the spectrum mass discarded at level l; it hits exactly zero
   once nothing is discarded (for the rank-truncated filter that happens
   at l = n already, since its rank saturates there).
 * at l = m the joint-eigenbasis prefilter is square and invertible, so
   the jpc distance collapses to rounding noise.
 * the Gram defect measures how far the kept basis is from orthonormal;
   it is the quantity the inverse-free approximations rely on being
   small.
""")

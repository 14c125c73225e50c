"""Measuring the exponentially small splitting in the full model.

The one-dimensional unstable and stable manifolds of the collinear point are
grown from eigenvector seeds and followed to their first crossings of the
section theta = pi/2, r > 1.  The gap between the two crossing points shrinks
like 4^(1/3) mu^(1/3) exp(-A/sqrt(mu)) |Theta|; fitting log(gap mu^(-1/3))
against 1/sqrt(mu) recovers the analyticity constant A (acceptance check 13
gates the slope at 10% of -A), tying the abstract strip half-width to
concrete phase-space geometry.
"""
from l3lab import separatrix, splitting
from l3lab.numerics import geomspace

A = separatrix.compute_A()

mu = 0.003
pu = splitting.manifold_section_point(mu, "unstable_plus")
ps = splitting.manifold_section_point(mu, "stable_plus")
print(f"section hits at mu = {mu}:")
print(f"  unstable: r = {pu.r:.6f}, R = {pu.R:+.6f}, G = {pu.G:.6f} "
      f"(t = {pu.t_hit:+.1f})")
print(f"  stable  : r = {ps.r:.6f}, R = {ps.R:+.6f}, G = {ps.G:.6f} "
      f"(t = {ps.t_hit:+.1f})")

print("\ngap versus the leading asymptotics (prefactor modulus 1.63):")
print(" mu        measured     asymptotic   ratio")
for m in geomspace(1e-3, 2e-3, 5):
    s = splitting.section_gap(m, A=A)
    print(f"{m:.4e}  {s.dist_measured:.4e}  {s.dist_asymptotic:.4e}  "
          f"{s.dist_measured / s.dist_asymptotic:.3f}")

print("\nexponent fit over the default grid:")
fit = splitting.fit_splitting_exponent()
print(f"  slope     = {fit.slope:+.6f}")
print(f"  -A        = {-A:+.6f}")
print(f"  rel error = {abs(fit.slope + A) / A * 100:.2f} %")
print(f"  effective prefactor (large-mu corrections included): "
      f"{fit.theta_effective:.2f}")

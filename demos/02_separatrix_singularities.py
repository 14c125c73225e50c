"""Complex continuation of the separatrix and its singularity structure.

The loop's time parametrization sigma(t) = (lambda_h, Lambda_h) is continued
along complex time paths by direct integration of the meromorphic vector
field.  Its singularities are located independently as integrals of the
multivalued function fhat over paths in the q-plane with per-factor branch
tracking: paths into q = 0 give t = -+iA (the strip boundary), paths to
infinity give the farther pair near -0.0867 -+ 0.9695 i.
"""
import math

from l3lab import separatrix

A = separatrix.compute_A()
print("singularities from q-plane path integrals:")
for kind in ("zero_upper", "zero_lower", "infinity_upper", "infinity_lower"):
    t = separatrix.t_star(kind)
    # adding 0.0 turns a -0.0 from rounding into +0.0
    re, im = (round(v, 9) + 0.0 for v in (t.real, t.imag))
    print(f"  {kind:15s}: {re:+.9f} {im:+.9f} i")
print(f"  (strip half-width A = {A:.9f})")

res = separatrix.residue_pole()
print(f"\npole residue at q = 1: {res:.12f} = sqrt(2/21)")
print(f"pi * residue = {math.pi * res:.9f}  <- the imaginary part of the far pair")

print("\nlocal structure at t = iA (fit on the ray from below):")
rep = separatrix.fit_branch()
print(f"  lambda - pi ~ c (t - iA)^p with p = {rep.fitted_exponent:.4f} "
      f"(exact 2/3)")
print(f"  |c| = {abs(rep.fitted_coefficient):.4f} "
      f"(exact 3 * 2^(-1/3) = {3 * 2 ** (-1 / 3):.4f})")
print(f"  Lambda blow-up exponent = {rep.momentum_exponent:.4f} (exact -1/3)")

print("\nenergy conservation along a complex path (t = 0 -> 0.1 + 0.12i):")
st = separatrix.sigma_sweep([0.1, 0.1 + 0.12j])[-1]
resid = abs(separatrix.pend_energy(st.lam, st.Lam) + 0.5)
print(f"  lambda = {st.lam:.6f}, Lambda = {st.Lam:.6f}")
print(f"  |H_pend + 1/2| = {resid:.2e}")

print("\nminimum of |Lambda_h| over the strip grid (zero only at t = 0):")
m = separatrix.check_zero_of_Lambda()
print(f"  min |Lambda_h| away from 0 and +-iA: {m:.4f}")

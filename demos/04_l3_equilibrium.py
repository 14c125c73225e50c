"""The collinear equilibrium beyond the heavy primary and its two time scales.

The equilibrium radius solves d = (1-mu)/(d-mu)^2 + mu/(d+1-mu)^2 and expands
as 1 + (5/12) mu + ...; its spectrum splits into a weak hyperbolic pair
+- sqrt(mu) sqrt(21/8) (1 + O(mu)) and a fast elliptic pair +- i (1 + 7mu/8).
That scale separation is what makes the manifold splitting exponentially
small.
"""
import math
import random

from l3lab import rpc3bp

print(" mu        d_mu - 1        (d_mu-1)/mu   |Re l_h|/sqrt(mu)  |Im l_e|")
for mu in (1e-6, 1e-5, 1e-4, 1e-3, 0.003):
    eq = rpc3bp.locate_L3(mu)
    print(f"{mu:7.0e}   {eq.d_mu - 1:.6e}   {(eq.d_mu - 1)/mu:.8f}    "
          f"{eq.hyperbolic_rate/math.sqrt(mu):.8f}       "
          f"{eq.elliptic_frequency:.8f}")
print(f"\n5/12 = {5/12:.8f},  sqrt(21/8) = {math.sqrt(21/8):.8f}")

mu = 0.003
eq = rpc3bp.locate_L3(mu)
print(f"\nfull spectrum at mu = {mu}:")
for z in sorted(eq.eigenvalues, key=lambda z: (-abs(z.real), z.imag)):
    print(f"  {z.real:+.10f} {z.imag:+.10f} i")

print("\nenergy agreement of the three charts at a random state:")
rng = random.Random(1)
pol = rpc3bp.PolarState(rng.uniform(0.9, 1.2), rng.uniform(-2, 2),
                        rng.uniform(-0.1, 0.1), rng.uniform(0.9, 1.1))
cart = rpc3bp.cart_from_polar(pol)
poi = rpc3bp.poincare_from_polar(pol)
h0, h1 = rpc3bp.h_polar(pol, mu)
print(f"  Cartesian: {rpc3bp.h_cart(cart, mu):.15f}")
print(f"  polar    : {h0 + mu * h1:.15f}")
print(f"  Poincare : {rpc3bp.h_poincare(poi, mu):.15f}")

"""The Stokes constant of the inner equation.

Two solutions of the parameter-free inner equation decay as Re U -> -+infty.
The unstable one is seeded from its asymptotic series, kept through
U^(-88/3), at Re U = -40 (-inner.RE_START) on the line Im U = -rho and
integrated to the imaginary axis.  The stable one is its mirror image under
the symmetry S: (U, W, X, Y) -> (-conj U, w^2 conj W, w conj X, w conj Y),
w = e^(i pi/3), of the inner equation (inner.mirror).  Their Y-difference
behaves like Theta e^{-iU}, so theta_rho = |Delta Y(-i rho)| e^rho
estimates |Theta|.
The estimates plateau near 1.63 -- the prefactor of the exponentially small
splitting.
"""
from l3lab import inner

print("rho   |Delta Y|      theta_rho   digits lost")
for rec in inner.theta_table(range(13, 21)):
    print(f"{rec.rho:3.0f}   {abs(rec.delta_y):.3e}   {rec.theta:.5f}     "
          f"{rec.digits_lost:.2f}")

print("\nplateau flatness over a denser grid:")
recs = inner.theta_table([14.0 + 0.5 * k for k in range(13)])
thetas = [r.theta for r in recs]
print(f"  max - min over rho in [14, 20] = {max(thetas) - min(thetas):.2e}")

print("\nstructure of the difference along Re U at rho = 15:")
rep = inner.diff_structure()
mags = [abs(z) for z in rep.ey_values]
print(f"  |e^(iU) dY| mean = {sum(mags) / len(mags):.4f}")
print(f"  relative spread  = {rep.rel_spread_y:.2e}")
print(f"  |dX|/|dY| max    = {rep.xy_suppression:.2e}  (suppressed by U^-2)")

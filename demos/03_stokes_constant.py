"""The Stokes constant of the inner equation.

Two solutions of the parameter-free inner equation decay as Re U -> -+infty.
Both are seeded from their asymptotic series, kept through U^(-40/3), at
Re U = -+100 (inner.RE_START) on the line Im U = -rho and integrated to the
imaginary axis; their Y-difference behaves like Theta e^{-iU}, so
theta_rho = |Delta Y(-i rho)| e^rho estimates |Theta|.
The estimates plateau near 1.63 -- the prefactor of the exponentially small
splitting.
"""
from l3lab import inner

print("rho   |Delta Y|      theta_rho   digits lost")
for rho in range(13, 21):
    rec = inner.theta(float(rho))
    print(f"{rho:3d}   {abs(rec.delta_y):.3e}   {rec.theta:.5f}     "
          f"{rec.digits_lost:.2f}")

print("\nplateau flatness over a denser grid:")
recs = inner.theta_table([14.0 + 0.5 * k for k in range(13)])
thetas = [r.theta for r in recs]
print(f"  max - min over rho in [14, 20] = {max(thetas) - min(thetas):.2e}")

print("\nstructure of the difference along Re U at rho = 15:")
rep = inner.diff_structure(rho=15.0)
mags = [abs(z) for z in rep.ey_values]
print(f"  |e^(iU) dY| mean = {sum(mags) / len(mags):.4f}")
print(f"  relative spread  = {rep.rel_spread_y:.2e}")
print(f"  |dX|/|dY| max    = {rep.xy_suppression:.2e}  (suppressed by U^-2)")

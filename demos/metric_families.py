"""The one-parameter Bloch-ball family: spectra, metric monotonicity, marginals.

The family weights 2x2 states by r^2 (1-r^2)^(-u) over the Bloch ball
(u = 1/2 is the Bures volume element).  Its mean tensor powers have closed
eigenvalue tables; the associated metric indicator f(t) is monotone only for
genuine monotone metrics, and the maximal metric's simplex marginal has
simple rational moments.
"""

from fractions import Fraction

import numpy as np

from rhomean import (
    BlochBallMeasure,
    bloch_family_eigenvalue_exact,
    exact_mean,
    maximal_marginal_expectations,
    monotone_function,
    monotone_scan,
    spin_multiplicity,
)

# ---------------------------------------------------------------------------
# eigenvalue/multiplicity tables of the mean 2^m x 2^m matrices
# ---------------------------------------------------------------------------
print("u = -2 family (same eigenvectors as the Haar x simplex mean):")
for m in (2, 3, 4):
    rows = ", ".join(
        f"{bloch_family_eigenvalue_exact(m, d, -2)} (x{spin_multiplicity(m, d)})"
        for d in range(m // 2 + 1)
    )
    print(f"  m={m}: {rows}")

# the same tables follow from the law's power-sum moments alone
print("\nBures weighting (u = 1/2), m = 4 spectrum of the exact mean:")
for lam, mult in exact_mean(BlochBallMeasure(u=Fraction(1, 2)), 4).spectrum():
    print(f"  {lam} = {float(lam):.9f}  (x{mult})")

total = sum(v * k for v, k in exact_mean(BlochBallMeasure(u=-2), 8).spectrum())
print(f"\ntrace normalization at m=8, u=-2: {total}")

# ---------------------------------------------------------------------------
# monotonicity of the metric indicator function
# ---------------------------------------------------------------------------
grid = np.linspace(0.01, 10, 2000)
print("\nmetric indicator f(t) = (1+t)^(2-2u) / (2^(2-2u) t^(1/2-u)):")
for u, name in ((0.5, "minimal (Bures)"), (1.5, "maximal"), (-2.0, "u = -2")):
    rep = monotone_scan(u, grid)
    msg = "monotone" if rep.is_monotone else f"NOT monotone, argmin at t = {rep.argmin:.7f}"
    print(f"  u = {u:+.1f} ({name:15s}): {msg}")
print("  (5/7 =", f"{5 / 7:.7f}; the u = -2 family matches no monotone metric)")
print("  f(1) =", monotone_function(1.0, -2.0), " and f(t) = t f(1/t) holds on the grid")

# ---------------------------------------------------------------------------
# maximal-metric marginal over the 3-level simplex diagonal
# ---------------------------------------------------------------------------
mean_a, mean_b, mean_c, norm = maximal_marginal_expectations(128)
print("\nmaximal-metric two-dimensional simplex marginal:")
print(f"  normalization = {norm:.9f}")
print(f"  <a> = {mean_a:.9f}  (3/7 = {3 / 7:.9f})")
print(f"  <b> = {mean_b:.9f}, <c> = {mean_c:.9f}  (2/7 = {2 / 7:.9f})")
print("  the distinguished level keeps 3/7 of the weight -- unlike the")
print("  Haar x simplex mean, whose diagonal is exactly uniform at 1/3")

"""Exact mean density matrices of tensor powers, without a single float.

A random density matrix rho = U diag(e) U+ (U Haar, e from the uniform
simplex) has a mean tensor power E[rho^(x m)] that commutes with every
W^(x m).  That pins it inside the span of the tensor-slot permutation
operators, where it acts as one scalar on each SU(N) x S_m isotypic
component.  The scalars follow from the eigenvalue power-sum moments through
the S_m character table, and the class coefficients (one per cycle type)
solve the rational character system they define.  Spectra merge the scalars
directly; the class coefficients are solved, and the dense matrix built, only
when they are printed.  This script walks through the exact means for several
dimensions and powers.
"""

from fractions import Fraction

import numpy as np

from rhomean import Scenario, composite_haar_mean, haar_mean

np.set_printoptions(linewidth=120)


def show_matrix(label, mean):
    print(f"\n{label}")
    for row in mean:
        print("  [" + "  ".join(f"{str(x):>5s}" for x in row) + "]")


# ---------------------------------------------------------------------------
# two-level states, twofold power: the classic 4x4 mean
# ---------------------------------------------------------------------------
result = haar_mean(2, 2, 0)
show_matrix("E[rho x rho] for 2x2 states (uniform simplex):", result.mean)
print("class coefficients:",
      {k: str(v) for k, v in result.class_coefficients.items()})
print("spectrum:", [(str(v), k) for v, k in result.spectrum()],
      " <- triplet 5/18 + singlet 1/6")

# ---------------------------------------------------------------------------
# higher powers: eigenvalue/multiplicity tables stay exact
# ---------------------------------------------------------------------------
print("\ntwo-level spectra for m = 2..6, with the class coefficients behind them:")
for m in range(2, 7):
    result = haar_mean(2, m, 0)
    print(f"  m={m}: " + ", ".join(f"{v} (x{k})" for v, k in result.spectrum()))
    print("        " + ", ".join(f"{ct}: {a}" for ct, a in result.class_coefficients.items()))

# ---------------------------------------------------------------------------
# three- and five-level states
# ---------------------------------------------------------------------------
print("\nthree-level, m=2 spectrum:",
      [(str(v), k) for v, k in haar_mean(3, 2, 0).spectrum()],
      " <- sextet 1/8 + antitriplet 1/12")
mean5 = haar_mean(5, 2, 0).mean
print("five-level, m=2 leading diagonal:", mean5[0, 0], mean5[1, 1])

# ---------------------------------------------------------------------------
# Dirichlet simplex exponents: q = 0 is uniform, q = 1/2 the Jeffreys-style
# prior; the mean is rational in q
# ---------------------------------------------------------------------------
print("\nq-dependence of the two-level spectrum:")
for q in (Fraction(0), Fraction(1, 2), Fraction(-1)):
    spec = haar_mean(2, 2, q).spectrum()
    print(f"  q={q}: " + ", ".join(f"{v} (x{k})" for v, k in spec))

# ---------------------------------------------------------------------------
# composite systems: independence factorizes the mean
# ---------------------------------------------------------------------------
comp = composite_haar_mean(Scenario(factors=(2, 3), power=2))
print("\n(2x3)-composite, m=2 spectrum:",
      [(str(v), k) for v, k in comp.spectrum()])
print("entries are products of factor means, reordered to power-major slots;")
print("zero entries:", int((comp.mean == 0).sum()), "of", comp.mean.size)

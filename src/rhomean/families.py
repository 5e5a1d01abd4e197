"""Closed-form evaluators: spin-family spectra, monotone-metric functions,
the maximal-metric simplex marginal, and the Dirichlet-parameter families.

The two-level "Bloch family" weights density matrices by
Gamma(5/2-u) r^2 sin(theta) / (pi^(3/2) Gamma(1-u) (1-r^2)^u) with u < 1; its
mean tensor-power matrices have eigenvalue lambda(m, d) on the component with
d minority spins and multiplicity M(m, d) = (m-2d+1)^2/(m+1) * C(m+1, d).
These closed forms are the published tables; ``oracle.exact_mean`` derives
the same spectrum from the law's power-sum moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .spectral import SymbolicEigenvalue, SymbolicMatrix

# ---------------------------------------------------------------------------
# Bloch-family eigenvalues and multiplicities (the "ks" tables)
# ---------------------------------------------------------------------------


def _check_md(m: int, d: int, u: Fraction) -> None:
    if m < 1:
        raise ValueError("power m must be >= 1")
    if not 0 <= d <= m // 2:
        raise ValueError(f"spin label d must lie in [0, {m // 2}]")
    if not u < 1:
        raise ValueError("family parameter must satisfy u < 1")


def _gamma_ratio_exact(a: Fraction, b: Fraction) -> Fraction:
    """Gamma(a)/Gamma(b) for a - b a (possibly negative) integer."""
    k = a - b
    if k.denominator != 1:
        raise ValueError("gamma arguments must differ by an integer")
    k = int(k)
    out = Fraction(1)
    if k >= 0:
        for t in range(k):
            out *= b + t
        return out
    for t in range(-k):
        out /= a + t
    return out


def bloch_family_eigenvalue_exact(m: int, d: int, u) -> Fraction:
    """Exact rational lambda(m, d) for rational u.

    The three numerator gamma arguments are paired with denominator arguments
    at integer offsets (the pairing depends on the parity of m), turning the
    gamma quotient into rising factorials.
    """
    uq = Fraction(u)
    _check_md(m, d, uq)
    num = [Fraction(5, 2) - uq, 2 + m - d - uq, 1 + d - uq]
    den = [Fraction(5, 2) + Fraction(m, 2) - uq, 2 + Fraction(m, 2) - uq, 1 - uq]
    if m % 2 == 0:
        pairing = [(0, 0), (1, 1), (2, 2)]
    else:
        pairing = [(0, 1), (1, 2), (2, 0)]
    out = Fraction(1, 2**m)
    for i, j in pairing:
        out *= _gamma_ratio_exact(num[i], den[j])
    return out


def spin_multiplicity(m: int, d: int) -> int:
    """Multiplicity M(m, d) = (m - 2d + 1)^2 / (m + 1) * C(m + 1, d), exact."""
    if not 0 <= d <= m // 2:
        raise ValueError(f"spin label d must lie in [0, {m // 2}]")
    num = (m - 2 * d + 1) ** 2 * comb(m + 1, d)
    assert num % (m + 1) == 0
    return num // (m + 1)


# ---------------------------------------------------------------------------
# monotone-metric indicator functions
# ---------------------------------------------------------------------------


def monotone_function(t, u: float):
    """Indicator f(t) = (1+t)^(2-2u) / (2^(2-2u) t^(1/2-u)) of the u-family.

    f(1) = 1 and f(t) = t f(1/t); ordinary monotonicity of f on (0, inf) is
    the scalar shadow of the operator monotonicity that a metric-compatible
    function must satisfy.
    """
    t = np.asarray(t, dtype=float)
    return (1 + t) ** (2 - 2 * u) / (2 ** (2 - 2 * u) * t ** (0.5 - u))


@dataclass(frozen=True)
class MonotoneReport:
    is_monotone: bool
    argmin: float | None  # interior minimizer, when one exists


def monotone_scan(u: float, grid: np.ndarray) -> MonotoneReport:
    """Check f(., u) for monotonicity on a sorted positive grid.

    An interior minimum exists only for u < 1/2, where d log f / dt = 0 puts
    it at t* = (1-2u)/(3-2u); t* must fall between the neighbors of the grid
    argmin, so the scan still checks the closed form.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 3 or np.any(grid <= 0):
        raise ValueError("grid must be a sorted 1-D array of positive points")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    vals = monotone_function(grid, u)
    slack = 1e-12 * np.maximum(np.abs(vals[1:]), np.abs(vals[:-1]))
    is_monotone = bool(np.all(np.diff(vals) >= -slack))
    k = int(np.argmin(vals))
    if is_monotone or k == 0 or k == len(grid) - 1:
        return MonotoneReport(is_monotone=is_monotone, argmin=None)
    t = float((1 - 2 * u) / (3 - 2 * u))
    if not grid[k - 1] < t < grid[k + 1]:
        raise ValueError(
            f"closed-form minimum {t} lies outside the grid bracket "
            f"({grid[k - 1]}, {grid[k + 1]})"
        )
    return MonotoneReport(is_monotone=False, argmin=t)


# ---------------------------------------------------------------------------
# maximal-metric two-dimensional simplex marginal
# ---------------------------------------------------------------------------


def maximal_marginal_expectations(
    quadrature_points: int = 128,
) -> tuple[float, float, float, float]:
    """First moments (<a>, <b>, <c>) and normalization of the simplex density
    15 (1-a) sqrt(a) / (4 pi sqrt(b) sqrt(c)), c = 1 - a - b.

    The inverse-square-root edge singularities are absorbed exactly by a
    Chebyshev-Gauss rule in b/(1-a) and the sqrt(a) factor by the substitution
    a = w^2 under a Gauss-Legendre rule, so the product rule converges fast.
    """
    if quadrature_points < 64:
        raise ValueError("use at least 64 quadrature points")
    n = quadrature_points
    # Gauss-Legendre on w in [0, 1], a = w^2
    x, wgt = np.polynomial.legendre.leggauss(n)
    w = 0.5 * (x + 1)
    wq = 0.5 * wgt
    a = w**2
    da_weight = 2 * w * wq  # da = 2w dw
    # Chebyshev-Gauss on t in (0, 1): integral g(t)/sqrt(t(1-t)) dt = (pi/n) sum g(t_i)
    t = 0.5 * (1 + np.cos((2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n)))
    t_weight = np.pi / n
    # density * da db = [15 (1-a) sqrt(a) / (4 pi)] da dt / sqrt(t (1-t))
    base_a = 15 * (1 - a) * np.sqrt(a) / (4 * np.pi) * da_weight
    norm = base_a.sum() * t_weight * n  # integrand 1 in t
    mean_a = (base_a * a).sum() * t_weight * n
    mean_b = (base_a * (1 - a)).sum() * (t_weight * t.sum())
    mean_c = (base_a * (1 - a)).sum() * (t_weight * (1 - t).sum())
    return float(mean_a), float(mean_b), float(mean_c), float(norm)


# ---------------------------------------------------------------------------
# Dirichlet-parameter families of mean matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirichletFamily:
    """A q-parameterized mean matrix and/or its exact spectrum."""

    fixture_id: str
    q: Fraction
    matrix: SymbolicMatrix | None
    spectrum: tuple[tuple[SymbolicEigenvalue, int], ...]


def _check_q(q) -> Fraction:
    q = Fraction(q)
    if q >= 1:
        raise ValueError("Dirichlet parameter must satisfy q < 1")
    return q


def _n3m2_family(q: Fraction) -> DirichletFamily:
    from .fixtures import eq13_layout

    kinds, g_mult = eq13_layout()
    den = 4 - 3 * q
    values = {
        "diag_eq": (3 - 2 * q) / (6 * den),
        "diag_neq": (5 - 4 * q) / (12 * den),
        "swap": Fraction(1) / (12 * den),
    }
    s_base = Fraction(1) / (216 * den)
    rp = np.full((9, 9), Fraction(0), dtype=object)
    sp = np.full((9, 9), Fraction(0), dtype=object)
    for i in range(9):
        for j in range(9):
            if kinds[i][j]:
                rp[i, j] = values[kinds[i][j]]
            sp[i, j] = g_mult[i][j] * s_base
    spectrum = (
        (SymbolicEigenvalue(Fraction(1, 9) - Fraction(1) / (9 * den)), 3),
        (SymbolicEigenvalue(values["diag_eq"], -Fraction(1, 648) / den, 662), 1),
        (SymbolicEigenvalue(values["diag_eq"], -Fraction(7, 648) / den, 2), 1),
        (SymbolicEigenvalue(Fraction(1, 9) + Fraction(1) / (18 * den)), 2),
        (SymbolicEigenvalue(values["diag_eq"], Fraction(7, 648) / den, 2), 1),
        (SymbolicEigenvalue(values["diag_eq"], Fraction(1, 648) / den, 662), 1),
    )
    return DirichletFamily("dirichlet.n3m2", q, SymbolicMatrix(rp, sp), spectrum)


def _n4m2_family(q: Fraction) -> DirichletFamily:
    from .fixtures import n4m2_layout

    diag_slots, offdiag_cells = n4m2_layout()
    den = 5 - 4 * q
    diag_values = {
        "alpha": (2327 - 1620 * q) / (6480 * den),
        "beta": (3947 - 3240 * q) / (12960 * den),
        "gamma": (1759 - 1440 * q) / (5760 * den),
        "kappa": (971 - 864 * q) / (3456 * den),
        "epsilon": (1583 - 1080 * q) / (4320 * den),
        "zeta": (2357 - 2160 * q) / (8640 * den),
        "eta": (299 - 180 * q) / (720 * den),
    }
    off_values = {
        "v1": Fraction(707) / (12960 * den),
        "v2": Fraction(319) / (5760 * den),
        "v3": Fraction(107) / (3456 * den),
        "v4": Fraction(197) / (8640 * den),
    }
    rp = np.full((16, 16), Fraction(0), dtype=object)
    sp = np.full((16, 16), Fraction(0), dtype=object)
    for i, slot in enumerate(diag_slots):
        rp[i, i] = diag_values[slot]
    for (i, j), slot in offdiag_cells.items():
        rp[i, j] = off_values[slot]
        rp[j, i] = off_values[slot]
    s16 = Fraction(1, 16)
    spectrum = (
        (SymbolicEigenvalue(s16 - Fraction(1) / (16 * den)), 6),
        (SymbolicEigenvalue(s16 - Fraction(73) / (4320 * den)), 1),
        (SymbolicEigenvalue(s16 - Fraction(1) / (1728 * den)), 2),
        (SymbolicEigenvalue(s16 + Fraction(151) / (3240 * den)), 3),
        (SymbolicEigenvalue(s16 + Fraction(139) / (2880 * den)), 2),
        (SymbolicEigenvalue(s16 + Fraction(233) / (4320 * den)), 1),
        (SymbolicEigenvalue(s16 + Fraction(37) / (360 * den)), 1),
    )
    return DirichletFamily("dirichlet.n4m2", q, SymbolicMatrix(rp, sp), spectrum)


def _n2m2_family(q: Fraction) -> DirichletFamily:
    den = 3 - 2 * q
    spectrum = (
        (SymbolicEigenvalue((1 - q) / (2 * den)), 1),
        (SymbolicEigenvalue((5 - 3 * q) / (6 * den)), 3),
    )
    return DirichletFamily("dirichlet.n2m2", q, None, spectrum)


def _n2m3_family(q: Fraction) -> DirichletFamily:
    den = 3 - 2 * q
    spectrum = (
        (SymbolicEigenvalue((1 - q) / (4 * den)), 4),
        (SymbolicEigenvalue((2 - q) / (4 * den)), 4),
    )
    return DirichletFamily("dirichlet.n2m3", q, None, spectrum)


_FAMILIES = {
    "dirichlet.n3m2": _n3m2_family,
    "dirichlet.n4m2": _n4m2_family,
    "dirichlet.n2m2": _n2m2_family,
    "dirichlet.n2m3": _n2m3_family,
}


def dirichlet_family(fixture_id: str, q) -> DirichletFamily:
    """Evaluate a published q-parameterized family exactly at rational q."""
    if fixture_id not in _FAMILIES:
        raise ValueError(
            f"unknown family {fixture_id!r}; known: {sorted(_FAMILIES)}"
        )
    return _FAMILIES[fixture_id](_check_q(q))

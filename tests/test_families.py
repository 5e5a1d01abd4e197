"""Closed-form families: spin tables, monotone functions, marginal, q-families."""

import math
import os
import subprocess
import sys
from fractions import Fraction as F
from math import comb, lgamma
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rhomean
from rhomean.families import (
    bloch_family_eigenvalue_exact,
    dirichlet_family,
    maximal_marginal_expectations,
    monotone_function,
    monotone_scan,
    spin_multiplicity,
)
from rhomean.fixtures import get_fixture
from rhomean.measures import BlochBallMeasure
from rhomean.oracle import exact_mean, haar_mean
from rhomean.spectral import selection_rule


def eigenvalue_by_beta_sum(m, d, u):
    """Independent oracle: radial Beta moments summed over binomial weights.

    lambda(m,d) = 2^-m/(k+1) * sum_a C(k+1, 2a+1) B(3/2+a, 1-u+d)/B(3/2, 1-u)
    with k = m - 2d, obtained by angular averaging on the Bloch ball.
    """
    k = m - 2 * d

    def log_beta(a, b):
        return lgamma(a) + lgamma(b) - lgamma(a + b)

    base = log_beta(1.5, 1 - u)
    total = 0.0
    for a in range((k + 1) // 2 + 1):
        if 2 * a + 1 > k + 1:
            break
        total += comb(k + 1, 2 * a + 1) * math.exp(log_beta(1.5 + a, 1 - u + d) - base)
    return total / ((k + 1) * 2**m)


def test_published_eigenvalue_tables():
    assert bloch_family_eigenvalue_exact(2, 0, -2) == F(5, 18)
    assert bloch_family_eigenvalue_exact(2, 1, -2) == F(1, 6)
    assert [bloch_family_eigenvalue_exact(4, d, -2) for d in (0, 1, 2)] == [
        F(7, 66),
        F(1, 22),
        F(1, 33),
    ]
    # the same table from the law's power-sum moments
    assert exact_mean(BlochBallMeasure(u=-2), 4).spectrum() == [
        (F(1, 33), 2),
        (F(1, 22), 9),
        (F(7, 66), 5),
    ]


def test_float_and_exact_paths_agree_with_beta_oracle():
    for m in (1, 2, 3, 4, 5, 6):
        for d in range(m // 2 + 1):
            for u in (-2, 0, F(1, 2), F(-7, 3)):
                exact = float(bloch_family_eigenvalue_exact(m, d, u))
                oracle = eigenvalue_by_beta_sum(m, d, float(u))
                assert oracle == pytest.approx(exact, rel=1e-10)


def test_multiplicities():
    assert (spin_multiplicity(2, 0), spin_multiplicity(2, 1)) == (3, 1)
    assert [spin_multiplicity(4, d) for d in (0, 1, 2)] == [5, 9, 2]
    for m in range(1, 11):
        assert sum(spin_multiplicity(m, d) for d in range(m // 2 + 1)) == 2**m
    with pytest.raises(ValueError):
        spin_multiplicity(4, 3)


@given(st.integers(1, 6), st.fractions(min_value=-4, max_value=F(9, 10), max_denominator=12))
@settings(max_examples=40, deadline=None)
def test_trace_normalization_exact_property(m, u):
    total = sum(
        bloch_family_eigenvalue_exact(m, d, u) * spin_multiplicity(m, d)
        for d in range(m // 2 + 1)
    )
    assert total == 1


def test_eigenvalue_domain_errors():
    with pytest.raises(ValueError):
        bloch_family_eigenvalue_exact(4, 3, -2)
    with pytest.raises(ValueError):
        bloch_family_eigenvalue_exact(4, 0, 1)


def test_monotone_function_closed_forms():
    grid = np.linspace(0.01, 10, 1000)
    assert np.abs(monotone_function(grid, 0.5) - (1 + grid) / 2).max() < 1e-12
    assert np.abs(monotone_function(grid, 1.5) - 2 * grid / (1 + grid)).max() < 1e-12
    # the u = -2 indicator
    assert np.abs(
        monotone_function(grid, -2.0) - (1 + grid) ** 6 / (64 * grid**2.5)
    ).max() < 1e-9 * np.abs(monotone_function(grid, -2.0)).max()


def test_monotone_function_symmetry():
    grid = np.linspace(0.001, 50, 1000)
    for u in (-2.0, 0.5, 1.5):
        f = monotone_function
        assert abs(f(1.0, u) - 1.0) < 1e-12
        rel = np.abs(f(grid, u) - grid * f(1.0 / grid, u)) / np.abs(f(grid, u))
        assert rel.max() < 1e-12


def test_monotone_scan():
    grid = np.linspace(0.01, 10, 1000)
    assert monotone_scan(0.5, grid).is_monotone
    assert monotone_scan(1.5, grid).is_monotone
    rep = monotone_scan(-2.0, grid)
    assert not rep.is_monotone
    assert abs(rep.argmin - 5 / 7) < 1e-6
    with pytest.raises(ValueError):
        monotone_scan(0.5, np.array([1.0, 0.5, 2.0]))


@settings(max_examples=200, deadline=None)
@given(
    u=st.floats(-30.0, 0.45),
    lo=st.floats(0.001, 0.9),
    hi=st.floats(1.0, 20.0),
    n=st.integers(3, 400),
)
# grid point 40 lies one ulp above t* = 61/63, and f rounds 3.3e-15 (15 ulps)
# higher at t* than there
@example(u=-30.0, lo=1 / 3, hi=1.0, n=43)
def test_monotone_scan_argmin_is_closed_form(u, lo, hi, n):
    grid = np.linspace(lo, hi, n)
    vals = monotone_function(grid, u)
    k = int(np.argmin(vals))
    assume(0 < k < n - 1)  # the minimum t* = (1-2u)/(3-2u) inside the grid
    rep = monotone_scan(u, grid)
    assert not rep.is_monotone
    assert rep.argmin == (1 - 2 * u) / (3 - 2 * u)
    assert grid[k - 1] < rep.argmin < grid[k + 1]
    # a rounding error of 1 + t or of a power grows with the exponents 2 - 2u
    # and 1/2 - u, so f may round higher at t* than at a grid point next to it
    allowance = 4 * np.finfo(float).eps * (abs(2 - 2 * u) + abs(0.5 - u)) * vals.min()
    assert monotone_function(rep.argmin, u) <= vals.min() + allowance


@settings(max_examples=50, deadline=None)
@given(u=st.floats(0.5, 1.5))
def test_monotone_scan_is_monotone_for_u_in_half_to_three_halves(u):
    for grid in (np.linspace(0.01, 10, 1000), np.geomspace(1e-3, 1e3, 2000)):
        rep = monotone_scan(u, grid)
        assert rep.is_monotone and rep.argmin is None


def test_import_leaves_scipy_unloaded():
    code = (
        "import sys, rhomean, rhomean.cli; "
        "print([m for m in sys.modules if m.partition('.')[0] == 'scipy'])"
    )
    # the child imports the same rhomean as this process
    src = str(Path(rhomean.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"


def test_maximal_marginal_expectations():
    mean_a, mean_b, mean_c, norm = maximal_marginal_expectations(64)
    assert abs(norm - 1) < 1e-6
    assert abs(mean_a - 3 / 7) < 1e-6
    assert abs(mean_b - 2 / 7) < 1e-6
    assert abs(mean_c - 2 / 7) < 1e-6
    with pytest.raises(ValueError):
        maximal_marginal_expectations(32)


@pytest.mark.parametrize("q", [F(0), F(1, 2), F(-3, 2)])
def test_dirichlet_n3m2_family_matches_oracle(q):
    fam = dirichlet_family("dirichlet.n3m2", q)
    oracle = haar_mean(3, 2, q)
    assert np.all(selection_rule(fam.matrix) == oracle.mean)
    den = 4 - 3 * q
    assert fam.matrix.rpart[0, 0] == (3 - 2 * q) / (6 * den)
    assert fam.matrix.rpart[1, 1] == (5 - 4 * q) / (12 * den)
    assert fam.matrix.rpart[1, 3] == F(1) / (12 * den)
    assert fam.matrix.spart[0, 2] == F(1) / (216 * den)


def test_dirichlet_n3m2_reduces_to_fixture():
    fam = dirichlet_family("dirichlet.n3m2", 0)
    assert fam.matrix == get_fixture("n3m2").matrix
    assert sorted((ev.r, ev.coef, ev.radicand, k) for ev, k in fam.spectrum) == sorted(
        (ev.r, ev.coef, ev.radicand, k) for ev, k in get_fixture("n3m2").spectrum
    )


@pytest.mark.parametrize("which,m", [("n2m2", 2), ("n2m3", 3)])
@pytest.mark.parametrize("q", [F(0), F(1, 2)])
def test_dirichlet_two_level_spectra(which, m, q):
    fam = dirichlet_family(f"dirichlet.{which}", q)
    assert sorted((ev.r, k) for ev, k in fam.spectrum) == haar_mean(2, m, q).spectrum()


def test_dirichlet_n4m2_q0_reduces_to_fixture_and_oracle_sextet():
    fam = dirichlet_family("dirichlet.n4m2", 0)
    fix = get_fixture("n4m2")
    assert fam.matrix == fix.matrix
    spec = sorted((ev.r, k) for ev, k in fam.spectrum)
    assert spec == sorted((ev.r, k) for ev, k in fix.spectrum)
    assert spec[0] == (F(1, 20), 6)
    assert spec[0] == haar_mean(4, 2, 0).spectrum()[0]
    assert spec[1] == (F(1277, 21600), 1)


def test_dirichlet_two_level_q0_reduces_to_fixtures():
    for which, fid in (("n2m2", "n2m2"), ("n2m3", "n2m3")):
        fam = dirichlet_family(f"dirichlet.{which}", 0)
        fix = get_fixture(fid)
        assert sorted((ev.r, k) for ev, k in fam.spectrum) == sorted(
            (ev.r, k) for ev, k in fix.spectrum
        )


def test_oracle_cluster_multiplicities_match_spin_formula():
    for m in range(2, 7):
        spec = haar_mean(2, m, 0).spectrum()
        want = sorted(spin_multiplicity(m, d) for d in range(m // 2 + 1))
        assert sorted(k for _, k in spec) == want


def test_dirichlet_family_errors():
    with pytest.raises(ValueError):
        dirichlet_family("dirichlet.nope", 0)
    with pytest.raises(ValueError):
        dirichlet_family("dirichlet.n3m2", 1)

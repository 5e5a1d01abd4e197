"""Symbolic matrices and eigenspace clustering."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhomean.fixtures import get_fixture
from rhomean.linalg import hermitian_eig
from rhomean.montecarlo import estimate_mean
from rhomean.oracle import haar_mean
from rhomean.spectral import (
    SymbolicMatrix,
    cluster_spectrum,
    eigenvector_check,
    selection_rule,
    subspace_distance,
    substitute_v,
)

fractions_st = st.fractions(min_value=-2, max_value=2, max_denominator=60)


def symbolic_from_lists(rs, ss):
    def part(rows):
        return np.array([[F(x) for x in row] for row in rows], dtype=object)

    return SymbolicMatrix(part(rs), part(ss))


def test_substitute_and_selection_consistency():
    fix = get_fixture("n3m2")
    at_pi = substitute_v(fix.matrix, math.pi)
    g = 1 / (864 * math.pi)
    assert abs(at_pi[0, 2] - g) < 1e-18
    assert abs(at_pi[1, 2] + 2 * g) < 1e-18
    assert abs(at_pi[0, 5] - 10 * g / 3) < 1e-18
    # v -> infinity approaches the annihilated matrix
    far = substitute_v(fix.matrix, 1e12)
    assert np.abs(far - selection_rule(fix.matrix).astype(float)).max() <= 1e-10
    with pytest.raises(ValueError):
        substitute_v(fix.matrix, 0.0)


def test_selection_rule_idempotent():
    fix = get_fixture("n3m2")
    once = selection_rule(fix.matrix)
    again = selection_rule(SymbolicMatrix.from_rational(once))
    assert np.all(once == again)


@given(st.lists(st.lists(fractions_st, min_size=2, max_size=2), min_size=2, max_size=2),
       st.lists(st.lists(fractions_st, min_size=2, max_size=2), min_size=2, max_size=2))
@settings(max_examples=30, deadline=None)
def test_selection_rule_idempotent_property(rs, ss):
    sym = symbolic_from_lists(rs, ss)
    once = selection_rule(sym)
    assert np.all(selection_rule(SymbolicMatrix.from_rational(once)) == once)


def test_symbolic_matrix_symmetry_and_json_round_trip():
    from rhomean.jsonio import symbolic_matrix_from_json, symbolic_matrix_to_json

    fix = get_fixture("n3m2")
    assert fix.matrix.is_symmetric()
    back = symbolic_matrix_from_json(symbolic_matrix_to_json(fix.matrix))
    assert back == fix.matrix


def test_cluster_spectrum_fixture_multiplicities():
    fix = get_fixture("n3m2")
    vals, vecs = hermitian_eig(substitute_v(fix.matrix, math.pi))
    dec = cluster_spectrum(vals, vecs, cluster_tol=1e-9)
    assert sorted(dec.multiplicities, reverse=True) == [3, 2, 1, 1, 1, 1]
    assert dec.stable
    assert sum(dec.multiplicities) == 9
    # cluster bases are the eigenvector columns in eigenvalue order, bit for bit,
    # and so orthonormal and mutually orthogonal
    basis = np.hstack([c.basis for c in dec.clusters])
    assert np.array_equal(basis, vecs[:, np.argsort(vals)])
    assert np.abs(basis.conj().T @ basis - np.eye(9)).max() < 1e-10


def test_cluster_spectrum_n4m2_fixture():
    fix = get_fixture("n4m2")
    vals, vecs = hermitian_eig(fix.matrix.rpart.astype(float))
    dec = cluster_spectrum(vals, vecs, cluster_tol=1e-9)
    assert sorted(dec.multiplicities, reverse=True) == [6, 3, 2, 2, 1, 1, 1]


def test_cluster_spectrum_identity_and_instability_flag():
    vals, vecs = hermitian_eig(np.eye(4))
    dec = cluster_spectrum(vals, vecs, 1e-9)
    assert dec.multiplicities == (4,)
    # a gap inside (tol, 3 tol) flags the decomposition as unstable
    diag = np.diag([0.0, 1.5e-9, 1.0])
    vals, vecs = hermitian_eig(diag)
    dec = cluster_spectrum(vals, vecs, 1e-9)
    assert not dec.stable


def test_subspace_distance_basic():
    e = np.eye(4)
    assert subspace_distance(e[:, :2], e[:, :2]) == 0
    assert abs(subspace_distance(e[:, :1], e[:, 1:2]) - 1) < 1e-14
    # invariant under basis rotation within the span
    rot = e[:, :2] @ np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    assert subspace_distance(e[:, :2], rot) < 1e-14
    with pytest.raises(ValueError):
        subspace_distance(np.eye(3)[:, :1], np.eye(4)[:, :1])


def test_subspace_distance_is_metric_on_random_subspaces():
    rng = np.random.default_rng(0)
    def random_basis():
        q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        return q
    for _ in range(10):
        a, b, c = random_basis(), random_basis(), random_basis()
        dab, dbc, dac = (subspace_distance(x, y) for x, y in ((a, b), (b, c), (a, c)))
        assert abs(subspace_distance(a, b) - subspace_distance(b, a)) < 1e-12
        assert dac <= dab + dbc + 1e-12


def test_eigenvector_check():
    mat = np.diag([1.0, 2.0, 3.0])
    assert eigenvector_check(mat, np.array([1, 0, 0]), 1.0) == 0
    res = eigenvector_check(mat, np.array([1, 0, 0]), 1.1)
    assert abs(res - 0.1) < 1e-14
    with pytest.raises(ValueError):
        eigenvector_check(mat, np.array([1, 0, 0]), 1.1, tol=1e-3)
    with pytest.raises(ValueError):
        eigenvector_check(mat, np.array([1, 0]), 1.0)


@pytest.mark.parametrize("u", [-2.0, 0.3])
def test_spherically_symmetric_families_share_eigenspaces(u):
    from rhomean.measures import BlochBallMeasure

    est = estimate_mean(BlochBallMeasure(u=u), 2, 50_000, seed=21)
    vals, vecs = hermitian_eig(est.mean, tol=10 * est.stderr_max)
    dec = cluster_spectrum(vals, vecs, cluster_tol=10 * est.stderr_max)
    oracle = haar_mean(2, 2, 0)
    vals_o, vecs_o = hermitian_eig(oracle.mean_float())
    dec_o = cluster_spectrum(vals_o, vecs_o, 1e-12)
    assert dec.multiplicities == dec_o.multiplicities == (1, 3)
    for cl, cl_o in zip(dec.clusters, dec_o.clusters):
        assert subspace_distance(cl.basis, cl_o.basis) <= 0.05

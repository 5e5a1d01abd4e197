"""Tensor-space operations: conventions pinned by the published fixtures."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhomean.fixtures import get_fixture
from rhomean.linalg import (
    Scenario,
    bloch_density,
    check_dim_cap,
    distinct_entries,
    hermitian_eig,
    monomial_index,
    monomial_sets,
    partial_trace,
    permutation_operator,
    reorder_subsystems,
    tensor_power,
    tensor_product,
    validate_density_matrix,
)
from rhomean.measures import HaarDirichletMeasure, RandomStream, sample_density
from rhomean.spectral import substitute_v
from rhomean.symmetry import compose, cycle_type, inverse


def random_density(n, seed):
    return sample_density(HaarDirichletMeasure(n=n), RandomStream(seed))


def test_tensor_product_identity_and_diagonal():
    i2 = np.eye(2)
    assert np.array_equal(tensor_product(i2, i2), np.eye(4))
    a = np.diag([1.0, 0.0])
    b = np.diag([0.5, 0.5])
    assert np.allclose(tensor_product(a, b), np.diag([0.5, 0.5, 0.0, 0.0]))


def test_tensor_product_of_fully_mixed_states():
    # I/2 x I/3 is the diagonal matrix with entries 1/6
    out = tensor_product(np.eye(2) / 2, np.eye(3) / 3)
    assert np.allclose(out, np.eye(6) / 6)


def test_tensor_power_basics():
    assert np.allclose(tensor_power(np.eye(2) / 2, 2), np.eye(4) / 4)
    pure = np.diag([1.0, 0.0])
    p3 = tensor_power(pure, 3)
    assert np.allclose(p3, np.diag([1.0] + [0.0] * 7))
    rho = random_density(3, seed=5)
    assert abs(tensor_power(rho, 2).trace() - 1) < 1e-12


def test_tensor_power_cap():
    with pytest.raises(ValueError):
        tensor_power(np.eye(2) / 2, 13)  # 2^13 = 8192 > 4096
    with pytest.raises(ValueError):
        tensor_power(np.eye(2) / 2, 0)
    with pytest.raises(ValueError):
        permutation_operator(tuple(range(13)), 2, 13)  # 2^13 = 8192 > 4096


def test_partial_trace_of_fixture():
    # tracing either three-level subsystem of the 9x9 fixture gives I/3
    fix = get_fixture("n3m2")
    mat = substitute_v(fix.matrix, math.pi)
    for keep in ((0,), (1,)):
        red = partial_trace(mat, [3, 3], keep)
        assert np.abs(red - np.eye(3) / 3).max() < 1e-15


def test_partial_trace_identity_case():
    red = partial_trace(np.eye(4) / 4, [2, 2], (1,))
    assert np.allclose(red, np.eye(2) / 2)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_partial_trace_recovers_factors(seed):
    rho_a = random_density(2, seed)
    rho_b = random_density(3, seed + 1)
    joint = tensor_product(rho_a, rho_b)
    assert np.abs(partial_trace(joint, [2, 3], (0,)) - rho_a).max() < 1e-12
    assert np.abs(partial_trace(joint, [2, 3], (1,)) - rho_b).max() < 1e-12


def test_partial_trace_errors():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4) / 4, [2, 3], (0,))
    with pytest.raises(ValueError):
        partial_trace(np.eye(4) / 4, [2, 2], ())


def test_reorder_subsystems():
    rho_a = random_density(2, seed=7)
    rho_b = random_density(3, seed=8)
    joint = tensor_product(rho_a, rho_b)
    assert np.array_equal(reorder_subsystems(joint, [2, 3], (0, 1)), joint)
    swapped = reorder_subsystems(joint, [2, 3], (1, 0))
    assert np.abs(swapped - tensor_product(rho_b, rho_a)).max() < 1e-15
    # unitary conjugation: spectrum unchanged
    s1 = np.linalg.eigvalsh(joint)
    s2 = np.linalg.eigvalsh(swapped)
    assert np.abs(s1 - s2).max() < 1e-12
    with pytest.raises(ValueError):
        reorder_subsystems(joint, [2, 3], (0, 0))


def test_permutation_operator_swap():
    swap = permutation_operator((1, 0), 2, 2)
    expected = np.zeros((4, 4))
    for r, c in [(0, 0), (1, 2), (2, 1), (3, 3)]:
        expected[r, c] = 1
    assert np.array_equal(swap, expected)
    assert np.array_equal(permutation_operator((0, 1, 2), 2, 3), np.eye(8))


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (3, 4)])
def test_permutation_operator_is_representation(n, m):
    """V_sigma V_tau = V_(sigma tau) and V_sigma^T = V_(sigma^-1), exhaustively."""
    from itertools import permutations

    perms = list(permutations(range(m)))
    ops = {p: permutation_operator(p, n, m) for p in perms}
    for p in perms:
        assert np.array_equal(ops[p].T, ops[inverse(p)])
        # doubly stochastic 0/1 with one 1 per row/column
        assert np.array_equal(ops[p].sum(axis=0), np.ones(n**m))
        assert np.array_equal(ops[p].sum(axis=1), np.ones(n**m))
    for p in perms:
        for q in perms:
            assert np.array_equal(ops[p] @ ops[q], ops[compose(p, q)])


def test_permutation_operator_trace_counts_cycles():
    from itertools import permutations

    for sigma in permutations(range(3)):
        v = permutation_operator(sigma, 3, 3)
        assert v.trace() == 3 ** len(cycle_type(sigma))


def test_hermitian_eig_identity_and_fixtures():
    vals, vecs = hermitian_eig(np.eye(4))
    assert np.allclose(vals, 1.0)
    fix = get_fixture("n2m2")
    vals, vecs = hermitian_eig(fix.matrix.rpart.astype(float))
    assert np.abs(np.sort(vals) - np.array([1 / 6, 5 / 18, 5 / 18, 5 / 18])).max() < 1e-14
    mat = substitute_v(get_fixture("n3m2").matrix, math.pi)
    vals, vecs = hermitian_eig(mat)
    # eigendecomposition contract: orthonormality and residual
    assert np.abs(vecs @ vecs.conj().T - np.eye(9)).max() < 1e-10
    assert np.abs(mat @ vecs - vecs * vals).max() < 1e-10 * np.abs(mat).max()


def test_hermitian_eig_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        hermitian_eig(bad)


def test_density_validation_and_bloch():
    validate_density_matrix(np.eye(2) / 2)
    rho = bloch_density(0.3, 1.0, 2.0)
    validate_density_matrix(rho)
    assert abs(rho.trace() - 1) < 1e-15
    with pytest.raises(ValueError):
        validate_density_matrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        bloch_density(1.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        validate_density_matrix(np.array([[1.5, 0], [0, -0.5]]))  # negative eigenvalue


def test_density_eigenvalues_bounded():
    for seed in range(5):
        rho = random_density(3, seed)
        vals = np.linalg.eigvalsh(rho)
        assert vals[0] >= -1e-10
        assert vals[-1] <= 1 + 1e-10
        assert abs(vals.sum() - 1) < 1e-10


def test_scenario():
    sc = Scenario(factors=(2, 3, 2), power=2)
    assert sc.base_dim == 12
    assert sc.dim == 144
    with pytest.raises(ValueError):
        Scenario(factors=(1, 3), power=2)
    with pytest.raises(ValueError):
        Scenario(factors=(2,), power=0)
    with pytest.raises(ValueError, match=r"^factors\[1\] must be an integer"):
        Scenario(factors=(2, 2.5), power=2)
    with pytest.raises(ValueError, match="^power must be an integer"):
        Scenario(factors=(2,), power=2.0)
    # index-like integers are taken as they are
    sc = Scenario(factors=[np.int64(2)], power=np.int32(3))
    assert sc == Scenario(factors=(2,), power=3) and type(sc.power) is int
    with pytest.raises(ValueError):
        check_dim_cap(Scenario(factors=(8,), power=5).dim)


def setdefault_labels(seq):
    """Reference labeller: one dict.setdefault per entry, first-seen order."""
    first: dict = {}
    index = [first.setdefault(x, len(first)) for x in seq]
    return list(first), index


# equal values of different types hash alike, so which one is seen first
# decides the stored value: Fraction(1, 2) == 0.5 and 1 == True == 1.0
_equal_values = st.sampled_from([Fraction(1, 2), 0.5, 1, True, 1.0, Fraction(1), 0, False, -0.0])
_entries = st.one_of(_equal_values, st.fractions(-2, 2, max_denominator=6), st.text(max_size=2))


@given(st.lists(_entries))
@settings(max_examples=200, deadline=None)
def test_distinct_entries_matches_setdefault_loop(seq):
    values, index = distinct_entries(seq)
    ref_values, ref_index = setdefault_labels(seq)
    assert values == ref_values
    assert [type(v) for v in values] == [type(v) for v in ref_values]
    assert index.dtype == np.intp and index.tolist() == ref_index


@pytest.mark.parametrize("dim, m", [(2, 1), (2, 7), (3, 4), (4, 3), (9, 2), (16, 1), (257, 1)])
def test_monomial_sets_lists_the_positions_of_each_ranked_monomial(dim, m):
    sets, index = monomial_sets(dim, m), monomial_index(dim, m)
    assert sets.shape == (math.comb(dim * dim + m - 1, m), m)
    # the least unsigned dtype that holds dim^2 - 1: uint8 up to dim 16, uint32 at 257
    assert sets.dtype == np.min_scalar_type(dim * dim - 1)
    assert np.iinfo(sets.dtype).max >= dim * dim - 1
    # entry (I, J) = (i_0..i_(m-1), j_0..j_(m-1)) has the positions i_k * dim + j_k
    digits = np.indices((dim,) * (2 * m)).reshape(2 * m, -1)
    positions = np.sort((digits[:m] * dim + digits[m:]).T, axis=1)
    assert np.array_equal(sets[index], positions)

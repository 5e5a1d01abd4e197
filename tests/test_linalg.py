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
    _components,
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
    # block diagonal, with a complex diagonal entry in its second block
    with pytest.raises(ValueError):
        hermitian_eig(np.diag([1.0, 2.0 + 1e-6j, 3.0]))
    # a non-finite entry, in a block of its own or not: one eigh of it raised
    # or returned NaN, and a batched eigh of its block returns NaN eigenvalues
    # with no error
    for bad in (np.nan, np.inf, complex(0, np.nan)):
        for h in (np.diag([1.0, 2.0, 3.0]), np.ones((3, 3))):
            h = h.astype(type(bad))
            h[0, 1] = h[1, 0] = bad
            with pytest.raises(ValueError, match="non-finite"):
                hermitian_eig(h)


def permuted_block_diagonal(sizes, seed, complex_entries):
    """A random Hermitian matrix of dense blocks of the given sizes, rows shuffled, and each row's block."""
    rng = np.random.default_rng(seed)
    d = sum(sizes)
    h = np.zeros((d, d), dtype=complex if complex_entries else float)
    block = np.repeat(np.arange(len(sizes)), sizes)
    for b, s in enumerate(sizes):
        a = rng.normal(size=(s, s)) + (1j * rng.normal(size=(s, s)) if complex_entries else 0)
        h[np.ix_(block == b, block == b)] = a + a.conj().T
    perm = rng.permutation(d)
    return h[np.ix_(perm, perm)], block[perm]


@given(st.lists(st.integers(1, 7), min_size=1, max_size=9), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=80, deadline=None)
def test_hermitian_eig_splits_permuted_block_diagonal_matrices(sizes, seed, complex_entries):
    h, block = permuted_block_diagonal(sizes, seed, complex_entries)
    vals, vecs = hermitian_eig(h)
    assert vecs.dtype == h.dtype
    assert np.all(np.diff(vals) >= 0)
    assert np.abs(vals - np.linalg.eigvalsh(h)).max() < 1e-12
    assert np.abs(vecs.conj().T @ vecs - np.eye(len(h))).max() < 1e-12
    assert np.abs(h @ vecs - vecs * vals).max() < 1e-12
    # each eigenvector lies in one block exactly: its entries elsewhere are 0, not roundoff
    for column in vecs.T:
        assert len(set(block[column != 0].tolist())) == 1


def search_components(linked):
    """Reference: a depth-first search from each unlabelled node, in node order."""
    labels = [-1] * len(linked)
    for root in range(len(linked)):
        if labels[root] >= 0:
            continue
        labels[root], stack = root, [root]
        while stack:
            for v in np.flatnonzero(linked[stack.pop()]).tolist():
                if labels[v] < 0:
                    labels[v] = root
                    stack.append(v)
    return labels


@given(st.integers(1, 80), st.floats(0, 0.2), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=150, deadline=None)
def test_components_are_labelled_by_their_least_node(d, density, seed, add_path):
    rng = np.random.default_rng(seed)
    linked = rng.random((d, d)) < density
    if add_path:  # a long chain through a random order of the nodes
        order = rng.permutation(d)
        linked[order[:-1], order[1:]] = True
    linked |= linked.T
    assert _components(linked).tolist() == search_components(linked)


@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=40, deadline=None)
def test_hermitian_eig_of_a_matrix_without_zeros_is_one_eigh(d, seed, complex_entries):
    rng = np.random.default_rng(seed)
    h = rng.uniform(0.5, 1.5, (d, d)) * rng.choice([-1, 1], (d, d))
    if complex_entries:
        h = h + 1j * rng.uniform(0.5, 1.5, (d, d))
    h = h + h.conj().T + rng.uniform(-1e-12, 1e-12, (d, d))  # a defect within tol, averaged away
    vals, vecs = hermitian_eig(h)
    ref_vals, ref_vecs = np.linalg.eigh((h + h.conj().T) / 2)
    assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)


def test_hermitian_eig_of_diagonal_and_small_matrices():
    vals, vecs = hermitian_eig(np.eye(4))
    assert np.array_equal(vals, np.ones(4)) and np.array_equal(vecs, np.eye(4))
    vals, vecs = hermitian_eig(np.diag([3.0, -1.0, 2.0, -1.0]))
    # the stable sort keeps equal values in row order
    assert np.array_equal(vals, [-1.0, -1.0, 2.0, 3.0])
    assert np.array_equal(vecs, np.eye(4)[:, [1, 3, 2, 0]])
    # a zero row and column is an eigenvector of 0 by itself
    h = np.array([[2.0, 0.0, 1j], [0.0, 0.0, 0.0], [-1j, 0.0, 2.0]])
    vals, vecs = hermitian_eig(h)
    assert np.abs(vals - [0.0, 1.0, 3.0]).max() < 1e-15
    assert np.array_equal(vecs[:, 0], [0, 1, 0]) and np.all(vecs[1, 1:] == 0)
    assert np.abs(h @ vecs - vecs * vals).max() < 1e-15
    vals, vecs = hermitian_eig(np.array([[5.0]]))
    assert np.array_equal(vals, [5.0]) and np.array_equal(vecs, [[1.0]])
    # integer input is averaged to floats, as one eigh of it would be
    vals, vecs = hermitian_eig(np.array([[2, 0], [0, 1]]))
    assert vals.dtype == float and np.array_equal(vals, [1.0, 2.0])


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


def two_pass_labels(seq):
    """Reference labeller in two passes: the distinct values first, then each entry's lookup."""
    first = {x: i for i, x in enumerate(dict.fromkeys(seq))}
    return list(first), np.fromiter(map(first.__getitem__, seq), np.intp, len(seq))


# equal values of different types hash alike, so which one is seen first
# decides the stored value: Fraction(1, 2) == 0.5 and 1 == True == 1.0
_equal_values = st.sampled_from([Fraction(1, 2), 0.5, 1, True, 1.0, Fraction(1), 0, False, -0.0])
_entries = st.one_of(_equal_values, st.fractions(-2, 2, max_denominator=6), st.text(max_size=2))


@given(st.lists(_entries))
@settings(max_examples=200, deadline=None)
def test_distinct_entries_matches_setdefault_loop(seq):
    values, index = distinct_entries(seq)
    for ref_values, ref_index in (setdefault_labels(seq), two_pass_labels(seq)):
        assert values == ref_values
        assert [type(v) for v in values] == [type(v) for v in ref_values]
        assert index.dtype == np.intp and index.tolist() == list(ref_index)


def test_distinct_entries_rejects_unhashable_entries():
    with pytest.raises(TypeError):
        distinct_entries(["1/2", Fraction(1, 2), ["1/2"]])


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

"""Partitions, characters and dimension formulas, checked against first principles."""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhomean.oracle import _irreps
from rhomean.symmetry import (
    beta_set,
    class_elements,
    class_size,
    compose,
    cycle_type,
    identity,
    inverse,
    partitions,
    power_sum_characters,
)


def _beta_set(lam):
    ell = len(lam)
    return tuple(lam[i] + (ell - 1 - i) for i in range(ell))


def _partition_from_beta(beta):
    beta = sorted(beta, reverse=True)
    ell = len(beta)
    lam = tuple(beta[i] - (ell - 1 - i) for i in range(ell))
    return tuple(x for x in lam if x > 0)


@lru_cache(maxsize=None)
def character(lam, mu):
    """Irreducible S_m character chi^lam evaluated on cycle type mu.

    Murnaghan-Nakayama recursion in the beta-set picture: removing a border
    strip of length k is subtracting k from one first-column hook length,
    with sign (-1)^(number of hooks jumped).  The reference for
    ``power_sum_characters``, which adds the strips instead.
    """
    if sum(lam) != sum(mu):
        raise ValueError("partition sizes differ")
    if not mu:
        return 1
    k = mu[0]
    beta = _beta_set(lam)
    in_beta = set(beta)
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in in_beta:
            continue
        height = sum(1 for x in beta if nb < x < b)
        newbeta = [x for x in beta if x != b] + [nb]
        total += (-1) ** height * character(_partition_from_beta(newbeta), mu[1:])
    return total


def weyl_dimension(lam, n):
    """dim_U(lam) as prod_{i<j<=n} (lam_i - lam_j + j - i) / (j - i), lam padded with zeros to n rows; 0 past n rows."""
    if len(lam) > n:
        return 0
    row = list(lam) + [0] * (n - len(lam))
    return prod(Fraction(row[i] - row[j] + j - i, j - i) for i in range(n) for j in range(i + 1, n))


def irrep_dimensions(n, m):
    """{lam: (f^lam, dim_U(lam))} as the oracle reads them off its character rows."""
    lams = [lam for lam in partitions(m) if len(lam) <= n]
    irreps = _irreps(n, m)
    assert [lam for lam, *_ in irreps] == lams  # and none for a lam with more than n rows
    return {lam: (f, wdim) for lam, f, wdim, _ in irreps}


def test_partition_counts():
    # p(n) for n = 0..8
    for n, count in enumerate([1, 1, 2, 3, 5, 7, 11, 15, 22]):
        assert len(partitions(n)) == count


def test_cycle_type_and_compose():
    assert cycle_type((0, 1, 2)) == (1, 1, 1)
    assert cycle_type((1, 0, 2)) == (2, 1)
    assert cycle_type((1, 2, 0)) == (3,)
    swap, cyc = (1, 0, 2), (1, 2, 0)
    assert compose(swap, inverse(swap)) == identity(3)
    assert cycle_type(compose(swap, cyc)) in ((2, 1), (1, 1, 1))


def test_class_sizes_sum_to_group_order():
    for m in range(2, 7):
        assert sum(class_size(ct) for ct in partitions(m)) == factorial(m)


@pytest.mark.parametrize("m", range(8))
def test_class_elements_partition_the_group(m):
    union = []
    for ct in partitions(m):
        elems = list(class_elements(ct))
        assert len(elems) == len(set(elems)) == class_size(ct)
        assert all(cycle_type(p) == ct for p in elems)
        union += elems
    assert sorted(union) == list(permutations(range(m)))


def test_s3_character_table():
    # rows: trivial, standard, sign; columns: (1,1,1), (2,1), (3,)
    table = {
        (3,): [1, 1, 1],
        (2, 1): [2, 0, -1],
        (1, 1, 1): [1, -1, 1],
    }
    for lam, row in table.items():
        got = [character(lam, mu) for mu in [(1, 1, 1), (2, 1), (3,)]]
        assert got == row


def test_s4_character_table_spot():
    assert character((2, 2), (1, 1, 1, 1)) == 2
    assert character((2, 2), (2, 1, 1)) == 0
    assert character((2, 2), (2, 2)) == 2
    assert character((2, 2), (4,)) == 0
    assert character((3, 1), (2, 2)) == -1


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_character_orthogonality(m):
    lams = partitions(m)
    for i, l1 in enumerate(lams):
        for l2 in lams[i:]:
            total = sum(
                class_size(ct) * character(l1, ct) * character(l2, ct) for ct in lams
            )
            assert total == (factorial(m) if l1 == l2 else 0)


@given(st.integers(1, 11).flatmap(lambda m: st.tuples(st.just(m), st.integers(m, m + 3))))
@settings(max_examples=20, deadline=None)
def test_strip_built_characters_are_orthogonal(mn):
    # with n >= m every partition of m has a beta set: sum_K |K| chi^lam(K) chi^mu(K) = m! delta
    m, n = mn
    lams = partitions(m)
    tables = [power_sum_characters(n, ct) for ct in lams]
    betas = [beta_set(lam, n) for lam in lams]
    assert all(set(t) <= set(betas) for t in tables)  # no key but a partition of m
    for i, b1 in enumerate(betas):
        for b2 in betas[i:]:
            total = sum(class_size(ct) * t.get(b1, 0) * t.get(b2, 0) for ct, t in zip(lams, tables))
            assert total == (factorial(m) if b1 == b2 else 0), (m, n)


def test_beta_set_pads_to_n_rows():
    assert beta_set((2, 1), 3) == (0, 2, 4)
    assert beta_set((), 2) == (0, 1)
    assert power_sum_characters(2, ()) == {(0, 1): 1}
    # p_3 in two variables is s_3 - s_21; s_111 has three rows and no key
    assert power_sum_characters(2, (3,)) == {beta_set((3,), 2): 1, beta_set((2, 1), 2): -1}


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_hook_dimension_equals_character_at_identity(m):
    one = tuple([1] * m)
    for n in range(1, m + 1):
        for lam, (f, _) in irrep_dimensions(n, m).items():
            assert f == character(lam, one), (lam, n)


def test_unitary_group_dimensions():
    # symmetric and antisymmetric powers of C^n
    from math import comb

    for n in (2, 3, 4):
        for m in (2, 3, 4):
            dims = irrep_dimensions(n, m)
            assert dims[(m,)][1] == comb(n + m - 1, m)
            assert dims.get(tuple([1] * m), (0, 0))[1] == comb(n, m)
    # rows beyond n vanish: (3) and (2, 1) have rows at n = 2, (1, 1, 1) has none
    assert [(lam, f, wdim) for lam, f, wdim, _ in _irreps(2, 3)] == [((3,), 1, 4), ((2, 1), 2, 2)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_unitary_group_dimension_matches_weyl_product(n):
    for m in range(11):
        for lam, (_, got) in irrep_dimensions(n, m).items():
            assert type(got) is int
            assert got == weyl_dimension(lam, n), (lam, n)


def test_schur_weyl_dimension_count():
    # sum over partitions of f^lam * dim U(n)-irrep = n^m
    for n in (2, 3):
        for m in (2, 3, 4, 5, 6):
            assert sum(f * wdim for f, wdim in irrep_dimensions(n, m).values()) == n**m

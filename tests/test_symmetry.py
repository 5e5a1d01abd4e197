"""Partitions, characters and dimension formulas, checked against first principles."""

from fractions import Fraction
from itertools import permutations
from math import factorial, prod

import pytest

from rhomean.symmetry import (
    character,
    class_elements,
    class_size,
    compose,
    cycle_type,
    identity,
    inverse,
    partitions,
    symmetric_group_dimension,
    unitary_group_dimension,
)


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


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_hook_dimension_equals_character_at_identity(m):
    one = tuple([1] * m)
    for lam in partitions(m):
        assert symmetric_group_dimension(lam) == character(lam, one)


def test_unitary_group_dimensions():
    # symmetric and antisymmetric powers of C^n
    from math import comb

    for n in (2, 3, 4):
        for m in (2, 3, 4):
            assert unitary_group_dimension((m,), n) == comb(n + m - 1, m)
            lam = tuple([1] * m)
            assert unitary_group_dimension(lam, n) == comb(n, m)
    # rows beyond n vanish
    assert unitary_group_dimension((1, 1, 1), 2) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_unitary_group_dimension_matches_weyl_product(n):
    # prod_{i<j<=n} (lam_i - lam_j + j - i) / (j - i), lam padded with zeros to n rows
    for m in range(11):
        for lam in partitions(m):
            got = unitary_group_dimension(lam, n)
            assert type(got) is int
            if len(lam) > n:
                assert got == 0
                continue
            row = list(lam) + [0] * (n - len(lam))
            weyl = prod(
                Fraction(row[i] - row[j] + j - i, j - i) for i in range(n) for j in range(i + 1, n)
            )
            assert got == weyl, (lam, n)


def test_schur_weyl_dimension_count():
    # sum over partitions of f^lam * dim U(n)-irrep = n^m
    for n in (2, 3):
        for m in (2, 3, 4, 5, 6):
            total = sum(
                symmetric_group_dimension(lam) * unitary_group_dimension(lam, n)
                for lam in partitions(m)
            )
            assert total == n**m

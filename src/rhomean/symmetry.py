"""Combinatorics of the symmetric group and tensor-space representation data.

Everything here is exact: partitions, cycle types, class sizes and the
irreducible characters (power sums in the Schur basis of N variables, built a
border strip at a time).  The character rows carry both dimensions that pair
on (C^N)^(x m): the oracle reads f^lam and dim_U(lam) off them, so no
hook-length formula is kept.  These are the ingredients that turn power-sum
moments into exact eigenvalue/multiplicity tables.

A conjugacy class of S_m is named by its cycle type, a partition of m.  The
only place single permutations are needed is the oracle's matrix build, and
``class_elements`` generates them one class at a time from the cycle type,
never enumerating S_m.  ``cycle_type``, ``compose``, ``inverse`` and
``identity`` act on single permutations; the tests use them as references.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from functools import lru_cache
from itertools import permutations
from math import factorial


@lru_cache(maxsize=None)
def partitions(n: int, _cap: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of n as weakly decreasing tuples, in reverse-lex order, built once per (n, cap)."""
    if _cap is None:
        _cap = n
    if n == 0:
        return ((),)
    return tuple((k,) + rest for k in range(min(n, _cap), 0, -1) for rest in partitions(n - k, k))


def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle type of a permutation given as a tuple of 0-based images."""
    m = len(perm)
    seen = [False] * m
    lengths = []
    for start in range(m):
        if seen[start]:
            continue
        n, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            n += 1
        lengths.append(n)
    return tuple(sorted(lengths, reverse=True))


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Composition p*q acting as (p*q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def identity(m: int) -> tuple[int, ...]:
    return tuple(range(m))


def class_elements(ct: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Yield each of the |K| permutations of cycle type ct exactly once.

    The cycle through the smallest free slot takes each distinct remaining
    length once, and each ordered choice of its other slots; the rest of the
    type is placed on the slots left free.  No other class of S_m is visited.
    """
    image = list(range(sum(ct)))

    def fill(free: tuple[int, ...], lengths: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if not free:
            yield tuple(image)
            return
        head, rest = free[0], free[1:]
        for i, length in enumerate(lengths):
            if length in lengths[:i]:
                continue
            for tail in permutations(rest, length - 1):
                cycle = (head,) + tail
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    image[a] = b
                left = tuple(x for x in rest if x not in tail)
                yield from fill(left, lengths[:i] + lengths[i + 1 :])

    yield from fill(tuple(image), tuple(ct))


def class_size(ct: tuple[int, ...]) -> int:
    """|K| = m! / z_ct with z the size of the centralizer."""
    m = sum(ct)
    z = 1
    mult: dict[int, int] = {}
    for length in ct:
        z *= length
        mult[length] = mult.get(length, 0) + 1
    for k in mult.values():
        z *= factorial(k)
    return factorial(m) // z


def beta_set(lam: tuple[int, ...], n: int) -> tuple[int, ...]:
    """lam_i + n - 1 - i for lam padded with zeros to n rows, ascending."""
    return tuple(x + j for j, x in enumerate(reversed(lam + (0,) * (n - len(lam)))))


@lru_cache(maxsize=None)
def power_sum_characters(n: int, mu: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """p_mu in the Schur basis of n variables: {beta_set(lam, n): chi^lam(mu)}, cached and shared.

    Multiplying s_lam by p_k, for the last part k of mu, moves one beta entry b
    up to a free b + k (a border strip), with sign (-1)^(entries jumped); n
    entries hold no partition of more than n rows, and chi = 0 keeps no key.
    """
    if not mu:
        return {tuple(range(n)): 1}
    k, out = mu[-1], {}
    for beta, c in power_sum_characters(n, mu[:-1]).items():
        for i, b in enumerate(beta):
            j = bisect_left(beta, b + k)
            if j == n or beta[j] != b + k:
                key = beta[:i] + beta[i + 1 : j] + (b + k,) + beta[j:]
                out[key] = out.get(key, 0) + (c if (j - i) % 2 else -c)
    return {beta: c for beta, c in out.items() if c}

"""Exact mean density matrices of tensor powers under unitarily invariant laws.

For a random density matrix rho = U diag(e) U+ whose law is invariant under
unitary conjugation, the mean of rho^(x m) commutes with every W^(x m) and
therefore lies in the span of the tensor-slot permutation operators V_sigma.
Conjugation invariance under S_m further restricts it to the span of class
sums W_K, which act on the SU(N) x S_m isotypic component lam of (C^N)^(x m)
as the scalar |K| chi^lam(K) / f^lam.  The mean acts there as the scalar

    c_lam = E[s_lam(e)] / dim_U(lam),
    E[s_lam(e)] = sum_mu chi^lam(mu) |mu| E[p_mu(e)] / m!,

so the eigenvalue on each component needs only the law's power-sum moments
(``power_sum_moment``).  There is one moment formula, the Dirichlet sum over
level assignments; the Bloch family enters as a mixture of two-level Dirichlet
laws.  Moments over one integer denominator and rows |K| chi^lam(K) once per
(N, m) are both folded a cycle at a time on cycle-type prefixes (the moments'
exponent counts kept for one call, the rows' tables for the process); f^lam
and dim_U(lam) are read off the same rows.  The records (lam, f^lam,
dim_U(lam), c_lam) are the stored form of a single law's result: the exact
spectrum merges them, with no solve, no enumeration of S_m and no matrix.
Only the matrix needs the class coefficients, solved once on first read by
Gauss-Jordan in integers from the character system sum_K a_K |K| chi^lam(K) /
f^lam = c_lam, one row per lam with at most N rows.  An entry depends only on
its monomial, so the matrix is counted on the colex multisets
(``linalg.monomial_sets``) and gathered once into ``linalg.monomial_index`` as
labels: distinct Fractions ``values`` (17 of 65536 entries at N=4, m=4) and a
(D, D) integer array; Kronecker products and reordering touch each value once,
and the dense matrix is gathered on demand.  Everything is exact rational
arithmetic; eigenvalues and multiplicities come from the irreducible
components of (C^N)^(x m), not from diagonalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import accumulate
from math import factorial, gcd, lcm, prod
from numbers import Real
from operator import mul

import numpy as np

from .linalg import (
    Scenario,
    check_dim_cap,
    distinct_entries,
    monomial_index,
    monomial_sets,
    reorder_subsystems,
)
from .measures import (
    BlochBallMeasure,
    HaarDirichletMeasure,
    MeasureSpec,
    ProductMeasure,
    scenario_for,
)
from .symmetry import (
    beta_set,
    class_elements,
    class_size,
    partitions,
    power_sum_characters,
)

Labelled = tuple[list[Fraction], np.ndarray]  # matrix values[labels], values distinct


def _rising_factorials(q: tuple, top: int) -> list[list[int]]:
    """Rows d^k (alpha)_k for k <= top, one per level and then one for sum(alpha).

    alpha_i = 1 - q_i = a_i / d over the common denominator d (a power of two
    for float q), so every row is an integer product prod_{t<k} (a + t d).
    """
    alphas = [1 - Fraction(x) for x in q]
    d = lcm(*(a.denominator for a in alphas))
    nums = [int(a * d) for a in alphas]
    return [list(accumulate((a + t * d for t in range(top)), mul, initial=1)) for a in (*nums, sum(nums))]


def dirichlet_moment(q: tuple, k: tuple[int, ...]) -> Fraction:
    """E[prod_i e_i^{k_i}] on the simplex of len(q) levels, exponents -q_i.

    The density is proportional to prod e_i^{-q_i}, i.e. Dirichlet with
    concentrations alpha_i = 1 - q_i; the moment is a ratio of rising
    factorials and hence exactly rational for rational q.
    """
    if len(k) != len(q) or any(x < 0 for x in k):
        raise ValueError("exponent vector must list one value >= 0 per level")
    *rows, total = _rising_factorials(q, sum(k))
    return Fraction(prod(row[x] for row, x in zip(rows, k)), total[-1])


def power_sum_moment(law: MeasureSpec, cycle_lengths: tuple[int, ...]) -> Fraction:
    """E[prod_j p_{l_j}(e)] with p_l the l-th power sum of the eigenvalues.

    This is E[prod_cycles tr(rho^{cycle length})], the quantity pairing the
    mean of rho^(x m) with a permutation operator of the given cycle type.
    Length-1 cycles contribute p_1 = 1 exactly.  Under a Dirichlet law the
    other cycles, of total length L, expand over level assignments into
    Dirichlet moments prod_i row_i[k_i] / total[L], one per exponent vector k
    times its count (``_exponent_counts``).  The Bloch law is a mixture of
    three such laws on two levels: r = e_1 - e_2 has density r^2 (1-r^2)^(-u)
    and 1 - r^2 = 4 e_1 e_2, so the eigenvalues have density proportional to
    e_1^(2-u) e_2^(-u) - 2 (e_1 e_2)^(1-u) + e_1^(-u) e_2^(2-u), and
    E_Bloch = (2-u)(E_a + E_c)/2 - (1-u) E_b with a, b, c the Dirichlet laws
    of exponents q = (u-2, u), (u-1, u-1) and (u, u-2).  All three share the
    denominator of their rising factorials (sum alpha = 4 - 2u), and c is a
    with its levels swapped, so E_c = E_a for these symmetric functions.
    """
    if any(l < 1 for l in cycle_lengths):
        raise ValueError("cycle lengths must be positive")
    (num,), den = _power_sum_moments(law, [tuple(cycle_lengths)], sum(cycle_lengths))
    return Fraction(num, den)


def _exponent_counts(n: int, lens: tuple[int, ...], memo: dict) -> dict[tuple[int, ...], int]:
    """How many assignments of cycles of lengths ``lens`` to n levels give each exponent vector.

    ``memo`` maps the cycle-length prefixes counted so far to their counts; the
    caller starts it at ``{(): {(0,) * n: 1}}`` and keeps it for one batch.
    """
    if lens not in memo:
        out: dict[tuple[int, ...], int] = {}
        for k, c in _exponent_counts(n, lens[:-1], memo).items():  # the last cycle adds its length to one level
            for i in range(n):
                key = k[:i] + (k[i] + lens[-1],) + k[i + 1 :]
                out[key] = out.get(key, 0) + c
        memo[lens] = out
    return memo[lens]


def _power_sum_moments(law: MeasureSpec, types: list[tuple[int, ...]], m: int) -> tuple[list[int], int]:
    """``power_sum_moment`` of cycle types of at most m slots, as integer numerators over one denominator."""
    if isinstance(law, HaarDirichletMeasure):
        *rows, total = _rising_factorials(law.q, m)
        nums, memo = [], {(): {(0,) * law.n: 1}}  # counts shared by the cycle types' prefixes
        for ct in types:  # over total[L], and total[m] / total[L] is an integer
            lens = tuple(l for l in ct if l > 1)
            counts = _exponent_counts(law.n, lens, memo)
            num = sum(c * prod(map(list.__getitem__, rows, k)) for k, c in counts.items())
            nums.append(num * (total[m] // total[sum(lens)]))
        return nums, total[m]
    if isinstance(law, BlochBallMeasure):  # (2 - u) E_a - (1 - u) E_b over den, u = p/r
        u = Fraction(law.u)
        qs = ((u - 2, u), (u - 1, u - 1))  # a and b; c = (u, u - 2) mirrors a
        (a, den), (b, _) = (_power_sum_moments(HaarDirichletMeasure(2, q), types, m) for q in qs)
        p, r = u.numerator, u.denominator
        return [(2 * r - p) * x - (r - p) * y for x, y in zip(a, b)], r * den
    raise TypeError(f"no power-sum moments for the law {law!r}")


def solve_integer_system(rows: list[list[int]], rhs: list[int]) -> list[Fraction]:
    """Exact solution of a (possibly singular but consistent) integer linear system.

    Gauss-Jordan in integers, row_i <- pv row_i - f row_r over its gcd, with free
    variables pinned to zero: each row is a nonzero multiple of its row under
    Fraction elimination, so the pivots and the solution are the same.  Any such
    solution of the character system gives the same matrix, because a class-sum
    combination is fixed by its scalar on every isotypic component.
    """
    n_cols = len(rows[0]) if rows else 0
    m = [[*row, b] for row, b in zip(rows, rhs)]
    pivots: list[int] = []
    for c in range(n_cols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top, pv = m[r], m[r][c]
        for i, row in enumerate(m):
            if i != r and row[c]:
                f = row[c]
                row = [pv * a - f * b for a, b in zip(row, top)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        if len(pivots) == len(m):
            break
    if any(row[n_cols] for row in m[len(pivots) :]):
        raise ValueError("inconsistent linear system")
    sol = [Fraction(0)] * n_cols
    for row, c in zip(m, pivots):
        sol[c] = Fraction(row[n_cols], row[c])
    return sol


@dataclass(frozen=True, init=False)
class OracleResult:
    """Exact mean of rho^(x m), stored as one record per isotypic component.

    ``isotypic`` holds (lam, f^lam, dim_U(lam), c_lam) in ``_irreps`` order:
    the mean acts on component lam as the scalar c_lam.  A single law fills it
    from its moments; a result read back from an artifact derives it from its
    ``class_coefficients``: a_K per cycle type K, in sorted(partitions(m))
    order, in mean = sum_K a_K W_K with W_K the sum of the slot permutation
    operators V_sigma over the class.  They are solved from the records on
    first read, and ``labelled`` and the dense ``mean`` (values[labels]) are
    built from them, each once.

    Products of independent laws have neither; they carry the factor spectra,
    and their matrix is the factors' (or the ``matrix`` an artifact gives).  The
    dimension cap applies when the matrix is built, not to the spectrum.
    """

    scenario: Scenario
    measure: MeasureSpec
    factor_spectra: tuple[tuple[tuple[Fraction, int], ...], ...] | None = None

    def __init__(self, scenario, measure, *, isotypic=None, class_coefficients=None, factor_spectra=None, matrix=None):
        self.__dict__.update(scenario=scenario, measure=measure, factor_spectra=factor_spectra)
        if isotypic is None and class_coefficients is None:  # neither can be derived from the other
            if matrix is None and not isinstance(measure, ProductMeasure):
                raise ValueError("a single law's result needs its isotypic records, class coefficients or matrix")
            self.__dict__.update(isotypic=None, class_coefficients=None)
        # what is given fills its cached property; the others are built on first read
        given = {"isotypic": isotypic, "class_coefficients": class_coefficients, "labelled": matrix}
        self.__dict__.update({name: value for name, value in given.items() if value is not None})

    @cached_property
    def isotypic(self) -> tuple[tuple[tuple[int, ...], int, int, Fraction], ...]:
        """Records of a result read back from an artifact: c_lam = sum_K a_K chi_lam[K] / f^lam."""
        (n,), m = self.scenario.factors, self.scenario.power
        coeffs, den = _over_lcm([self.class_coefficients[ct] for ct in sorted(partitions(m))])
        return tuple((lam, f, w, Fraction(sum(map(mul, chi, coeffs)), f * den)) for lam, f, w, chi in _irreps(n, m))

    @cached_property
    def class_coefficients(self) -> dict[tuple[int, ...], Fraction]:
        """a_K from chi_lam . (L a) = f^lam (L c_lam) in integers, L the lcm of the c_lam's denominators.

        The solve pins the free classes of a rank-deficient system (n < m) to
        zero, so the dense build skips them.
        """
        (n,), m = self.scenario.factors, self.scenario.power
        scalars, den = _over_lcm([c for *_, c in self.isotypic])
        rows = [chi for *_, chi in _irreps(n, m)]
        x = solve_integer_system(rows, [f * c for (_, f, _, _), c in zip(self.isotypic, scalars)])
        return {ct: a / den for ct, a in zip(sorted(partitions(m)), x)}

    @cached_property
    def labelled(self) -> Labelled:
        """sum_K a_K W_K, one value per row of ``monomial_sets``, gathered into ``monomial_index``.

        V_sigma has its 1 at (R, C) when R's letter at slot sigma(k) is C's
        letter k for every k, so an entry is 0 unless R and C hold the same
        letters, and is otherwise sum_K a_K times the number of such sigma in K.
        A product's is the kron of its factors', slots reordered (``exact_mean``).
        """
        check_dim_cap(self.scenario.dim)
        if isinstance(self.measure, ProductMeasure):
            m, laws = self.scenario.power, self.measure.factors
            values, labels = reduce(labelled_kron, [exact_mean(f, m).labelled for f in laws])
            dims, k = [f.dim for f in laws for _ in range(m)], len(laws)  # factor-major subsystems
            return values, reorder_subsystems(labels, dims, tuple(i * m + s for s in range(m) for i in range(k)))
        (n,), m, d = self.scenario.factors, self.scenario.power, self.scenario.dim
        rows, cols = np.divmod(monomial_sets(n, m), n)  # an entry (R, C) per monomial, R sorted
        shape = (n,) * m  # kept if C's letters, sorted (its word's content), are R's
        content = np.ravel_multi_index(np.sort(np.unravel_index(np.arange(d), shape), axis=0), shape)
        keep = content[np.ravel_multi_index(cols.T, shape)] == np.ravel_multi_index(rows.T, shape)
        rows, cols = rows[keep], cols[keep]
        step = max(1, d * d // (m * len(rows)))  # compares at most d^2 letters, 1/8 of the index
        coeffs, den = _over_lcm(list(self.class_coefficients.values()))
        numerators = np.zeros(len(rows), dtype=object)  # of the kept monomials, over den
        for ct, a in zip(self.class_coefficients, coeffs):
            if a == 0:  # the classes pinned to zero by the solve
                continue
            perms = np.array(list(class_elements(ct)), dtype=np.intp)
            blocks = (perms[s : s + step] for s in range(0, len(perms), step))
            count = sum((rows[:, block] == cols[:, None]).all(axis=2).sum(axis=1) for block in blocks)
            numerators += count.astype(object) * a
        distinct, label = distinct_entries([0, *numerators.tolist()])  # 0 for the other monomials
        labels = monomial_index(n, m)  # built last; its ranks become labels in place, "clip" never fires
        np.take(label[np.cumsum(keep) * keep], labels, out=labels, mode="clip")
        return [Fraction(x, den) for x in distinct], labels.reshape(d, d)

    @cached_property
    def mean(self) -> np.ndarray:
        """Dense object array of Fraction, gathered from the labelled matrix."""
        values, labels = self.labelled
        return np.array(values, dtype=object)[labels]

    def spectrum(self) -> list[tuple[Fraction, int]]:
        return exact_spectrum(self)

    def mean_float(self) -> np.ndarray:
        values, labels = self.labelled
        return np.array([float(v) for v in values])[labels]

    def trace(self) -> Fraction:
        values, labels = self.labelled
        return sum(values[i] for i in labels.diagonal().tolist())


@lru_cache(maxsize=None)
def _irreps(n: int, m: int) -> tuple[tuple[tuple[int, ...], int, int, tuple[int, ...]], ...]:
    """(lam, f^lam, dim_U(lam), chi_lam) per partition lam of m with at most n rows.

    W_K acts on the isotypic component lam as chi_lam[K] / f^lam, with the
    integer chi_lam[K] = |K| chi^lam(K) and K over sorted(partitions(m)).  The
    first class is the identity, and p_1^m = sum_lam f^lam s_lam, so its table
    has a key for exactly the lam with at most n rows and chi_lam[0] = f^lam;
    dim_U(lam) = s_lam(1^n) = sum_K chi_lam[K] n^len(K) / m!.  Built once per
    (n, m): the isotypic records and the class coefficients read the same rows.
    """
    types = sorted(partitions(m))
    sizes = [class_size(ct) for ct in types]
    tables = [power_sum_characters(n, ct) for ct in types]
    out = []
    for lam in partitions(m):
        beta = beta_set(lam, n)
        if beta in tables[0]:
            chi = tuple(size * table.get(beta, 0) for size, table in zip(sizes, tables))
            out.append((lam, chi[0], sum(c * n ** len(ct) for c, ct in zip(chi, types)) // factorial(m), chi))
    return tuple(out)


def _over_lcm(xs: list[Fraction]) -> tuple[list[int], int]:
    """The integer numerators of xs over their least common denominator, and that denominator."""
    den = lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


def exact_mean(law: MeasureSpec, m: int) -> OracleResult:
    """Exact E[rho^(x m)] under a unitarily invariant law (a measure spec).

    A single law yields only its isotypic records, read off its moments, and a
    ``ProductMeasure`` only its factors' spectra; the matrix is built on first
    read.  Independence factorizes the mean of a product into the tensor
    product of its factors' means; the subsystems are then reordered from
    factor-major order (A_1..A_m, B_1..B_m, ...) to power-major order
    ((A_1 B_1..), (A_2 B_2..)).  Both steps run on the factors' integer labels
    (see ``labelled_kron``).
    """
    scenario = scenario_for(law, m)
    if isinstance(law, ProductMeasure):
        spectra = tuple(tuple(exact_mean(f, m).spectrum()) for f in law.factors)
        return OracleResult(scenario=scenario, measure=law, factor_spectra=spectra)
    moments, den = _power_sum_moments(law, sorted(partitions(m)), m)
    # c_lam = E[s_lam] / dim_U = chi_lam . moments / (den m! dim_U), with no solve
    isotypic = tuple(
        (lam, f, wdim, Fraction(sum(map(mul, chi, moments)), den * factorial(m) * wdim))
        for lam, f, wdim, chi in _irreps(law.dim, m)
    )
    return OracleResult(scenario=scenario, measure=law, isotypic=isotypic)


def haar_mean(n: int, m: int, q: tuple | Real = 0) -> OracleResult:
    """Exact E[rho^(x m)] for N x N states with Haar eigenvectors, Dirichlet spectrum.

    ``q`` is the common simplex exponent (q = 0 is the uniform simplex) or a
    length-N sequence of exponents; all must be < 1.
    """
    return exact_mean(HaarDirichletMeasure(n, q), m)


def exact_spectrum(result: OracleResult) -> list[tuple[Fraction, int]]:
    """Exact eigenvalues with multiplicities, ascending.

    Single factor: the mean is central in the image of the group algebra of
    S_m, so it acts as the scalar c_lam on each irreducible component lam of
    (C^N)^(x m), of dimension f^lam * (Weyl dimension); the isotypic records
    hold both, and equal scalars merge.  Composite scenarios multiply the
    factor spectra.
    """
    if result.isotypic is not None:
        spec: dict[Fraction, int] = {}
        for _, f, wdim, c in result.isotypic:
            spec[c] = spec.get(c, 0) + f * wdim
        return sorted(spec.items())
    if result.factor_spectra is None:
        raise ValueError("no exact spectrum available for this result")
    merged: dict[Fraction, int] = {Fraction(1): 1}
    for spec in result.factor_spectra:
        nxt: dict[Fraction, int] = {}
        for v, mult in merged.items():
            for fv, fmult in spec:
                nxt[v * fv] = nxt.get(v * fv, 0) + mult * fmult
        merged = nxt
    return sorted(merged.items())


def labelled_kron(a: Labelled, b: Labelled) -> Labelled:
    """np.kron of two labelled matrices, one product per pair of distinct values."""
    (va, ia), (vb, ib) = a, b
    values, index = distinct_entries([x * y for x in va for y in vb])
    # label products in the layout (ra, rb, ca, cb); the reshape gives np.kron's order
    labels = index[ia[:, None, :, None] * len(vb) + ib[None, :, None, :]]
    return values, labels.reshape(ia.shape[0] * ib.shape[0], ia.shape[1] * ib.shape[1])


def composite_haar_mean(scenario: Scenario, qs: list | None = None) -> OracleResult:
    """Exact mean of (rho_1 x ... x rho_k)^(x m) for independent Haar x Dirichlet
    factors, one exponent (or exponent sequence) per factor in ``qs``."""
    qs = [0] * len(scenario.factors) if qs is None else qs
    if len(qs) != len(scenario.factors):
        raise ValueError(f"expected {len(scenario.factors)} exponents, one per factor, got {len(qs)}")
    laws = (HaarDirichletMeasure(n, q) for n, q in zip(scenario.factors, qs))
    return exact_mean(ProductMeasure(tuple(laws)), scenario.power)

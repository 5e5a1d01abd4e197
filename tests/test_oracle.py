"""Exact oracle: simplex moments, permutation-span solve, published tables.

Derived expectations are checked against independent oracles (quadrature over
the simplex, explicit enumeration); published values are asserted exactly.
"""

import json
import tracemalloc
from fractions import Fraction as F
from functools import lru_cache
from itertools import permutations, product
from math import comb, factorial
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rhomean.oracle
from rhomean.families import bloch_family_eigenvalue_exact, spin_multiplicity
from rhomean.fixtures import get_fixture
from rhomean.jsonio import oracle_result_from_json, oracle_result_to_json
from rhomean.linalg import (
    DIM_CAP,
    Scenario,
    distinct_entries,
    hermitian_eig,
    monomial_index,
    permutation_operator,
)
from rhomean.measures import (
    BlochBallMeasure,
    HaarDirichletMeasure,
    ProductMeasure,
    RandomStream,
    sample_haar_unitary,
)
from rhomean.oracle import (
    OracleResult,
    composite_haar_mean,
    dirichlet_moment,
    exact_mean,
    haar_mean,
    power_sum_moment,
    solve_integer_system,
)
from rhomean.spectral import cluster_spectrum
from rhomean.symmetry import (
    class_elements,
    class_size,
    cycle_type,
    partitions,
    power_sum_characters,
)
from test_symmetry import character, weyl_dimension  # the Murnaghan-Nakayama and Weyl references


def per_sigma(result):
    """c_sigma for every sigma in S_m, read off the class coefficients."""
    m = result.scenario.power
    return {s: result.class_coefficients[cycle_type(s)] for s in permutations(range(m))}


def reconstruct(result):
    """sum_sigma c_sigma V_sigma, built from the dense permutation operators."""
    (n,) = result.scenario.factors
    m = result.scenario.power
    # group sigma by coefficient, so the exact products run once per group
    sums = {}
    for sigma, c in per_sigma(result).items():
        sums[c] = sums.get(c, 0) + permutation_operator(sigma, n, m)
    out = np.full((n**m, n**m), F(0), dtype=object)
    for c, v in sums.items():
        hit = v != 0
        out[hit] += c * v[hit].astype(int)
    return out


def class_scatter_labelled(result):
    """sum_K a_K W_K as the oracle once built it: every V_sigma of a nonzero
    class scattered into D^2 integer counts, which are then folded into the
    labels one class at a time."""
    (n,), m = result.scenario.factors, result.scenario.power
    d = n**m
    cols = np.arange(d)
    values, labels = [F(0)], np.zeros(d * d, dtype=np.intp)
    for ct, a in result.class_coefficients.items():
        if a == 0:
            continue
        counts = np.zeros(d * d, dtype=np.intp)
        for sigma in class_elements(ct):
            rows = np.arange(d).reshape((n,) * m).transpose(sigma).ravel()
            counts[rows * d + cols] += 1
        # key label * base + count has the value values[label] + a * count
        base = class_size(ct) + 1
        keys = labels * base + counts
        hit = np.zeros(len(values) * base, dtype=bool)
        hit[keys] = True
        folded = [values[k // base] + a * (k % base) for k in np.flatnonzero(hit).tolist()]
        values, index = distinct_entries(folded)
        labels = index[np.cumsum(hit)[keys] - 1]
    return values, labels.reshape(d, d)


def simplex_quadrature_moment(exponents, steps=400):
    """Centroid-rule integral of e1^k1 e2^k2 e3^k3 over the uniform 2-simplex.

    The square grid cells split into lower/upper triangles that tile the
    simplex exactly, so the equal-weight centroid rule is O(h^2) unbiased.
    """
    h = 1.0 / steps
    i = np.arange(steps)
    ii, jj = np.meshgrid(i, i, indexing="ij")
    lower = ii + jj <= steps - 1
    upper = ii + jj <= steps - 2
    e1 = np.concatenate([(ii[lower] + 1 / 3) * h, (ii[upper] + 2 / 3) * h])
    e2 = np.concatenate([(jj[lower] + 1 / 3) * h, (jj[upper] + 2 / 3) * h])
    e3 = 1.0 - e1 - e2
    vals = e1 ** exponents[0] * e2 ** exponents[1] * e3 ** exponents[2]
    return vals.mean()


def test_dirichlet_moment_uniform_simplex():
    q = (0, 0, 0)
    assert dirichlet_moment(q, (1, 0, 0)) == F(1, 3)
    assert dirichlet_moment(q, (2, 0, 0)) == F(1, 6)
    assert dirichlet_moment(q, (3, 0, 0)) == F(1, 10)
    # independent quadrature oracle
    for k in [(2, 0, 0), (3, 0, 0), (1, 1, 0), (2, 1, 0)]:
        quad = simplex_quadrature_moment(k)
        assert abs(float(dirichlet_moment(q, k)) - quad) < 2e-4


def test_dirichlet_moment_nonuniform_and_asymmetric():
    # N = 2, q = 1/2: e1 ~ Beta(1/2, 1/2), E[e1] = 1/2, E[e1^2] = 3/8
    assert dirichlet_moment((F(1, 2), F(1, 2)), (1, 0)) == F(1, 2)
    assert dirichlet_moment((F(1, 2), F(1, 2)), (2, 0)) == F(3, 8)
    # asymmetric exponents: alpha = (1, 1/2), E[e1] = alpha1/(alpha1+alpha2)
    assert dirichlet_moment((0, F(1, 2)), (1, 0)) == F(2, 3)
    # exponents reach the moments through the spec, which validates them
    with pytest.raises(ValueError):
        dirichlet_moment(HaarDirichletMeasure(2, 1).q, (1, 0))
    with pytest.raises(ValueError):
        dirichlet_moment(HaarDirichletMeasure(2, 0).q, (1,))


@given(
    st.integers(2, 5),
    st.fractions(min_value=-3, max_value=F(3, 4), max_denominator=8),
)
@settings(max_examples=40, deadline=None)
def test_power_sum_moment_all_singletons_is_one(n, q):
    assert power_sum_moment(HaarDirichletMeasure(n, q), tuple([1] * 4)) == 1


def test_power_sum_moment_examples():
    assert power_sum_moment(HaarDirichletMeasure(2, 0), (2,)) == F(2, 3)
    assert power_sum_moment(HaarDirichletMeasure(3, 0), (2,)) == F(1, 2)
    assert power_sum_moment(HaarDirichletMeasure(3, 0), (2, 1)) == F(1, 2)
    # quadrature oracle for E[p2 * p2] on the 2-simplex
    quad = sum(
        simplex_quadrature_moment(k) * c
        for k, c in [
            ((4, 0, 0), 3),  # sum e_i^4, by symmetry
            ((2, 2, 0), 6),  # cross terms e_i^2 e_j^2
        ]
    )
    assert abs(float(power_sum_moment(HaarDirichletMeasure(3, 0), (2, 2))) - quad) < 2e-4


def dirichlet_moment_reference(q, k):
    """The Dirichlet moment as one Fraction rising factorial step at a time."""
    alphas = [1 - F(x) for x in q]
    num = den = F(1)
    for a, ki in zip(alphas, k):
        for t in range(ki):
            num *= a + t
    for t in range(sum(k)):
        den *= sum(alphas) + t
    return num / den


def power_sum_moment_reference(law, cycle_lengths, moment):
    """E[prod p_l] as a Fraction sum of one Dirichlet moment per level assignment."""
    lens = [l for l in cycle_lengths if l > 1]
    total = F(0)
    for assign in product(range(law.n), repeat=len(lens)):
        k = [0] * law.n
        for level, l in zip(assign, lens):
            k[level] += l
        total += moment(law.q, tuple(k))
    return total


def bloch_power_sum_moment_reference(u, cycle_lengths):
    """E[prod p_l] on the Bloch ball: the eigenvalues (1 +- r)/2 expanded as a
    Fraction polynomial in r, paired with E[r^(2j)] = (3/2)_j / (5/2 - u)_j."""
    poly = [F(1)]  # coefficients of r^0, r^1, ...
    for l in cycle_lengths:
        p = [F(comb(l, k) * (1 + (-1) ** k), 2**l) for k in range(l + 1)]  # ((1+r)/2)^l + ((1-r)/2)^l
        poly = [
            sum(poly[i] * p[k - i] for i in range(len(poly)) if 0 <= k - i < len(p))
            for k in range(len(poly) + len(p) - 1)
        ]
    total, r_moment = F(0), F(1)
    for j, c in enumerate(poly[::2]):
        total += c * r_moment
        r_moment *= (F(3, 2) + j) / (F(5, 2) - F(u) + j)
    return total


_LEVEL_EXPONENTS = st.one_of(
    st.fractions(min_value=-3, max_value=F(99, 100), max_denominator=100),
    st.floats(min_value=-3, max_value=0.99, allow_subnormal=False),
)


@given(st.integers(2, 4).flatmap(lambda n: st.lists(_LEVEL_EXPONENTS, min_size=n, max_size=n)))
@example([F(99, 100), F(-3, 2)])
@example([F(-1, 2), F(99, 100), F(1, 3), F(-7, 4)])
@example([0.1, 0.1, 0.1])
@example([1 / 3, 1 / 3, 1 / 3, 1 / 3])
@example([0.1, 1 / 3, F(-2, 5)])
@settings(max_examples=15, deadline=None)
def test_power_sum_moment_matches_the_assignment_sum(q):
    law = HaarDirichletMeasure(len(q), q)
    for m in range(1, 7):
        for ct in partitions(m):
            want = power_sum_moment_reference(law, ct, dirichlet_moment_reference)
            assert power_sum_moment_reference(law, ct, dirichlet_moment) == want
            got = power_sum_moment(law, ct)
            assert type(got) is F and got == want


@pytest.mark.parametrize("n, m_max", [(2, 8), (3, 8), (4, 8), (5, 8), (8, 6)])
def test_batched_moments_match_the_assignment_sum(n, m_max):
    # every cycle type of m slots over the one denominator d^m (sum alpha)_m
    qs = [F(1, 3), tuple(F(k - 1, n + 2) for k in range(n)), 0.25, tuple(-0.5 + 0.125 * k for k in range(n))]
    ms = range(1, m_max + 1) if n < 8 else [m_max]
    for law in [HaarDirichletMeasure(n, q) for q in qs]:
        for m in ms:
            types = sorted(partitions(m))
            nums, den = rhomean.oracle._power_sum_moments(law, types, m)
            want = [power_sum_moment_reference(law, ct, dirichlet_moment_reference) for ct in types]
            assert [F(x, den) for x in nums] == want, (law, m)
    if n == 2:
        for u in (-2, F(1, 2), 0.3):
            for m in ms:
                types = sorted(partitions(m))
                nums, den = rhomean.oracle._power_sum_moments(BlochBallMeasure(u), types, m)
                assert [F(x, den) for x in nums] == [bloch_power_sum_moment_reference(u, ct) for ct in types]


def test_spectrum_retains_no_exponent_counts():
    # the exponent counts live for one moment batch; kept for the process, the
    # 12-level vectors of a cold (12, 10) spectrum retain 5.7 MiB
    rhomean.oracle._irreps.cache_clear()
    power_sum_characters.cache_clear()
    tracemalloc.start()
    try:
        haar_mean(12, 10, F(1, 3)).spectrum()
        rhomean.oracle._irreps.cache_clear()
        power_sum_characters.cache_clear()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 2**20, retained / 2**20


def test_haar_mean_matches_published_4x4():
    result = haar_mean(2, 2, 0)
    fix = get_fixture("n2m2")
    assert np.all(result.mean == fix.matrix.rpart)
    assert result.trace() == 1
    assert result.spectrum() == [(F(1, 6), 1), (F(5, 18), 3)]


def test_haar_mean_n5_diagonal():
    mean = haar_mean(5, 2, 0).mean
    assert mean[0, 0] == F(2, 45)
    assert mean[1, 1] == F(7, 180)
    assert mean[5, 5] == F(7, 180)


@pytest.mark.parametrize("q", [F(0), F(1, 2), F(-1)])
def test_haar_mean_q_family_spectrum(q):
    spec = haar_mean(2, 2, q).spectrum()
    iso = (1 - q) / (2 * (3 - 2 * q))
    triplet = (5 - 3 * q) / (6 * (3 - 2 * q))
    assert spec == sorted([(iso, 1), (triplet, 3)])


@pytest.mark.parametrize(
    "m,table",
    [
        (2, [(F(1, 6), 1), (F(5, 18), 3)]),
        (3, [(F(1, 12), 4), (F(1, 6), 4)]),
        (4, [(F(1, 30), 2), (F(2, 45), 9), (F(8, 75), 5)]),
        (5, [(F(1, 60), 10), (F(1, 40), 16), (F(13, 180), 6)]),
        (6, [(F(1, 140), 5), (F(11, 1260), 27), (F(31, 2100), 25), (F(151, 2940), 7)]),
    ],
)
def test_two_level_spectra(m, table):
    assert haar_mean(2, m, 0).spectrum() == sorted(table)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("q", [F(0), F(1, 2)])
def test_reconstruction_and_exactness(n, m, q):
    result = haar_mean(n, m, q)
    assert np.all(reconstruct(result) == result.mean)
    assert result.trace() == 1
    # real and exactly symmetric: classes are closed under inversion
    assert np.all(result.mean == result.mean.T)
    spec = result.spectrum()
    assert sum(v * k for v, k in spec) == 1
    assert sum(k for _, k in spec) == n**m


def test_asymmetric_dirichlet_two_parameter_family():
    # hand check: alpha = (1, 1/2) gives E[p2] = 8/15 + 1/5 = 11/15, hence
    # coefficients 19/90 and 7/90 and the triplet/singlet pair below
    r = haar_mean(2, 2, [F(0), F(1, 2)])
    assert r.trace() == 1
    assert r.spectrum() == [(F(2, 15), 1), (F(13, 45), 3)]
    # eigenspaces keep the symmetric/antisymmetric split of the symmetric case
    sym_spec = haar_mean(2, 2, 0).spectrum()
    assert [k for _, k in r.spectrum()] == [k for _, k in sym_spec]


def test_mean_is_unitarily_invariant():
    mean = haar_mean(3, 2, 0).mean.astype(np.float64)
    for seed in range(20):
        u = sample_haar_unitary(3, RandomStream(seed, 77))
        u2 = np.kron(u, u)
        assert np.abs(u2 @ mean @ u2.conj().T - mean).max() < 1e-10


def test_mean_commutes_with_slot_permutations():
    result = haar_mean(3, 3, 0)
    mean_f = result.mean.astype(np.float64)
    for sigma in permutations(range(3)):
        v = permutation_operator(sigma, 3, 3)
        assert np.abs(v @ mean_f @ v.T - mean_f).max() == 0.0
    # coefficients are class functions
    coefficients = per_sigma(result)
    for ct in partitions(3):
        coeffs = {coefficients[s] for s in class_elements(ct)}
        assert coeffs == {result.class_coefficients[ct]}


def test_dependent_permutation_operators_still_solve():
    # for two-level systems and m >= 3 the permutation operators are linearly
    # dependent; any exact solution of the character system gives the mean
    result = haar_mean(2, 4, 0)
    assert np.all(reconstruct(result) == result.mean)
    assert result.trace() == 1
    # the coefficients are not unique here; Gauss-Jordan pins the free
    # classes to zero, and these values are part of the artifact format
    by_type = {cycle_type(s): c for s, c in per_sigma(result).items()}
    assert by_type == {
        (1, 1, 1, 1): F(7, 300),
        (2, 1, 1): F(11, 900),
        (2, 2): F(1, 300),
        (3, 1): F(0),
        (4,): F(0),
    }


@pytest.mark.parametrize("n, m, q", [(2, 5, F(1, 3)), (3, 4, [F(1, 2), F(0), F(-1, 3)])])
def test_spectrum_needs_neither_matrix_nor_enumeration(monkeypatch, n, m, q):
    want = haar_mean(n, m, q).spectrum()

    def refuse(ct):
        raise AssertionError("class elements generated")

    monkeypatch.setattr(rhomean.oracle, "class_elements", refuse)
    result = haar_mean(n, m, q)
    assert result.spectrum() == want
    assert "labelled" not in result.__dict__ and "mean" not in result.__dict__
    assert sorted(result.class_coefficients) == sorted(partitions(m))


def test_a_spectrum_runs_no_solve(monkeypatch):
    # a spectrum merges the isotypic records read off the moments; only the
    # matrix needs the class coefficients, solved once on first read
    makers = [
        lambda: haar_mean(3, 5, F(1, 3)),
        lambda: haar_mean(3, 5, [F(1, 2), F(0), F(-1, 3)]),
        lambda: exact_mean(BlochBallMeasure(-2), 5),
        lambda: composite_haar_mean(Scenario((2, 3), 2)),
    ]
    want = [make().spectrum() for make in makers]
    solve = rhomean.oracle.solve_integer_system

    def refuse(rows, rhs):
        raise AssertionError("a spectrum ran the class-coefficient solve")

    monkeypatch.setattr(rhomean.oracle, "solve_integer_system", refuse)
    for make, spec in zip(makers, want):
        result = make()
        assert result.spectrum() == spec
        assert result.__dict__.get("class_coefficients") is None  # unsolved, or a product's None
    calls = []

    def counted(rows, rhs):
        calls.append(len(rows))
        return solve(rows, rhs)

    monkeypatch.setattr(rhomean.oracle, "solve_integer_system", counted)
    result = haar_mean(3, 4, F(1, 3))
    first = result.class_coefficients
    assert result.class_coefficients is first
    assert result.mean.shape == (81, 81)
    assert calls == [4]  # one row per partition of 4 with at most 3 rows


def check_isotypic_records(result):
    """The records read off the moments, against those derived from the solved
    class coefficients and against the identities of their sizes and trace."""
    records = result.isotypic
    derived = OracleResult(result.scenario, result.measure, class_coefficients=result.class_coefficients)
    assert derived.isotypic == records
    assert all(type(c) is F for *_, c in records)
    assert sum(f * wdim * c for _, f, wdim, c in records) == 1
    assert sum(f * wdim for _, f, wdim, _ in records) == result.scenario.dim
    return records


@st.composite
def _record_cases(draw):
    n, m = draw(st.sampled_from([(n, m) for n in range(2, 17) for m in range(1, 9) if n**m <= 256]))
    level = st.fractions(min_value=-3, max_value=F(99, 100), max_denominator=100)
    return n, m, draw(st.one_of(level, st.lists(level, min_size=n, max_size=n)))


@given(_record_cases())
@settings(max_examples=25, deadline=None)
def test_isotypic_records_match_the_solved_coefficients_property(case):
    n, m, q = case
    result = haar_mean(n, m, q)
    records = check_isotypic_records(result)
    back = oracle_result_from_json(json.loads(json.dumps(oracle_result_to_json(result))))
    assert back.isotypic == records


def test_isotypic_records_of_grouped_exponents():
    # q in groups of 2, 3 and 1 equal levels, past the dimension cap
    law = HaarDirichletMeasure(6, (F(1, 3), F(1, 3), F(-1, 2), F(-1, 2), F(-1, 2), F(0)))
    result = exact_mean(law, 8)
    check_isotypic_records(result)
    assert (result.class_coefficients, result.spectrum()) == exact_mean_reference(law, 8)


def test_mean_is_built_once_on_first_read():
    result = haar_mean(2, 3, 0)
    assert "mean" not in result.__dict__
    # trace and floats read the labelled form, not the dense Fraction matrix
    assert result.trace() == 1
    floats = result.mean_float()
    assert "mean" not in result.__dict__
    assert result.labelled is result.labelled
    first = result.mean
    assert result.mean is first
    assert floats.dtype == np.float64 and floats.tobytes() == first.astype(np.float64).tobytes()
    assert {cycle_type(s): c for s, c in per_sigma(result).items()} == result.class_coefficients


@pytest.mark.parametrize(
    "n, m, q",
    [(n, m, F(1, 3)) for n in (2, 3, 4) for m in range(1, 6) if n**m <= DIM_CAP]
    + [(3, 4, [F(1, 2), F(0), F(-1, 3)])],
)
def test_labelled_build_matches_per_sigma_reference(n, m, q):
    result = haar_mean(n, m, q)
    values, labels = result.labelled
    assert len(set(values)) == len(values)  # pairwise distinct
    assert all(type(v) is F for v in values)
    assert labels.shape == (n**m, n**m) and labels.dtype == np.intp
    assert labels.min() >= 0 and labels.max() < len(values)
    assert np.all(reconstruct(result) == np.array(values, dtype=object)[labels])


@pytest.mark.parametrize(
    "n, m, q",
    [
        (2, 9, [F(1, 2), F(-1, 3)]),
        (3, 6, [F(1, 3), F(0), F(-1, 2)]),
        (4, 5, [F(1, 2), F(-1, 3), F(0), F(1, 3)]),
        (257, 1, F(1, 3)),  # entry (0, 256) is 0: in a byte, letter 256 would read as 0
    ],
)
def test_labelled_build_matches_class_scatter_reference(n, m, q):
    result = haar_mean(n, m, q)
    values, labels = result.labelled
    ref_values, ref_labels = class_scatter_labelled(result)
    assert len(values) == len(ref_values)
    dense = np.array(values, dtype=object)[labels]
    assert np.array_equal(dense, np.array(ref_values, dtype=object)[ref_labels])
    # one label per monomial: entries with one multiset of (row, col) pairs agree
    index = monomial_index(n, m)
    per_monomial = np.zeros(index.max() + 1, dtype=np.intp)
    per_monomial[index] = labels.ravel()
    assert np.array_equal(per_monomial[index], labels.ravel())


@pytest.mark.parametrize("n, m", [(4, 5), (2, 10)])
def test_labelled_build_holds_one_dense_array(n, m):
    # the labels are gathered into the index's own buffer, built last: a build
    # that holds the index beside a second D^2 array peaks near twice the labels
    result = haar_mean(n, m, F(1, 3))
    tracemalloc.start()
    try:
        _, labels = result.labelled
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * labels.nbytes, peak / labels.nbytes


def test_mean_at_ten_slots_matches_its_spectrum():
    # S_10 has 3.6 M elements; the build generates only the 9,496 of the
    # classes the solve keeps, and the gathered matrix must carry the
    # multiplicities the character system gives
    result = haar_mean(2, 10, 0)
    values, labels = result.labelled
    assert result.trace() == 1
    assert np.array_equal(labels, labels.T)
    vals, vecs = hermitian_eig(result.mean_float())
    dec = cluster_spectrum(vals, vecs, cluster_tol=1e-9)
    spec = result.spectrum()
    assert dec.stable and [c.multiplicity for c in dec.clusters] == [k for _, k in spec]
    assert np.allclose([c.value for c in dec.clusters], [float(v) for v, _ in spec], rtol=0, atol=1e-12)


def _partial_trace_last(mean, n):
    d = mean.shape[0] // n
    blocks = mean.reshape(d, n, d, n)
    return sum(blocks[:, i, :, i] for i in range(n))


@st.composite
def _oracle_cases(draw):
    n = draw(st.integers(2, 4))
    m = draw(st.integers(2, {2: 6, 3: 5, 4: 4}[n]))  # n^m <= 256
    q = draw(
        st.lists(
            st.fractions(min_value=-2, max_value=F(3, 4), max_denominator=6),
            min_size=n,
            max_size=n,
        )
    )
    return n, m, q


@given(_oracle_cases())
@settings(max_examples=15, deadline=None)
def test_oracle_exact_invariants_property(case):
    n, m, q = case
    result = haar_mean(n, m, q)
    spec = result.spectrum()
    assert "labelled" not in result.__dict__  # the spectrum needs no matrix
    # the lazily built matrix is the per-sigma sum of permutation operators
    assert np.all(reconstruct(result) == result.mean)
    values = result.labelled[0]
    assert len(set(values)) == len(values)
    assert result.trace() == 1
    # the spectrum read from the class coefficients is the matrix's spectrum
    expanded = [float(v) for v, k in spec for _ in range(k)]
    assert np.allclose(np.linalg.eigvalsh(result.mean_float()), expanded, rtol=0, atol=1e-12)
    # tracing out the last slot of E[rho^(x m)] gives E[rho^(x (m-1))]
    assert np.all(_partial_trace_last(result.mean, n) == haar_mean(n, m - 1, q).mean)


@st.composite
def _spectrum_cases(draw):
    n = draw(st.integers(2, 4))
    q = st.fractions(min_value=-3, max_value=F(99, 100), max_denominator=100)
    return n, draw(st.integers(1, 8)), draw(st.lists(q, min_size=n, max_size=n))


@given(_spectrum_cases())
@settings(max_examples=25, deadline=None)
def test_spectrum_invariants_property(case):
    n, m, q = case
    spec = haar_mean(n, m, q).spectrum()
    assert sum(k for _, k in spec) == n**m
    assert all(v > 0 for v, _ in spec)
    assert sum(v * k for v, k in spec) == 1


def test_composite_single_factor_matches_plain():
    plain = haar_mean(2, 2, 0)
    comp = composite_haar_mean(Scenario(factors=(2,), power=2))
    assert np.all(plain.mean == comp.mean)
    assert plain.spectrum() == comp.spectrum()


def test_composite_two_by_three():
    comp = composite_haar_mean(Scenario(factors=(2, 3), power=2))
    assert comp.spectrum() == [
        (F(1, 72), 3),
        (F(1, 48), 6),
        (F(5, 216), 9),
        (F(5, 144), 18),
    ]
    assert sum(comp.mean[i, i] for i in range(36)) == 1 == comp.trace()
    values = comp.labelled[0]
    assert len(set(values)) == len(values)
    # the published matrix has 966 zero entries with its 240 rational/pi cells
    # kept; the invariant mean zeroes those cells as well
    assert int((comp.mean == 0).sum()) == 966 + 240


def test_composite_two_by_two_factorizes():
    comp = composite_haar_mean(Scenario(factors=(2, 2), power=2))
    values = {F(5, 18) * F(5, 18): 9, F(5, 18) * F(1, 6): 6, F(1, 6) * F(1, 6): 1}
    assert comp.spectrum() == sorted(values.items())


def test_composite_reorders_to_power_major_blocks():
    # m = 1 composite mean is the tensor product of fully mixed states
    comp = composite_haar_mean(Scenario(factors=(2, 3), power=1))
    want = np.full((6, 6), F(0), dtype=object)
    for i in range(6):
        want[i, i] = F(1, 6)
    assert np.all(comp.mean == want)


def solve_rational_system(rows, rhs):
    """Gauss-Jordan over Fraction with free variables pinned to zero, as the
    oracle once solved the character system: the reference for the integer solver."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    for i in range(r, n_rows):
        if m[i][n_cols] != 0:
            raise ValueError("inconsistent linear system")
    sol = [F(0)] * n_cols
    for i, c in enumerate(pivots):
        sol[c] = m[i][n_cols]
    return sol


def test_solve_rational_system_errors():
    # inconsistent: x = 0 and x = 1, for the integer solver and its Fraction reference
    with pytest.raises(ValueError):
        solve_integer_system([[1], [1]], [0, 1])
    with pytest.raises(ValueError):
        solve_rational_system([[F(1)], [F(1)]], [F(0), F(1)])


@st.composite
def _integer_systems(draw):
    """A random integer system with duplicate rows, zero rows and zero columns,
    and a right-hand side that is consistent unless a perturbation hits it."""
    n_rows, n_cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entries = st.integers(-9, 9)
    row = st.lists(entries, min_size=n_cols, max_size=n_cols)
    rows = draw(st.lists(row, min_size=n_rows, max_size=n_rows))
    rows += [list(rows[i]) for i in draw(st.lists(st.integers(0, n_rows - 1), max_size=2))]
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2)):
        rows[i] = [0] * n_cols
    zero_cols = draw(st.sets(st.integers(0, n_cols - 1), max_size=2))
    rows = [[0 if c in zero_cols else a for c, a in enumerate(row)] for row in draw(st.permutations(rows))]
    x = draw(st.lists(entries, min_size=n_cols, max_size=n_cols))
    noise = draw(st.lists(st.sampled_from([0, 0, 0, 1, -3]), min_size=len(rows), max_size=len(rows)))
    rhs = [sum(map(mul, row, x)) + e for row, e in zip(rows, noise)]
    return rows, rhs, zero_cols


@given(_integer_systems())
@example(([[2, 0, 4], [2, 0, 4], [0, 0, 0]], [6, 6, 0], {1}))  # duplicate and zero rows
@example(([[2, 0, 4], [2, 0, 4]], [6, 7], {1}))  # duplicate rows, inconsistent
@example(([[0, 3], [0, 6]], [1, 2], {0}))  # a leading zero column
@settings(max_examples=200, deadline=None)
def test_integer_solver_matches_the_fraction_reference(system):
    rows, rhs, zero_cols = system
    try:
        want = solve_rational_system([[F(a) for a in row] for row in rows], [F(b) for b in rhs])
    except ValueError:
        with pytest.raises(ValueError, match="inconsistent"):
            solve_integer_system(rows, rhs)
        return
    got = solve_integer_system(rows, rhs)
    assert all(type(x) is F for x in got) and got == want
    assert all(got[c] == 0 for c in zero_cols)  # free columns are pinned to zero


def exact_mean_reference(law, m):
    """Class coefficients and spectrum as the oracle once built them: Fraction
    rows |K| chi^lam(K) / f^lam from the Murnaghan-Nakayama recursion, one
    Fraction moment per cycle type summed over level assignments, and the
    Fraction Gauss-Jordan."""
    types = sorted(partitions(m))
    if isinstance(law, BlochBallMeasure):
        moments = [bloch_power_sum_moment_reference(law.u, ct) for ct in types]
    else:
        moment = lru_cache(maxsize=None)(dirichlet_moment)  # many assignments share k
        moments = [power_sum_moment_reference(law, ct, moment) for ct in types]
    rows, rhs, mults = [], [], []
    for lam in partitions(m):
        wdim = weyl_dimension(lam, law.dim)
        if wdim == 0:
            continue
        f = character(lam, (1,) * m)
        row = [F(class_size(ct) * character(lam, ct), f) for ct in types]
        rows.append(row)
        rhs.append(f * sum(r * p for r, p in zip(row, moments)) / (factorial(m) * wdim))
        mults.append(f * wdim)
    coeffs = solve_rational_system(rows, rhs)
    spec = {}
    for row, mult in zip(rows, mults):
        val = sum(r * a for r, a in zip(row, coeffs))
        spec[val] = spec.get(val, 0) + mult
    return dict(zip(types, coeffs)), sorted(spec.items())


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_integer_pipeline_matches_the_fraction_reference(n):
    qs = [0, F(1, 3), F(-1, 2), F(1, 2), 0.25]
    qs += [tuple(F(k, n + 2) for k in range(n)), tuple(-0.5 + 0.125 * k for k in range(n))]
    laws = [(HaarDirichletMeasure(n, q), m) for q in qs for m in range(1, 10)]
    if n == 2:
        laws += [(BlochBallMeasure(u), m) for u in (-2, F(1, 2), 0) for m in range(1, 8)]
    for law, m in laws:
        result = exact_mean(law, m)
        assert (result.class_coefficients, result.spectrum()) == exact_mean_reference(law, m), (law, m)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_character_rows_match_the_murnaghan_nakayama_reference(n):
    for m in range(1, 11):
        types = sorted(partitions(m))
        want = [
            (
                lam,
                character(lam, (1,) * m),
                weyl_dimension(lam, n),
                tuple(class_size(ct) * character(lam, ct) for ct in types),
            )
            for lam in partitions(m)
            if len(lam) <= n
        ]
        assert list(rhomean.oracle._irreps(n, m)) == want, (n, m)


def test_haar_mean_input_validation():
    with pytest.raises(ValueError):
        haar_mean(2, 0, 0)
    with pytest.raises(ValueError):
        haar_mean(1, 2, 0)
    with pytest.raises(ValueError):
        haar_mean(2, 2, 1)
    with pytest.raises(ValueError, match="^power must be an integer"):
        haar_mean(2, 2.5)
    with pytest.raises(ValueError, match="^power must be an integer"):
        exact_mean(BlochBallMeasure(0.5), 2.0)
    # the cap applies where the matrix is built: 2^13 exceeds it, the spectrum does not
    over = haar_mean(2, 13, 0)
    assert sum(k for _, k in over.spectrum()) == 2**13
    with pytest.raises(ValueError):
        over.mean
    # a product's too: 6^5 = 7776 exceeds it, the factors' spectra multiply
    over = composite_haar_mean(Scenario((2, 3), 5))
    assert sum(k for _, k in over.spectrum()) == 6**5
    with pytest.raises(ValueError):
        over.mean


def ks_spectrum(m, u):
    """The closed-form Bloch-family table, merged by value, ascending."""
    spec = {}
    for d in range(m // 2 + 1):
        v = bloch_family_eigenvalue_exact(m, d, u)
        spec[v] = spec.get(v, 0) + spin_multiplicity(m, d)
    return sorted(spec.items())


def test_bloch_power_sum_moments():
    # r^2 ~ Beta(3/2, 1-u): E[r^2] = 3/(5-2u), E[r^4] = 15/((5-2u)(7-2u))
    law = BlochBallMeasure(u=-2)
    assert power_sum_moment(law, (1, 1)) == 1
    # p_2 = (1 + r^2)/2 and p_3 = (1 + 3 r^2)/4 are linear in r^2 ...
    assert power_sum_moment(law, (2,)) == (1 + F(1, 3)) / 2 == power_sum_moment(
        HaarDirichletMeasure(2, 0), (2,)
    )
    assert power_sum_moment(law, (3,)) == (1 + 3 * F(1, 3)) / 4
    # ... p_2^2 is not: E[r^4] is 5/33 here, 1/5 on the uniform two-level simplex
    assert power_sum_moment(law, (2, 2)) == (1 + 2 * F(1, 3) + F(5, 33)) / 4


@given(
    st.one_of(
        st.fractions(min_value=-5, max_value=F(11, 12), max_denominator=12),
        st.floats(min_value=-5, max_value=0.99, allow_subnormal=False),
    ),
    st.integers(1, 8),
)
@settings(max_examples=25, deadline=None)
def test_bloch_exact_mean_matches_closed_form_property(u, m):
    result = exact_mean(BlochBallMeasure(u=u), m)
    assert result.spectrum() == ks_spectrum(m, u)
    assert result.trace() == 1


@given(
    st.one_of(
        st.fractions(min_value=-8, max_value=F(99, 100), max_denominator=100),
        st.floats(min_value=-8, max_value=0.99, allow_subnormal=False),
    ),
    st.integers(1, 10),
)
@example(0.99, 10)
@example(F(1, 2), 10)  # the Bures measure
@example(-7.25, 10)
@settings(max_examples=20, deadline=None)
def test_bloch_moments_are_the_dirichlet_mixture(u, m):
    # (2 - u)(E_a + E_c)/2 - (1 - u) E_b over two-level Dirichlet laws is the polynomial in r^2
    types = sorted(partitions(m))
    nums, den = rhomean.oracle._power_sum_moments(BlochBallMeasure(u), types, m)
    assert [F(x, den) for x in nums] == [bloch_power_sum_moment_reference(u, ct) for ct in types], (u, m)


def test_bloch_exact_mean_m2_entries():
    mean = exact_mean(BlochBallMeasure(u=-2), 2).mean
    assert {mean[0, 0], mean[1, 1], mean[1, 2]} == {F(5, 18), F(2, 9), F(1, 18)}


def test_product_of_mixed_laws():
    bloch, zhsl = BlochBallMeasure(u=-2), HaarDirichletMeasure(3)
    result = exact_mean(ProductMeasure((bloch, zhsl)), 2)
    assert result.scenario == Scenario(factors=(2, 3), power=2)
    assert result.trace() == 1
    product = {}
    for v, k in exact_mean(bloch, 2).spectrum():
        for w, j in exact_mean(zhsl, 2).spectrum():
            product[v * w] = product.get(v * w, 0) + k * j
    assert result.spectrum() == sorted(product.items())
    # nested products flatten into the same power-major subsystem order
    nested = exact_mean(ProductMeasure((ProductMeasure((bloch,)), zhsl)), 2)
    assert np.all(nested.mean == result.mean)
    # an artifact records Dirichlet exponents, so it holds no Bloch factor
    from rhomean.jsonio import oracle_result_from_json, oracle_result_to_json

    with pytest.raises(ValueError):
        oracle_result_to_json(result)
    both = ProductMeasure((ProductMeasure((HaarDirichletMeasure(2, F(1, 3)),)), zhsl))
    back = oracle_result_from_json(oracle_result_to_json(exact_mean(both, 2)))
    assert back.measure == ProductMeasure((HaarDirichletMeasure(2, F(1, 3)), zhsl))
    assert np.all(back.mean == composite_haar_mean(Scenario((2, 3), 2), [F(1, 3), 0]).mean)

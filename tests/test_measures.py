"""Samplers: distributional checks with fixed seeds and 5-sigma gates."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhomean.linalg import validate_density_matrix
from rhomean.measures import (
    BlochBallMeasure,
    HaarDirichletMeasure,
    ProductMeasure,
    RandomStream,
    haar_unitaries,
    measure_from_json,
    sample_density,
    sample_density_batch,
    sample_haar_unitary,
    sample_simplex,
    simplex_points,
)


def gen(seed=0, stream=0):
    return RandomStream(seed, stream).generator()


def mean_with_stderr(x):
    x = np.asarray(x, dtype=float)
    return x.mean(), x.std(ddof=1) / np.sqrt(len(x))


def test_haar_unitarity():
    for n in (2, 3, 4):
        u = sample_haar_unitary(n, RandomStream(1))
        assert np.abs(u @ u.conj().T - np.eye(n)).max() < 1e-12


def qr_reference(n, q, size, gen):
    """Haar U and rho = U diag(e) U+ by QR with R's diagonal phases pushed into Q."""
    zr = gen.standard_normal((size, n, n))
    zi = gen.standard_normal((size, n, n))
    u, r = np.linalg.qr(zr + 1j * zi)
    d = np.einsum("bii->bi", r)
    u = u * (d / np.abs(d))[:, None, :]
    e = simplex_points(n, q, size, gen)
    return u, np.einsum("bij,bj,bkj->bik", u, e, u.conj())


def einsum_reference(spec, size, gen):
    """The (size, D, D) batch by complex einsum, as the samplers once formed it:
    the reference the entry-row samplers are held to."""
    if isinstance(spec, ProductMeasure):
        out = einsum_reference(spec.factors[0], size, gen)
        for f in spec.factors[1:]:
            b = einsum_reference(f, size, gen)
            d = out.shape[1] * b.shape[1]
            out = np.einsum("bij,bkl->bikjl", out, b).reshape(size, d, d)
        return out
    if isinstance(spec, BlochBallMeasure):
        direction = gen.standard_normal((size, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        ga = gen.gamma(1.5, size=size)
        gb = gen.gamma(1.0 - float(spec.u), size=size)
        v = np.sqrt(ga / (ga + gb))[:, None] * direction
        rho = np.empty((size, 2, 2), dtype=complex)
        rho[:, 0, 0] = 1 + v[:, 2]
        rho[:, 1, 1] = 1 - v[:, 2]
        rho[:, 0, 1] = v[:, 0] - 1j * v[:, 1]
        rho[:, 1, 0] = v[:, 0] + 1j * v[:, 1]
        return rho / 2
    # Haar-Dirichlet: Gram-Schmidt twice on complex (size, n) column blocks
    n, k = spec.n, spec.n - 1
    zr = gen.standard_normal((size, n, n))
    zi = gen.standard_normal((size, n, n))
    q = np.ascontiguousarray((zr[:, :, :k] + 1j * zi[:, :, :k]).transpose(2, 0, 1))
    for j in range(k):
        v = q[j]
        for _ in range(2 if j else 0):
            v -= np.einsum("jb,jbi->bi", np.einsum("jbi,bi->jb", q[:j].conj(), v), q[:j])
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    e = gen.gamma(1.0 - np.asarray(spec.q, dtype=float), size=(size, n))
    e /= e.sum(axis=1, keepdims=True)
    w = e[:, :-1] - e[:, -1:]
    rho = np.einsum("jbi,jbk->bik", w.T[:, :, None] * q, q.conj())
    rho.reshape(size, n * n)[:, :: n + 1] += e[:, -1:]
    return rho


BLOCH_PRODUCTS = [
    BlochBallMeasure(u=-2.0),
    BlochBallMeasure(u=0.5),
    ProductMeasure(factors=(BlochBallMeasure(u=-2.0), BlochBallMeasure(u=0.5))),
    ProductMeasure(
        factors=(
            BlochBallMeasure(u=0.0),
            ProductMeasure(factors=(BlochBallMeasure(u=-2.0), BlochBallMeasure(u=-0.5))),
        )
    ),
]


@pytest.mark.parametrize("spec", BLOCH_PRODUCTS, ids=["bloch", "bloch-bures", "2x2", "2x(2x2)"])
def test_bloch_and_product_draws_equal_einsum_reference_bitwise(spec):
    for seed, size in ((3, 7812), (4, 1), (5, 33)):
        g, g_ref = gen(seed, 1), gen(seed, 1)
        rho, ref = sample_density_batch(spec, size, g), einsum_reference(spec, size, g_ref)
        assert rho.shape == ref.shape == (size, spec.dim, spec.dim)
        # equal bytes, so the signs of zeros too
        assert np.ascontiguousarray(rho).tobytes() == ref.tobytes()
        np.testing.assert_equal(g.bit_generator.state, g_ref.bit_generator.state)


_laws = st.one_of(
    st.builds(
        lambda n, q: HaarDirichletMeasure(n=n, q=q),
        st.integers(2, 5),
        st.sampled_from([0.0, 0.5, -1.0, 0.9]),
    ),
    st.builds(BlochBallMeasure, st.sampled_from([-2.0, 0.0, 0.5])),
)
_specs = st.one_of(
    _laws, st.lists(_laws, min_size=2, max_size=3).map(lambda f: ProductMeasure(factors=tuple(f)))
)


@given(_specs, st.integers(0, 2**32 - 1), st.integers(1, 300))
@settings(max_examples=60, deadline=None)
def test_draws_are_exactly_hermitian_and_consume_the_reference_stream(spec, seed, size):
    g, g_ref = gen(seed, 2), gen(seed, 2)
    rho = sample_density_batch(spec, size, g)
    ref = einsum_reference(spec, size, g_ref)
    assert np.array_equal(rho, rho.conj().transpose(0, 2, 1))
    assert np.abs(rho - ref).max() < 1e-14
    np.testing.assert_equal(g.bit_generator.state, g_ref.bit_generator.state)


def test_batch_is_a_view_of_entry_major_rows():
    # the Monte Carlo chunk reads the rows back without a copy
    for spec in (HaarDirichletMeasure(n=3), BlochBallMeasure(u=0.5), BLOCH_PRODUCTS[2]):
        rho = sample_density_batch(spec, 50, gen(9))
        rows = rho.transpose(1, 2, 0).reshape(spec.dim**2, 50)
        assert rows.flags.c_contiguous and np.shares_memory(rows, rho)
        assert np.array_equal(rows[1], rho[:, 0, 1])


@given(
    st.integers(2, 6),
    st.sampled_from([0.0, 0.5, -1.0, 0.25, -7.5, 0.75]),
    st.integers(0, 2**32 - 1),
    st.integers(1, 500),
)
@settings(max_examples=60, deadline=None)
def test_equal_exponents_draw_the_per_level_gamma_variates(n, q, seed, size):
    g, g_ref = gen(seed), gen(seed)
    e = simplex_points(n, q, size, g)
    ref = g_ref.gamma(np.full(n, 1.0 - q), size=(size, n))
    assert np.array_equal(e, ref / ref.sum(axis=1, keepdims=True))
    np.testing.assert_equal(g.bit_generator.state, g_ref.bit_generator.state)


def test_seeds_are_keyed_modulo_two_to_the_64():
    # from a list, Philox read keys >= 2^63 through float: -1, 2^64 - 2 and
    # 2^64 - 1 all drew seed 0's stream, and 2^63 and 2^63 + 1 shared one
    seeds = (0, 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1)
    draws = [RandomStream(s, 4).generator().standard_normal(4) for s in seeds]
    assert len({d.tobytes() for d in draws}) == len(seeds)
    for s in seeds + (-1, -(2**63)):
        for shift in (2**64, -(2**64), 2**70):
            a = RandomStream(s, 4).generator().standard_normal(4)
            assert np.array_equal(a, RandomStream(s + shift, 4).generator().standard_normal(4))
    assert np.array_equal(
        RandomStream(0, -1).generator().standard_normal(4),
        RandomStream(0, 2**64 - 1).generator().standard_normal(4),
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_gram_schmidt_sampler_matches_qr_reference(n):
    # same Ginibre draws, so the same U and rho up to rounding, and the same
    # stream consumption (product measures share one generator in order)
    size = 4096
    u_ref, _ = qr_reference(n, 0.0, size, gen(16, n))
    u = haar_unitaries(n, size, gen(16, n))
    assert np.abs(u - u_ref).max() < 1e-12
    assert np.abs(np.einsum("bji,bjk->bik", u.conj(), u) - np.eye(n)).max() < 1e-13
    for q in ((0.5,) * n, (0.5,) + (-1.0,) * (n - 1)):
        g_ref, g = gen(17, n), gen(17, n)
        _, rho_ref = qr_reference(n, q, size, g_ref)
        rho = sample_density_batch(HaarDirichletMeasure(n=n, q=q), size, g)
        assert np.abs(rho - rho_ref).max() < 1e-14
        np.testing.assert_equal(g.bit_generator.state, g_ref.bit_generator.state)


def test_haar_first_entry_moment():
    # |U_11|^2 averages to 1/N
    for n in (2, 3):
        u = haar_unitaries(n, 100_000, gen(2))
        m, se = mean_with_stderr(np.abs(u[:, 0, 0]) ** 2)
        assert abs(m - 1 / n) < 5 * se


def test_haar_diagonal_pair_moment():
    # E|U_11 U_22|^2 = 1/3 for N = 2: |U_22| = |U_11| and |U_11|^2 ~ U(0,1)
    u = haar_unitaries(2, 100_000, gen(3))
    m, se = mean_with_stderr(np.abs(u[:, 0, 0] * u[:, 1, 1]) ** 2)
    assert abs(m - 1 / 3) < 5 * se


def test_haar_left_invariance():
    # trace moments of VU match those of U (two-sample gate at 5 sigma)
    n = 3
    v = sample_haar_unitary(n, RandomStream(99))
    u1 = haar_unitaries(n, 100_000, gen(4))
    u2 = v @ haar_unitaries(n, 100_000, gen(5))
    for f in (
        lambda u: np.einsum("bii->b", u).real,
        lambda u: np.einsum("bii->b", u).imag,
        lambda u: np.einsum("bij,bji->b", u, u).real,
    ):
        m1, s1 = mean_with_stderr(f(u1))
        m2, s2 = mean_with_stderr(f(u2))
        assert abs(m1 - m2) < 5 * np.hypot(s1, s2)


def test_simplex_moments():
    e = simplex_points(3, 0.0, 100_000, gen(6))
    assert np.abs(e.sum(axis=1) - 1).max() < 1e-12
    assert e.min() >= 0
    m, se = mean_with_stderr(e[:, 0])
    assert abs(m - 1 / 3) < 5 * se
    m, se = mean_with_stderr(e[:, 0] ** 2)
    assert abs(m - 1 / 6) < 5 * se  # E[e^2] = 2/(N(N+1))
    e = simplex_points(2, 0.5, 100_000, gen(7))
    m, se = mean_with_stderr(e[:, 0])
    assert abs(m - 1 / 2) < 5 * se
    with pytest.raises(ValueError):
        sample_simplex(2, 1.0, RandomStream(0))


def test_simplex_rows_that_underflow_raise_and_name_the_exponents():
    # at q = 0.999 about a fifth of the rows have every gamma variate at 0
    for q in (0.999, [0.999, 0.9995]):
        with pytest.raises(ValueError, match=r"exponents 1 - q = \[0\.001") as exc:
            simplex_points(2, q, 10_000, gen(1))
        assert "underflowed to 0" in str(exc.value)


def test_bloch_radial_law():
    # r^2 ~ Beta(3/2, 1-u): E[r^2] = (3/2)/(5/2-u) = 3/4 at u = 1/2
    rho = sample_density_batch(BlochBallMeasure(u=0.5), 100_000, gen(8))
    # r^2 = 2 tr(rho^2) - 1
    purity = np.einsum("bij,bji->b", rho, rho).real
    m, se = mean_with_stderr(2 * purity - 1)
    assert abs(m - 3 / 4) < 5 * se


def test_sampled_states_are_valid():
    specs = [
        HaarDirichletMeasure(n=2),
        HaarDirichletMeasure(n=3, q=(0.5, 0.5, 0.5)),
        BlochBallMeasure(u=-2.0),
        ProductMeasure(factors=(HaarDirichletMeasure(n=2), HaarDirichletMeasure(n=3))),
    ]
    for spec in specs:
        for seed in range(3):
            rho = sample_density(spec, RandomStream(seed))
            assert rho.shape == (spec.dim, spec.dim)
            validate_density_matrix(rho, hermiticity_tol=1e-10, psd_tol=1e-10)


def test_determinism_and_stream_independence():
    spec = HaarDirichletMeasure(n=3)
    a = sample_density_batch(spec, 50, gen(11, 5))
    b = sample_density_batch(spec, 50, gen(11, 5))
    assert np.array_equal(a, b)
    c = sample_density_batch(spec, 50, gen(11, 6))
    assert not np.array_equal(a, c)
    d = sample_density_batch(spec, 50, gen(12, 5))
    assert not np.array_equal(a, d)


def test_product_measure_dim_and_kron_structure():
    spec = ProductMeasure(
        factors=(HaarDirichletMeasure(n=2), HaarDirichletMeasure(n=3))
    )
    assert spec.dim == 6
    rho = sample_density(spec, RandomStream(0))
    # reduced factors are unit trace and valid
    from rhomean.linalg import partial_trace

    for keep, dim in [((0,), 2), ((1,), 3)]:
        red = partial_trace(rho, [2, 3], keep)
        validate_density_matrix(red)
        assert red.shape == (dim, dim)


def test_measure_json_round_trip():
    specs = [
        HaarDirichletMeasure(n=3, q=(0.0, 0.0, 0.0)),
        BlochBallMeasure(u=-2.0),
        ProductMeasure(
            factors=(HaarDirichletMeasure(n=2), BlochBallMeasure(u=0.5))
        ),
    ]
    for spec in specs:
        assert measure_from_json(spec.to_json()) == spec
    with pytest.raises(ValueError):
        measure_from_json({"type": "nope"})
    with pytest.raises(ValueError):
        HaarDirichletMeasure(n=2, q=(1.0, 0.0))
    with pytest.raises(ValueError):
        BlochBallMeasure(u=1.0)
    # the dimension is an integer; an index-like one is stored as an int
    for n in (2.7, 3.0, "3"):
        with pytest.raises(ValueError, match="^dimension must be an integer"):
            HaarDirichletMeasure(n=n)
        with pytest.raises(ValueError, match="^measure field 'n' must be an integer"):
            measure_from_json({"type": "zhsl", "n": n})
    with pytest.raises(ValueError, match="^measure field 'n' must be an integer"):
        measure_from_json({"type": "zhsl", "n": True})
    assert type(HaarDirichletMeasure(n=np.int64(3)).n) is int


@pytest.mark.parametrize(
    "payload, named",
    [
        ([{"type": "zhsl", "n": 2}], "list, not an object"),
        ("zhsl", "str, not an object"),
        ({"type": "zhsl", "n": 2, "q": None}, "'q'"),
        ({"type": "zhsl", "n": 2, "q": True}, "'q'"),
        ({"type": "zhsl", "n": 2, "q": "0.5"}, "'q'"),
        ({"type": "zhsl", "n": 2, "q": {"a": 1}}, "'q'"),
        ({"type": "zhsl", "n": 2, "q": [0, None]}, "'q'"),
        ({"type": "bloch", "u": None}, "'u'"),
        ({"type": "bloch", "u": "0.5"}, "'u'"),
        ({"type": "bloch", "u": False}, "'u'"),
        ({"type": "bloch"}, "'u'"),
        ({"type": "product", "factors": 5}, "'factors'"),
        ({"type": "product", "factors": [3]}, "'factors'"),
        ({"type": "product", "factors": {"type": "bloch", "u": 0}}, "'factors'"),
        ({"type": "product", "factors": [{"type": "bloch", "u": None}]}, "'u'"),
        ({"type": "haar-dirichlet", "n": 2}, "'haar-dirichlet'"),
    ],
)
def test_measure_json_names_the_malformed_field(payload, named):
    with pytest.raises(ValueError) as exc:
        measure_from_json(payload)
    assert named in str(exc.value)


def test_spec_stores_exponents_as_given_and_rejects_non_finite_ones():
    # a shared exponent is broadcast per level and kept exact for the oracle
    spec = HaarDirichletMeasure(n=3, q=Fraction(1, 3))
    assert spec.q == (Fraction(1, 3),) * 3 and all(type(x) is Fraction for x in spec.q)
    assert spec.to_json() == {"type": "zhsl", "n": 3, "q": [1 / 3] * 3}
    assert HaarDirichletMeasure(n=2).q == HaarDirichletMeasure(n=2, q=0).q == (0, 0)
    assert BlochBallMeasure(u=Fraction(-1, 2)).to_json() == {"type": "bloch", "u": -0.5}
    # NaN passed the q < 1 test and sampled an all-NaN mean
    for q in (math.nan, -math.inf, (0.0, math.nan)):
        with pytest.raises(ValueError):
            HaarDirichletMeasure(n=2, q=q)
    for u in (math.nan, -math.inf):
        with pytest.raises(ValueError):
            BlochBallMeasure(u=u)
    with pytest.raises(ValueError):
        measure_from_json({"type": "zhsl", "n": 2, "q": math.nan})

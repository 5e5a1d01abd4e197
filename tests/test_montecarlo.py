"""Monte Carlo estimator: convergence, error bars, bitwise reproducibility."""

import hashlib
import multiprocessing
import os
from dataclasses import replace
from itertools import combinations_with_replacement, permutations
from math import comb

import numpy as np
import pytest

from rhomean import montecarlo
from rhomean.fixtures import get_fixture
from rhomean.measures import (
    BlochBallMeasure,
    HaarDirichletMeasure,
    ProductMeasure,
    RandomStream,
    sample_density_batch,
    scenario_for,
)
from rhomean.montecarlo import (
    _chunk_stats,
    chunk_size_for,
    convergence_report,
    estimate_mean,
    monomial_pairs,
    monomial_table,
)
from rhomean.oracle import composite_haar_mean, exact_mean, haar_mean
from rhomean.linalg import Scenario, permutation_operator, tensor_power

PAIR_22 = ProductMeasure(factors=(HaarDirichletMeasure(n=2), HaarDirichletMeasure(n=2)))
PAIR_23 = ProductMeasure(factors=(HaarDirichletMeasure(n=2), HaarDirichletMeasure(n=3)))


def test_single_power_mean_is_fully_mixed():
    for n in (2, 3):
        est = estimate_mean(HaarDirichletMeasure(n=n), 1, 100_000, seed=0)
        rep = convergence_report(est, np.eye(n) / n)
        assert rep.max_z <= 5


def test_mean_matches_published_4x4():
    est = estimate_mean(HaarDirichletMeasure(n=2), 2, 100_000, seed=1)
    rep = convergence_report(est, get_fixture("n2m2").matrix.rpart.astype(float))
    assert rep.max_z <= 5
    assert rep.zero_pattern_agrees


def test_bloch_family_gives_same_4x4_mean():
    est = estimate_mean(BlochBallMeasure(u=-2.0), 2, 100_000, seed=2)
    rep = convergence_report(est, get_fixture("n2m2").matrix.rpart.astype(float))
    assert rep.max_z <= 5


def test_bloch_family_gives_same_8x8_mean():
    est = estimate_mean(BlochBallMeasure(u=-2.0), 3, 100_000, seed=3)
    rep = convergence_report(est, get_fixture("n2m3").matrix.rpart.astype(float))
    assert rep.max_z <= 5


def test_haar_dirichlet_m3_matches_published_8x8():
    est = estimate_mean(HaarDirichletMeasure(n=2), 3, 100_000, seed=12)
    rep = convergence_report(est, get_fixture("n2m3").matrix.rpart.astype(float))
    assert rep.max_z <= 5
    assert rep.zero_pattern_agrees


def test_bloch_family_spectrum_tracks_u():
    # clustered spectra of the u-family means hit the exact spectra, and every
    # entry of the estimate lies within 5 standard errors of the exact mean
    from rhomean.linalg import hermitian_eig
    from rhomean.spectral import cluster_spectrum

    for u in (0.0, 0.5):
        for m in (2, 3, 4):
            spec = BlochBallMeasure(u=u)
            exact = exact_mean(spec, m)
            est = estimate_mean(spec, m, 200_000, seed=13)
            assert convergence_report(est, exact.mean_float()).max_z <= 5
            vals, vecs = hermitian_eig(est.mean, tol=10 * est.stderr_max)
            dec = cluster_spectrum(vals, vecs, cluster_tol=10 * est.stderr_max)
            table = exact.spectrum()
            assert dec.multiplicities == tuple(k for _, k in table)
            for cl, (lam, _) in zip(dec.clusters, table):
                assert abs(cl.value - float(lam)) <= 5 * est.stderr_max


def test_estimate_invariants():
    est = estimate_mean(HaarDirichletMeasure(n=3), 2, 5_000, seed=4)
    tol = 5 * est.stderr_max
    assert np.abs(est.mean - est.mean.conj().T).max() <= 2 * tol
    assert abs(est.mean.trace() - 1) <= tol
    assert est.stderr.shape == est.mean.shape
    assert est.n_samples == 5_000


def test_stderr_scaling_with_samples():
    est1 = estimate_mean(HaarDirichletMeasure(n=2), 2, 20_000, seed=5)
    est2 = estimate_mean(HaarDirichletMeasure(n=2), 2, 40_000, seed=5)
    ratio = np.median(est2.stderr / est1.stderr)
    assert abs(ratio - 1 / np.sqrt(2)) < 0.15 / np.sqrt(2)


def test_bitwise_determinism():
    spec = HaarDirichletMeasure(n=2)
    a = estimate_mean(spec, 2, 20_000, seed=6, workers=1)
    b = estimate_mean(spec, 2, 20_000, seed=6, workers=1)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.stderr, b.stderr)


def test_worker_count_does_not_change_result():
    spec = HaarDirichletMeasure(n=3)
    a = estimate_mean(spec, 2, 30_000, seed=7, workers=1)
    b = estimate_mean(spec, 2, 30_000, seed=7, workers=2)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.stderr, b.stderr)
    assert np.array_equal(a.stderr_real, b.stderr_real)


@pytest.mark.parametrize(
    "spec, m", [(BlochBallMeasure(u=-2.0), 4), (PAIR_22, 2)], ids=["bloch-m4", "2x2-m2"]
)
def test_worker_count_does_not_change_monomial_reduction(spec, m):
    a = estimate_mean(spec, m, 20_000, seed=14, workers=1)
    b = estimate_mean(spec, m, 20_000, seed=14, workers=2)
    for field in ("mean", "stderr", "stderr_real", "stderr_imag"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


@pytest.mark.parametrize(
    "dim, m, expected", [(2, 1, 4), (2, 4, 35), (3, 4, 495), (2, 6, 84), (6, 2, 666)]
)
def test_monomial_table_counts_distinct_entries(dim, m, expected):
    pairs, index = monomial_table(dim, m)
    assert pairs.shape == (expected, m) == (comb(dim * dim + m - 1, m), m)
    assert index.shape == (dim ** (2 * m),)
    assert np.all(np.diff(pairs, axis=1) >= 0)
    # the pool's chunks read monomial_pairs alone, so it must be the table's
    # order: the m-multisets of the flat positions, lexicographically
    assert np.array_equal(monomial_pairs(dim, m), pairs)
    rows = pairs.tolist()
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert rows == [list(c) for c in combinations_with_replacement(range(dim * dim), m)]
    # every monomial is some entry of the power, and entry (I, J) multiplies
    # rho[i_k, j_k] over the slots k
    assert set(index.tolist()) == set(range(expected))
    rho = np.arange(1, dim * dim + 1, dtype=float).reshape(dim, dim) / (dim * dim)
    products = np.prod(rho.reshape(-1)[pairs], axis=1)
    assert np.allclose(products[index].reshape(dim**m, dim**m), tensor_power(rho, m))


def _one_shot_index(dim, m):
    """Every entry's digits at once, ranked with np.unique: the reference for
    the row-blocked index of ``monomial_table``."""
    digits = np.indices((dim,) * (2 * m), dtype=np.int32).reshape(2 * m, -1)
    codes = np.sort((digits[:m] * dim + digits[m:]).T, axis=1)
    weights = (dim * dim) ** np.arange(m - 1, -1, -1, dtype=np.int64)
    _, index = np.unique(codes @ weights, return_inverse=True)
    return index


@pytest.mark.parametrize("block_bytes", [None, 1], ids=["default-blocks", "one-row-blocks"])
@pytest.mark.parametrize("dim, m", [(2, 1), (2, 4), (3, 4), (2, 6), (6, 2), (2, 8)])
def test_monomial_index_matches_one_shot_reference(dim, m, block_bytes, monkeypatch):
    if block_bytes is not None:
        monkeypatch.setattr(montecarlo, "BLOCK_BYTES", block_bytes)
    _, index = monomial_table.__wrapped__(dim, m)
    reference = _one_shot_index(dim, m)
    assert index.dtype == reference.dtype and index.shape == reference.shape
    assert np.array_equal(index, reference)


def _one_shot_chunk_stats(args):
    """The chunk reduction over all monomials in one (count, M) array: the
    reference the blocked ``_chunk_stats`` must equal bit for bit."""
    spec, m, seed, chunk_index, count = args
    gen = RandomStream(seed, chunk_index).generator()
    flat = sample_density_batch(spec, count, gen).reshape(count, -1)
    pairs = monomial_pairs(spec.dim, m)
    power = flat[:, pairs[:, 0]]
    for k in range(1, m):
        power *= flat[:, pairs[:, k]]
    mean = power.mean(axis=0)
    m2_re = np.square(power.real - mean.real).sum(axis=0)
    m2_im = np.square(power.imag - mean.imag).sum(axis=0)
    return count, mean, m2_re, m2_im


@pytest.mark.parametrize("width", [None, 1, 2, 7, 10**6], ids=lambda w: f"width-{w or 'default'}")
@pytest.mark.parametrize(
    "spec, m, count, split",
    [
        (BlochBallMeasure(u=-2.0), 4, 7812, True),
        (PAIR_23, 2, 1543, True),
        (HaarDirichletMeasure(n=3), 1, 8192, True),
        (HaarDirichletMeasure(n=3), 2, 8192, True),
        (HaarDirichletMeasure(n=2), 2, 100, False),
    ],
    ids=["bloch-m4", "2x3-m2", "zhsl-n3m1", "zhsl-n3m2", "one-block"],
)
def test_blocked_chunk_stats_match_one_shot_bitwise(spec, m, count, split, width, monkeypatch):
    n_monomials = len(monomial_pairs(spec.dim, m))
    if width is None:
        # the module's own block width, which splits all but the last case
        width = max(1, montecarlo.BLOCK_BYTES // (16 * count))
        assert (width < n_monomials) == split
    else:
        monkeypatch.setattr(montecarlo, "BLOCK_BYTES", 16 * count * width)
    args = (spec, m, 17, 3, count)
    got, want = _chunk_stats(args), _one_shot_chunk_stats(args)
    assert got[0] == want[0] == count
    for name, a, b in zip(("mean", "M2_re", "M2_im"), got[1:], want[1:]):
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def _assert_same_estimate(a, b):
    for field in ("mean", "stderr", "stderr_real", "stderr_imag"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def _children() -> list[int]:
    return sorted(p.pid for p in multiprocessing.active_children())


@pytest.fixture
def fresh_pool():
    """No pool and no cached monomials, so the next pooled call forks one and
    its workers inherit only the table that call builds first."""
    if os.getpid() in montecarlo._pools:
        montecarlo._end_pool(os.getpid())
    monomial_pairs.cache_clear()
    monomial_table.cache_clear()


def test_pool_is_forked_once_and_reused(fresh_pool):
    # the second (dim, m) is first seen after the pool's workers are forked
    children = []
    for spec, m in ((HaarDirichletMeasure(n=2), 2), (HaarDirichletMeasure(n=3), 3)):
        assert 2 * chunk_size_for(scenario_for(spec, m).dim) < 20_000  # two workers busy
        one = estimate_mean(spec, m, 20_000, seed=17, workers=1)
        _assert_same_estimate(one, estimate_mean(spec, m, 20_000, seed=17, workers=2))
        children.append(_children())
    assert len(children[0]) == 2
    assert children[1] == children[0]


def test_pool_is_replaced_when_its_size_changes(fresh_pool):
    spec = HaarDirichletMeasure(n=2)  # 4 chunks
    one = estimate_mean(spec, 2, 30_000, seed=19, workers=1)
    before: set[int] = set()
    for workers in (2, 3, 2):
        _assert_same_estimate(one, estimate_mean(spec, 2, 30_000, seed=19, workers=workers))
        alive = set(_children())
        assert len(alive) == workers and not alive & before, workers
        before = alive


def _failing_chunk(args):
    if args[3] == 1:
        raise RuntimeError(f"chunk 1 failed in process {os.getpid()}")
    return _chunk_stats(args)


def test_failed_chunk_surfaces_and_the_next_call_forks_afresh(fresh_pool, monkeypatch):
    spec = HaarDirichletMeasure(n=2)
    one = estimate_mean(spec, 2, 30_000, seed=20, workers=1)
    _assert_same_estimate(one, estimate_mean(spec, 2, 30_000, seed=20, workers=2))
    failed_pool = set(_children())
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_chunk_stats", _failing_chunk)
        with pytest.raises(RuntimeError, match="chunk 1 failed in process") as exc:
            estimate_mean(spec, 2, 30_000, seed=20, workers=2)
    assert str(exc.value) != f"chunk 1 failed in process {os.getpid()}"  # raised in a worker
    assert os.getpid() not in montecarlo._pools
    assert _children() == []
    _assert_same_estimate(one, estimate_mean(spec, 2, 30_000, seed=20, workers=2))
    assert len(_children()) == 2 and not set(_children()) & failed_pool


def _estimate_digest(est) -> str:
    h = hashlib.sha256()
    for field in (est.mean, est.stderr_real, est.stderr_imag):
        h.update(np.ascontiguousarray(field).tobytes())
    return h.hexdigest()


def _estimate_in_child(conn):
    est = estimate_mean(HaarDirichletMeasure(n=3), 2, 20_000, seed=21, workers=2)
    conn.send((_estimate_digest(est), len(multiprocessing.active_children())))
    conn.close()


def test_forked_process_forks_a_pool_of_its_own():
    est = estimate_mean(HaarDirichletMeasure(n=3), 2, 20_000, seed=21, workers=2)
    parent_pool = _children()
    assert len(parent_pool) == 2
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_estimate_in_child, args=(send,))
    proc.start()
    send.close()
    # the answer is a few bytes, so the child never blocks on the pipe
    proc.join(60)
    if proc.is_alive():
        proc.kill()
        proc.join()
    assert proc.exitcode == 0 and recv.poll(0)
    assert recv.recv() == (_estimate_digest(est), 2)
    # the child left the parent's pool alone, and it still serves the parent
    assert _children() == parent_pool
    again = estimate_mean(HaarDirichletMeasure(n=3), 2, 20_000, seed=21, workers=2)
    assert _estimate_digest(again) == _estimate_digest(est)
    assert _children() == parent_pool


def _dense_reference(spec, m, n_samples, seed):
    """Mean and stderrs of rho^(x m) from the estimator's own chunk draws."""
    size = chunk_size_for(scenario_for(spec, m).dim)
    powers = []
    for i, start in enumerate(range(0, n_samples, size)):
        count = min(size, n_samples - start)
        rho = sample_density_batch(spec, count, RandomStream(seed, i).generator())
        powers.extend(tensor_power(r, m) for r in rho)
    powers = np.array(powers)
    scale = np.sqrt(n_samples)
    return (
        powers.mean(axis=0),
        powers.real.std(axis=0, ddof=1) / scale,
        powers.imag.std(axis=0, ddof=1) / scale,
    )


@pytest.mark.parametrize(
    "spec, m",
    [(BlochBallMeasure(u=-2.0), 3), (HaarDirichletMeasure(n=3), 2), (PAIR_22, 2)],
    ids=["bloch-m3", "zhsl-n3m2", "2x2-m2"],
)
def test_monomial_reduction_matches_dense_tensor_power(spec, m):
    n_samples = 10_000  # two chunks, the second one partial
    assert chunk_size_for(scenario_for(spec, m).dim) < n_samples
    est = estimate_mean(spec, m, n_samples, seed=15)
    mean, se_re, se_im = _dense_reference(spec, m, n_samples, seed=15)
    assert np.abs(est.mean - mean).max() <= 1e-12
    assert np.abs(est.stderr_real - se_re).max() <= 1e-12
    assert np.abs(est.stderr_imag - se_im).max() <= 1e-12


def test_estimate_is_exactly_slot_permutation_invariant():
    est = estimate_mean(HaarDirichletMeasure(n=2), 4, 5_000, seed=16)
    for sigma in permutations(range(4)):
        p = permutation_operator(sigma, 2, 4)
        for mat in (est.mean, est.stderr_real, est.stderr_imag):
            assert np.array_equal(p @ mat @ p.T, mat), sigma


def test_product_measure_mean_factorizes():
    est = estimate_mean(PAIR_22, 2, 100_000, seed=8)
    oracle = composite_haar_mean(Scenario(factors=(2, 2), power=2))
    rep = convergence_report(est, oracle.mean_float())
    assert rep.max_z <= 5


def test_convergence_report_against_itself_and_shapes():
    est = estimate_mean(HaarDirichletMeasure(n=2), 2, 1_000, seed=9)
    rep = convergence_report(est, est.mean)
    assert rep.max_z == 0
    assert rep.max_abs_delta == 0
    with pytest.raises(ValueError):
        convergence_report(est, np.eye(8) / 8)


def test_rounding_noise_parts_score_zero():
    # a product of entries that is exactly real can carry an imaginary part and
    # a stderr_imag of ~1e-20 from complex-multiply rounding, at any ratio;
    # such a part is made here at ratio 100 on a real estimate
    est = estimate_mean(HaarDirichletMeasure(n=2), 2, 100_000, seed=1, workers=1)
    ref = haar_mean(2, 2, 0).mean_float()
    mean, stderr_imag = est.mean.copy(), est.stderr_imag.copy()
    mean[2, 1] = mean[2, 1].real + 1e-18j
    stderr_imag[2, 1] = 1e-20
    noisy = replace(est, mean=mean, stderr_imag=stderr_imag)
    delta = noisy.mean - ref
    genuine = max(
        (np.abs(part[se >= 1e-15]) / se[se >= 1e-15]).max()
        for part, se in ((delta.real, noisy.stderr_real), (delta.imag, noisy.stderr_imag))
    )
    rep = convergence_report(noisy, ref)
    assert rep.max_z == genuine < 100
    # an error well above the rounding floor on a noise-level part still counts
    shifted = noisy.mean.copy()
    shifted[2, 1] += 1e-12j
    assert convergence_report(replace(noisy, mean=shifted), ref).max_z > 5


def test_zero_pattern_against_oracle():
    est = estimate_mean(HaarDirichletMeasure(n=3), 2, 50_000, seed=10)
    rep = convergence_report(est, haar_mean(3, 2, 0).mean_float())
    assert rep.n_entries_over_5 == 0
    assert rep.zero_pattern_agrees


def test_scenario_inference_and_chunk_sizes():
    spec = ProductMeasure(
        factors=(HaarDirichletMeasure(n=2), HaarDirichletMeasure(n=3))
    )
    sc = scenario_for(spec, 2)
    assert sc.factors == (2, 3)
    assert sc.dim == 36
    assert 32 <= chunk_size_for(144) <= 8192
    assert chunk_size_for(4) == 8192


def test_sample_count_validation():
    with pytest.raises(ValueError):
        estimate_mean(HaarDirichletMeasure(n=2), 2, 99)
    with pytest.raises(ValueError):
        estimate_mean(HaarDirichletMeasure(n=2), 13, 1_000)


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("m", {"m": 2.0}),
        ("n_samples", {"n_samples": 1000.0}),
        ("n_samples", {"n_samples": "1000"}),
        ("workers", {"workers": 1.5}),
        ("seed", {"seed": 1.0}),
        ("seed", {"seed": None}),
    ],
)
def test_integer_arguments_are_validated_by_name(name, kwargs):
    args = {"m": 1, "n_samples": 1000, **kwargs}
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        estimate_mean(HaarDirichletMeasure(n=2), **args)
    # index-like integers are taken as they are
    est = estimate_mean(HaarDirichletMeasure(n=2), np.int64(1), np.int32(1000), seed=np.uint64(3))
    assert est.n_samples == 1000 and type(est.seed) is int and est.seed == 3


def test_monomial_table_cache_is_bounded():
    monomial_table.cache_clear()
    sizes = [(HaarDirichletMeasure(n=2), 1), (HaarDirichletMeasure(n=2), 2), (HaarDirichletMeasure(n=3), 2)]
    sizes += [(BlochBallMeasure(u=0.5), 3), (PAIR_23, 1)]
    for spec, m in sizes:
        for _ in range(2):
            estimate_mean(spec, m, 200, seed=1, workers=1)
    info = monomial_table.cache_info()
    assert info.currsize == info.maxsize == 2
    # the second call at each size hits the table the first one built
    assert info.hits == 5 and info.misses == 5


def test_workers_env_default_and_worker_count_validation(monkeypatch):
    from rhomean.cli import build_parser

    # the CLI is the one reader of RHOMEAN_WORKERS; the library takes a count
    monkeypatch.setenv("RHOMEAN_WORKERS", "3")
    argv = ["mean", "--measure", '{"type":"zhsl","n":2}', "--m", "2", "--samples", "100"]
    assert build_parser().parse_args(argv).workers == 3
    with pytest.raises(ValueError):
        estimate_mean(HaarDirichletMeasure(n=2), 2, 1_000, workers=0)

"""Monte Carlo estimator: convergence, error bars, bitwise reproducibility."""

import glob
import hashlib
import os
import select
import signal
import subprocess
import sys
import time
import weakref
from dataclasses import replace
from functools import partial
from itertools import accumulate, combinations_with_replacement, permutations
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rhomean
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
)
from rhomean.oracle import composite_haar_mean, exact_mean, haar_mean
from rhomean.linalg import Scenario, monomial_index, permutation_operator, tensor_power
from rhomean.verify import Budget, run_case

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
    "spec, m",
    [(BlochBallMeasure(u=-2.0), 4), (PAIR_22, 2), (BlochBallMeasure(u=-2.0), 3), (PAIR_23, 3)],
    ids=["bloch-m4", "2x2-m2", "bloch-m3", "2x3-m3"],
)
def test_worker_count_does_not_change_monomial_reduction(spec, m):
    a = estimate_mean(spec, m, 20_000, seed=14, workers=1)
    b = estimate_mean(spec, m, 20_000, seed=14, workers=2)
    for field in ("mean", "stderr", "stderr_real", "stderr_imag"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def _list_tree_reduce(items):
    """The level-by-level fold that the recursive ``_tree_reduce`` replaced,
    kept as the reference for its tree."""
    while len(items) > 1:
        items = [
            montecarlo._merge(items[i], items[i + 1]) if i + 1 < len(items) else items[i]
            for i in range(0, len(items), 2)
        ]
    return items[0]


def test_tree_reduce_builds_the_level_by_level_tree(monkeypatch):
    monkeypatch.setattr(montecarlo, "_merge", lambda a, b: (a, b))
    for count in range(1, 301):
        stats = iter(range(count + 1))
        assert montecarlo._tree_reduce(stats, count) == _list_tree_reduce(list(range(count))), count
        assert next(stats) == count  # drew exactly its own accumulators


def test_cut_subtrees_merged_above_the_cut_give_the_tree_bitwise():
    rng = np.random.default_rng(23)
    for count in range(1, 65):
        # cheap accumulators of a few samples each, with 3 monomials
        stats = [
            (int(k), rng.normal(size=3) + 1j * rng.normal(size=3), rng.random(3), rng.random(3))
            for k in rng.integers(1, 9, count)
        ]
        want = _list_tree_reduce(stats)
        for processes in range(2, 7):
            shares = montecarlo._cut(count, processes)
            runs = [sum(c for _, c in share) for share in shares]
            assert len(shares) == processes and max(runs) - min(runs) <= 1, (count, processes)
            assert runs[-1] == -(-count // processes), (count, processes)  # the caller's tail
            nodes = [node for share in shares for node in share]
            assert [i for s, c in nodes for i in range(s, s + c)] == list(range(count))
            folded = iter([montecarlo._tree_reduce(map(stats.__getitem__, range(s, s + c)), c) for s, c in nodes])
            got = montecarlo._tree_reduce(folded, count, 0, set(nodes))
            assert next(folded, None) is None, (count, processes)  # drew every subtree
            assert got[0] == want[0], (count, processes)
            for a, b in zip(got[1:], want[1:]):
                assert np.array_equal(a, b), (count, processes)


def test_serial_run_merges_each_chunk_as_its_subtree_completes(monkeypatch):
    # 44 full chunks of 32 samples and a partial one; collected into one list
    # first, all 45 accumulators were alive at the last draw
    spec, m, n_samples = BlochBallMeasure(u=-2.0), 8, 44 * 32 + 10
    assert chunk_size_for(scenario_for(spec, m).dim) == 32
    alive, at_draw = set(), []

    def track(stats):
        key = object()
        alive.add(key)
        weakref.finalize(stats[1], alive.discard, key)
        return stats

    def chunk(args):
        stats = track(_chunk_stats(args))
        at_draw.append(len(alive))
        return stats

    merge = montecarlo._merge
    monkeypatch.setattr(montecarlo, "_chunk_stats", chunk)
    monkeypatch.setattr(montecarlo, "_merge", lambda a, b: track(merge(a, b)))
    estimate_mean(spec, m, n_samples, seed=22, workers=1)
    chunks = len(at_draw)
    assert chunks == 45 and max(at_draw) <= chunks.bit_length() + 1, at_draw


def _colex_multisets(d2, m):
    """The m-multisets of range(d2), sorted, in colex order: by largest
    element first, then by the rest in the same order."""
    return sorted(combinations_with_replacement(range(d2), m), key=lambda t: t[::-1])


@pytest.mark.parametrize(
    "dim, m, expected", [(2, 1, 4), (2, 4, 35), (3, 4, 495), (2, 6, 84), (6, 2, 666)]
)
def test_monomial_table_counts_distinct_entries(dim, m, expected):
    index = monomial_index(dim, m)
    assert index.shape == (dim ** (2 * m),) and index.dtype == np.intp
    # every monomial is some entry of the power, and entry (I, J) multiplies
    # rho[i_k, j_k] over the slots k
    assert expected == comb(dim * dim + m - 1, m)
    assert np.array_equal(np.unique(index), np.arange(expected))
    pairs = np.array(_colex_multisets(dim * dim, m))
    rho = np.arange(1, dim * dim + 1, dtype=float).reshape(dim, dim) / (dim * dim)
    products = np.prod(rho.reshape(-1)[pairs], axis=1)
    assert np.allclose(products[index].reshape(dim**m, dim**m), tensor_power(rho, m))


@pytest.mark.parametrize("dim, m", [(2, 1), (2, 2), (2, 4), (3, 4), (2, 6), (6, 2), (6, 3)])
def test_colex_plan_orders_each_level_by_its_largest_factor(dim, m):
    # the kernel's construction, on multisets: group b of level k, rows
    # comb(b + k - 1, k) up to comb(b + k, k), is the first
    # comb(b + k - 1, k - 1) rows of level k - 1, each with b appended
    d2 = dim * dim
    level = [()]
    for k in range(1, m + 1):
        groups = [[row + (b,) for row in level[: comb(b + k - 1, k - 1)]] for b in range(d2)]
        starts = list(accumulate(map(len, groups), initial=0))
        assert starts == [comb(b + k - 1, k) for b in range(d2 + 1)]
        level = [row for group in groups for row in group]
        assert level == _colex_multisets(d2, k)
    # the closed form monomial_index sums: a sorted multiset's row in level m
    assert [sum(comb(a + k, k + 1) for k, a in enumerate(row)) for row in level] == list(range(len(level)))


@st.composite
def _index_sizes(draw):
    dim = draw(st.integers(2, 6))
    return dim, draw(st.integers(1, max(k for k in range(1, 8) if dim ** (2 * k) <= 2**13)))


@given(_index_sizes())
@settings(max_examples=40, deadline=None)
def test_monomial_index_ranks_each_entry_in_colex_order(sizes):
    dim, m = sizes
    rank = {row: r for r, row in enumerate(_colex_multisets(dim * dim, m))}
    index = monomial_index(dim, m)
    size = dim**m
    for flat, got in enumerate(index.tolist()):
        row, col = divmod(flat, size)
        codes = sorted(row // dim**s % dim * dim + col // dim**s % dim for s in range(m))
        assert got == rank[tuple(codes)], (row, col)


def _one_shot_index(dim, m):
    """Every entry's digits at once, ranked with np.unique: the reference for
    the slot-by-slot ``monomial_index``.  A sorted multiset's key weighs its
    largest element most, so the keys sort in colex order."""
    digits = np.indices((dim,) * (2 * m), dtype=np.int32).reshape(2 * m, -1)
    codes = np.sort((digits[:m] * dim + digits[m:]).T, axis=1)
    weights = (dim * dim) ** np.arange(m, dtype=np.int64)
    _, index = np.unique(codes @ weights, return_inverse=True)
    return index


@pytest.mark.parametrize("dim, m", [(2, 1), (2, 4), (3, 4), (2, 6), (6, 2), (2, 8)])
def test_monomial_index_matches_one_shot_reference(dim, m):
    index = monomial_index(dim, m)
    reference = _one_shot_index(dim, m)
    assert index.dtype == reference.dtype and index.shape == reference.shape
    assert np.array_equal(index, reference)


def _one_shot_chunk_stats(args):
    """The chunk reduction over all monomials in one (count, M) array: the
    reference the blocked ``_chunk_stats`` must equal bit for bit."""
    spec, m, seed, chunk_index, count = args
    gen = RandomStream(seed, chunk_index).generator()
    flat = sample_density_batch(spec, count, gen).reshape(count, -1)
    pairs = np.array(_colex_multisets(spec.dim**2, m))
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
        (BlochBallMeasure(u=-2.0), 3, 8192, True),
        (PAIR_23, 3, 42, True),
    ],
    ids=["bloch-m4", "2x3-m2", "zhsl-n3m1", "zhsl-n3m2", "one-block", "bloch-m3", "2x3-m3"],
)
def test_blocked_chunk_stats_match_one_shot_bitwise(spec, m, count, split, width, monkeypatch):
    n_monomials = comb(spec.dim**2 + m - 1, m)
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


_ZHSL = st.builds(HaarDirichletMeasure, n=st.integers(2, 4), q=st.sampled_from([0.0, 0.5, -1.0]))
_BLOCH = st.builds(BlochBallMeasure, u=st.sampled_from([-2.0, 0.0, 0.5]))
_SMALL = st.one_of(st.builds(HaarDirichletMeasure, n=st.integers(2, 3)), _BLOCH)


@st.composite
def _chunk_args(draw):
    factors = st.lists(_SMALL, min_size=2, max_size=3).map(tuple)
    spec = draw(st.one_of(_ZHSL, _BLOCH, st.builds(ProductMeasure, factors=factors)))
    d2 = spec.dim**2
    # at most about 4000 monomials, so the one-shot reference stays small
    m = draw(st.integers(1, max(k for k in range(1, 5) if comb(d2 + k - 1, k) <= 4000)))
    seed, chunk_index = draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 9))
    return spec, m, seed, chunk_index, draw(st.integers(1, 600))


@given(_chunk_args(), st.sampled_from([None, 1, 2, 7, 64]))
# numpy multiplies a lone (1, 1) block broadcast against a (count,) row without
# FMA, so at count 1 a one-row block must meet its entry row as a (1, count) row
@example((HaarDirichletMeasure(n=2), 2, 0, 0, 1), 1)
@settings(max_examples=100, deadline=None)
def test_colex_chunk_stats_match_one_shot_bitwise(args, width):
    with pytest.MonkeyPatch.context() as patch:
        if width is not None:
            patch.setattr(montecarlo, "BLOCK_BYTES", 16 * args[-1] * width)
        got, want = _chunk_stats(args), _one_shot_chunk_stats(args)
    assert got[0] == want[0] == args[-1]
    for name, a, b in zip(("mean", "M2_re", "M2_im"), got[1:], want[1:]):
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def _assert_same_estimate(a, b):
    for field in ("mean", "stderr", "stderr_real", "stderr_imag"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def _children() -> list[int]:
    """This process's child pids, read from /proc: a worker counts until it is reaped."""
    pids = []
    for path in glob.glob("/proc/self/task/*/children"):
        with open(path) as f:
            pids += map(int, f.read().split())
    return sorted(pids)


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _wait(pid: int, timeout: float = 60) -> int:
    """The exit code of child ``pid``; it is killed if it runs past ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    raise AssertionError(f"process {pid} ran past {timeout} s")


@pytest.fixture
def fresh_pool():
    """No pool, so the next pooled call forks one afresh."""
    if os.getpid() in montecarlo._pools:
        montecarlo._end_pool(os.getpid())


def test_pool_is_forked_once_and_reused(fresh_pool):
    # the second (dim, m) is first seen after the pool's workers are forked
    children = []
    for spec, m in ((HaarDirichletMeasure(n=2), 2), (HaarDirichletMeasure(n=3), 3)):
        assert 2 * chunk_size_for(scenario_for(spec, m).dim) < 20_000  # two workers busy
        one = estimate_mean(spec, m, 20_000, seed=17, workers=1)
        _assert_same_estimate(one, estimate_mean(spec, m, 20_000, seed=17, workers=2))
        children.append(_children())
    assert len(children[0]) == 1
    assert children[1] == children[0]


def test_pool_is_replaced_when_the_worker_count_changes(fresh_pool):
    spec = HaarDirichletMeasure(n=2)  # 4 chunks
    one = estimate_mean(spec, 2, 30_000, seed=19, workers=1)
    before: set[int] = set()
    for workers in (2, 3, 2):
        _assert_same_estimate(one, estimate_mean(spec, 2, 30_000, seed=19, workers=workers))
        alive = set(_children())
        assert len(alive) == workers - 1 and not alive & before, workers
        before = alive


def test_short_job_reuses_the_pool(fresh_pool):
    # a call with fewer chunks than workers leaves processes idle, not re-forked
    spec = HaarDirichletMeasure(n=2)
    children = []
    for n_samples, chunks in ((30_000, 4), (12_000, 2), (30_000, 4)):
        assert -(-n_samples // chunk_size_for(scenario_for(spec, 2).dim)) == chunks
        one = estimate_mean(spec, 2, n_samples, seed=24, workers=1)
        _assert_same_estimate(one, estimate_mean(spec, 2, n_samples, seed=24, workers=3))
        children.append(_children())
    assert len(children[0]) == 2
    assert children[1] == children[0] and children[2] == children[0]


def test_verify_keeps_the_runs_pool_through_the_determinism_case(fresh_pool):
    # mc.determinism compares one worker with the run's own three
    budget = Budget(samples=20_000, workers=3)
    assert run_case("mc.m1", budget).status == "PASS"
    children = _children()
    rep = run_case("mc.determinism", budget)
    assert len(children) == 2 and _children() == children
    assert rep.status == "PASS" and rep.notes.endswith("at 1 and 3 workers"), rep.notes


def _chunk_after_the_callers(args, started):
    # the worker's chunks 0 and 1 wait until the caller has started its chunk 2
    if args[3] >= 2:
        os.write(started[1], b"2")
    elif not select.select([started[0]], [], [], 20)[0]:
        raise RuntimeError("the caller did not fold its share beside the workers")
    return _chunk_stats(args)


def test_caller_folds_its_share_while_the_pool_folds_the_rest(fresh_pool, monkeypatch):
    spec = HaarDirichletMeasure(n=2)  # 4 chunks: 0 and 1 in the worker's share
    assert montecarlo._cut(4, 2) == [[(0, 2)], [(2, 2)]]
    one = estimate_mean(spec, 2, 30_000, seed=25, workers=1)
    started = os.pipe()
    monkeypatch.setattr(montecarlo, "_chunk_stats", partial(_chunk_after_the_callers, started=started))
    try:  # the worker is forked on the patched kernel
        _assert_same_estimate(one, estimate_mean(spec, 2, 30_000, seed=25, workers=2))
    finally:
        if os.getpid() in montecarlo._pools:
            montecarlo._end_pool(os.getpid())
        for fd in started:
            os.close(fd)


def _failing_chunk(args, failing=1, seed=20):
    if args[2:4] == (seed, failing):
        raise RuntimeError(f"chunk {failing} failed in process {os.getpid()}")
    return _chunk_stats(args)


def test_failed_chunk_surfaces_and_the_next_call_forks_afresh(fresh_pool, monkeypatch):
    spec = HaarDirichletMeasure(n=2)  # 4 chunks: 0 and 1 in the pool's share
    assert montecarlo._cut(4, 2)[0] == [(0, 2)]
    one = estimate_mean(spec, 2, 30_000, seed=20, workers=1)
    with monkeypatch.context() as patch:
        # a pool runs the kernel it was forked with: this call forks it on the patch
        patch.setattr(montecarlo, "_chunk_stats", _failing_chunk)
        estimate_mean(spec, 2, 30_000, seed=19, workers=2)
        failed_pool = set(_children())
        assert len(failed_pool) == 1
        with pytest.raises(RuntimeError, match="chunk 1 failed in process") as exc:
            estimate_mean(spec, 2, 30_000, seed=20, workers=2)
    assert str(exc.value) != f"chunk 1 failed in process {os.getpid()}"  # raised in a worker
    assert os.getpid() not in montecarlo._pools
    assert _children() == []
    _assert_same_estimate(one, estimate_mean(spec, 2, 30_000, seed=20, workers=2))
    assert len(_children()) == 1 and not set(_children()) & failed_pool


def test_failed_chunk_of_the_callers_share_ends_the_pool(fresh_pool, monkeypatch):
    spec = HaarDirichletMeasure(n=2)  # 4 chunks: 2 and 3 in the caller's share
    assert montecarlo._cut(4, 2)[1] == [(2, 2)]
    one = estimate_mean(spec, 2, 30_000, seed=20, workers=1)
    _assert_same_estimate(one, estimate_mean(spec, 2, 30_000, seed=20, workers=2))
    failed_pool = set(_children())
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_chunk_stats", partial(_failing_chunk, failing=3))
        with pytest.raises(RuntimeError, match="chunk 3 failed in process") as exc:
            estimate_mean(spec, 2, 30_000, seed=20, workers=2)
    assert str(exc.value) == f"chunk 3 failed in process {os.getpid()}"  # raised by the caller
    assert os.getpid() not in montecarlo._pools
    assert _children() == []
    _assert_same_estimate(one, estimate_mean(spec, 2, 30_000, seed=20, workers=2))
    assert len(_children()) == 1 and not set(_children()) & failed_pool


def _dying_chunk(args):
    if args[3] == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return _chunk_stats(args)


def test_worker_that_dies_mid_fold_surfaces_and_the_next_call_forks_afresh(fresh_pool, monkeypatch):
    spec = HaarDirichletMeasure(n=2)  # 4 chunks: 0 and 1 in the worker's share
    one = estimate_mean(spec, 2, 30_000, seed=20, workers=1)
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_chunk_stats", _dying_chunk)  # the worker is forked on it
        with pytest.raises(RuntimeError, match=r"worker \d+ died without a reply"):
            estimate_mean(spec, 2, 30_000, seed=20, workers=2)
    assert os.getpid() not in montecarlo._pools
    assert _children() == []
    _assert_same_estimate(one, estimate_mean(spec, 2, 30_000, seed=20, workers=2))
    assert len(_children()) == 1


def _estimate_digest(est) -> str:
    h = hashlib.sha256()
    for field in (est.mean, est.stderr_real, est.stderr_imag):
        h.update(np.ascontiguousarray(field).tobytes())
    return h.hexdigest()


def test_forked_process_forks_a_pool_of_its_own():
    est = estimate_mean(HaarDirichletMeasure(n=3), 2, 20_000, seed=21, workers=2)
    parent_pool = _children()
    assert len(parent_pool) == 1
    recv, send = os.pipe()
    child = os.fork()
    if child == 0:
        status = 1
        try:
            own = estimate_mean(HaarDirichletMeasure(n=3), 2, 20_000, seed=21, workers=2)
            os.write(send, f"{_estimate_digest(own)} {len(_children())}".encode())
            status = 0
        finally:
            os._exit(status)
    os.close(send)
    try:
        # the answer is a few bytes, so the child never blocks on the pipe
        assert _wait(child) == 0
        assert os.read(recv, 256).decode() == f"{_estimate_digest(est)} 1"
    finally:
        os.close(recv)
    # the child left the parent's workers alone, and they still serve the parent
    assert _children() == parent_pool
    again = estimate_mean(HaarDirichletMeasure(n=3), 2, 20_000, seed=21, workers=2)
    assert _estimate_digest(again) == _estimate_digest(est)
    assert _children() == parent_pool


def test_end_pool_reaps_the_workers_beside_an_idle_forked_process(fresh_pool):
    estimate_mean(HaarDirichletMeasure(n=2), 2, 20_000, seed=17, workers=2)
    workers = _children()
    assert len(workers) == 1
    hold, release = os.pipe()
    bystander = os.fork()
    if bystander == 0:
        status = 1
        try:  # idle until released; it must have dropped the owner's workers
            os.close(release)
            os.read(hold, 1)
            status = 0 if montecarlo._pools == {} else 2
        finally:
            os._exit(status)
    os.close(hold)
    try:
        montecarlo._end_pool(os.getpid())
        assert _children() == [bystander]
        assert not _running(workers[0])
    finally:
        os.close(release)
        assert _wait(bystander) == 0


#: Run by a fresh interpreter: a pooled estimate, then an idle process forked
#: from the owner, which outlives it.  Prints whether multiprocessing was
#: imported, the workers' pids and the bystander's pid, then leaves as argv[1]
#: says.  An exit hook registered before rhomean's runs after it, and prints
#: the children the owner has left at exit.
_OWNER_SCRIPT = """
import atexit, glob, os, sys, time
def children():
    return [p for f in glob.glob("/proc/self/task/*/children") for p in open(f).read().split()]
atexit.register(lambda: print("left", *children(), flush=True))
from rhomean import HaarDirichletMeasure, estimate_mean
estimate_mean(HaarDirichletMeasure(2), 2, 20_000, workers=3)
workers = children()
bystander = os.fork()
if bystander == 0:
    time.sleep(60)
    os._exit(0)
print("multiprocessing" in sys.modules, *workers, bystander, flush=True)
if sys.argv[1] == "os._exit":
    os._exit(0)
"""


@pytest.mark.parametrize("leave", ["exit", "os._exit"])
def test_workers_do_not_outlive_their_owner(leave, tmp_path):
    # the child imports the same rhomean as this process
    src = str(Path(rhomean.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    # files, not pipes: the workers hold the owner's stdout, so reading a pipe
    # to its end would wait for them to exit
    out, err = tmp_path / "out", tmp_path / "err"
    with open(out, "w") as stdout, open(err, "w") as stderr:
        code = subprocess.run(
            [sys.executable, "-c", _OWNER_SCRIPT, leave],
            stdout=stdout, stderr=stderr, env=env, timeout=120,
        ).returncode
    imported, *pids = out.read_text().splitlines()[0].split()
    *workers, bystander = map(int, pids)
    try:
        assert code == 0, err.read_text()
        assert imported == "False" and len(workers) == 2
        if leave == "exit":  # the atexit hook reaped them before the owner exited
            assert out.read_text().splitlines()[1:] == [f"left {bystander}"]
        else:  # no hook ran: each sees EOF on its jobs pipe and leaves
            deadline = time.monotonic() + 20
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not any(map(_running, workers))
    finally:
        os.kill(bystander, signal.SIGKILL)


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


def test_workers_env_default_and_worker_count_validation(monkeypatch):
    from rhomean.cli import build_parser

    # the CLI is the one reader of RHOMEAN_WORKERS; the library takes a count
    monkeypatch.setenv("RHOMEAN_WORKERS", "3")
    argv = ["mean", "--measure", '{"type":"zhsl","n":2}', "--m", "2", "--samples", "100"]
    assert build_parser().parse_args(argv).workers == 3
    # unset, one worker per CPU the process may run on, wherever it can be read
    monkeypatch.delenv("RHOMEAN_WORKERS")
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
    assert build_parser().parse_args(argv).workers == 3
    monkeypatch.setenv("RHOMEAN_WORKERS", "2")
    assert build_parser().parse_args(argv).workers == 2
    monkeypatch.delenv("RHOMEAN_WORKERS")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert build_parser().parse_args(argv).workers == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert build_parser().parse_args(argv).workers == 1
    with pytest.raises(ValueError):
        estimate_mean(HaarDirichletMeasure(n=2), 2, 1_000, workers=0)

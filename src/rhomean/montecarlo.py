"""Streaming, parallel, reproducible Monte Carlo estimation of E[rho^(x m)].

Work is split into fixed-size chunks; chunk i draws from the Philox stream
keyed by (seed, i), so the sample set is a pure function of (seed, n_samples)
and cannot depend on the number of workers or on scheduling.

An entry of rho^(x m) is the product of the m entries rho[i_k, j_k], so it
depends only on the multiset of its m (row, col) pairs: of the D^(2m) entries
only C(D^2 + m - 1, m) are distinct.  This holds for every tensor power,
whatever the measure, so the estimator still assumes nothing about the law.
Each chunk forms just those distinct monomials from the entry rows of its
draws, level by level in colex order: the k-factor monomials whose largest
factor is entry b are the first rows of the (k - 1)-factor level times entry
row b, one broadcast multiply of contiguous rows with no gather.  The last
level goes straight into a buffer of about ``BLOCK_BYTES`` that stays in cache,
and is reduced there, deviations squared in place, to (count, mean,
sum-of-squared-deviations) with numpy's pairwise summation.  Each monomial's
samples lie contiguously in one row of its block and numpy sums that row by
itself, so the block width changes no bit, and each block's results go to
their own contiguous slice of the chunk's colex-ordered vectors.  Chunks are
then merged in a binary tree fixed by their number, which keeps repeated runs
bitwise identical.  Each subtree is merged as it completes, so at most one
finished subtree per level waits.  The merged vectors are scattered to the
D^m x D^m matrix once at the end through ``linalg.monomial_index``, the map
the exact oracle labels its matrix by.

With ``workers > 1`` the calling process is one of the workers.  The merge
tree is cut into whole subtrees, in runs of chunks as even as whole chunks
allow, by the chunk and process counts alone.  The caller folds the tail run,
the longest, while a ``fork`` pool of the other ``workers - 1`` processes
folds the rest, one subtree per task, and returns one accumulator per
subtree.  The caller then merges them above the cut in the same tree order,
so no bit depends on the worker count.  The pool is one per process and per
worker count: it is forked by the first call that has more than one chunk,
reused by later calls with the same ``workers``, whose processes idle when a
call has fewer chunks, replaced when a call asks for another ``workers``, ended
when a fold fails, and terminated at interpreter exit by a multiprocessing
finalizer.  A chunk reads no table: its group sizes and offsets are binomials.
Calls that share the pool are meant to come from one thread at a time.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import TYPE_CHECKING

import numpy as np

from .linalg import Scenario, as_integer, check_dim_cap, monomial_index
from .measures import (
    MeasureSpec,
    RandomStream,
    sample_density_batch,
    scenario_for,
)

if TYPE_CHECKING:
    from multiprocessing.pool import Pool
    from multiprocessing.util import Finalize

#: Target number of D^m x D^m entries per chunk batch.  The chunk boundaries
#: fix the Philox draws, so they are deliberately still sized on the D^(2m)
#: dense entries rather than on the far fewer distinct monomials a chunk now
#: computes: re-sizing them would re-draw every seeded estimate.
_CHUNK_ENTRY_BUDGET = 2_000_000

#: Bytes of complex monomial samples a chunk reduces at a time.  A block is
#: multiplied, centred and squared in place in one buffer of this size, with
#: no temporary of its own, so it stays inside a 2 MiB L2 cache beside the
#: rows it reads.  256-512 KiB timed best for the earlier gathering kernel in
#: a sweep from 64 KiB to 4 MiB, and 384 KiB is still among the fastest for
#: the level build.  The width of a block moves no bit of the result.
BLOCK_BYTES = 384 * 1024

#: Fewest samples ``estimate_mean`` accepts.
MIN_SAMPLES = 100


def chunk_size_for(dim: int) -> int:
    return max(32, min(8192, _CHUNK_ENTRY_BUDGET // (dim * dim)))


@dataclass(frozen=True)
class MeanEstimate:
    """Monte Carlo mean of rho^(x m) with per-entry standard errors.

    ``stderr`` is derived, not stored: per entry, the larger of the standard
    errors of the real and imaginary parts -- the conservative choice for
    z-score gates.
    """

    mean: np.ndarray
    n_samples: int
    stderr_real: np.ndarray
    stderr_imag: np.ndarray
    measure: MeasureSpec
    scenario: Scenario
    seed: int
    workers: int

    @cached_property
    def stderr(self) -> np.ndarray:
        return np.maximum(self.stderr_real, self.stderr_imag)

    @property
    def stderr_max(self) -> float:
        return float(self.stderr.max())


def _chunk_stats(args) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(count, mean, M2_re, M2_im) of one chunk over the distinct monomials.

    The monomials are built level by level in colex order: group b of level k,
    the k-multisets whose largest flat position is b, is rows
    comb(b + k - 1, k) to comb(b + k, k) of the level, one broadcast multiply
    of the first comb(b + k - 1, k - 1) rows of level k - 1 by entry row b.  So
    every monomial multiplies its sorted factors left to right.  Levels
    2..m - 1 are stored; level m goes straight into a buffer of
    ``BLOCK_BYTES // (16 * count)`` rows, at least one, and is reduced there
    into the block's own slice of the outputs.  This is bitwise neutral: the
    buffer holds one C-contiguous row of samples per monomial, and numpy
    reduces each row by itself with pairwise summation, so a monomial's mean
    and M2 do not depend on which block it falls in or how wide that block is.
    """
    spec, m, seed, chunk_index, count = args
    gen = RandomStream(seed, chunk_index).generator()
    # the sampler's own entry-major rows: a monomial's factors are contiguous rows
    entries = sample_density_batch(spec, count, gen).transpose(1, 2, 0).reshape(-1, count)
    d2 = len(entries)
    # entry row b is multiplied in as the (1, count) slice entries[b : b + 1]:
    # broadcast as a (count,) row, a lone (1, 1) block is multiplied without
    # FMA, so at count 1 a one-row block would round unlike a wider one
    level = entries
    for k in range(2, m):
        below, level = level, np.empty((comb(d2 + k - 1, k), count), dtype=complex)
        for b in range(d2):
            out = level[comb(b + k - 1, k) : comb(b + k, k)]
            np.multiply(below[: len(out)], entries[b : b + 1], out=out)
    if m == 1:
        groups = [(entries, None)]
    else:
        groups = [(level[: comb(b + m - 1, m - 1)], entries[b : b + 1]) for b in range(d2)]
    width = max(1, BLOCK_BYTES // (16 * count))
    buffer = np.empty((min(width, len(level)), count), dtype=complex)
    size = comb(d2 + m - 1, m)
    mean = np.empty(size, dtype=complex)
    m2_re, m2_im = np.empty(size), np.empty(size)
    done = 0
    for factors, last in groups:
        for start in range(0, len(factors), width):
            part = factors[start : start + width]
            block = buffer[: len(part)]
            if last is None:
                block[...] = part
            else:
                np.multiply(part, last, out=block)
            at = slice(done, done + len(block))
            done += len(block)
            mu = block.mean(axis=1, out=mean[at])
            # a complex subtraction is the two real ones, so M2 keeps its bits
            block -= mu[:, None]
            # squared in place: a strided row sums pairwise in the same order
            squares = block.view(float)
            np.square(squares, out=squares)
            block.real.sum(axis=1, out=m2_re[at])
            block.imag.sum(axis=1, out=m2_im[at])
    return count, mean, m2_re, m2_im


def _merge(a, b):
    """Chan/Welford merge of (count, mean, M2_re, M2_im) accumulators."""
    na, mean_a, re_a, im_a = a
    nb, mean_b, re_b, im_b = b
    n = na + nb
    delta = mean_b - mean_a
    mean = mean_a + delta * (nb / n)
    w = na * nb / n
    m2_re = re_a + re_b + np.square(delta.real) * w
    m2_im = im_a + im_b + np.square(delta.imag) * w
    return n, mean, m2_re, m2_im


def _half(count: int) -> int:
    """Chunks in the left subtree of a node over ``count``: the largest power of two below it."""
    return 1 << ((count - 1).bit_length() - 1)


def _tree_reduce(stats, count: int, start: int = 0, drawn=frozenset()):
    """Merge the next accumulators of the iterator ``stats`` over ``count`` chunks in order.

    The first 2^k chunks, 2^k the largest power of two below ``count``, are
    merged with the rest, each side by the same rule: the tree of merging
    neighbours pairwise level by level, fixed by ``count`` alone.  Each side
    is folded as it is drawn, so at most one finished subtree per level waits.
    ``start`` numbers the first of the ``count`` chunks.  A subtree listed in
    ``drawn`` as (first chunk, chunks) is one accumulator of ``stats``, folded
    elsewhere by the same rule.
    """
    if count == 1 or (start, count) in drawn:
        return next(stats)
    half = _half(count)
    left = _tree_reduce(stats, half, start, drawn)
    return _merge(left, _tree_reduce(stats, count - half, start + half, drawn))


def _subtrees(lo: int, hi: int, start: int, count: int) -> list[tuple[int, int]]:
    """The largest subtrees of node (start, count) within chunks lo..hi - 1, in order."""
    if hi <= start or start + count <= lo:
        return []
    if lo <= start and start + count <= hi:
        return [(start, count)]
    half = _half(count)
    return _subtrees(lo, hi, start, half) + _subtrees(lo, hi, start + half, count - half)


def _cut(count: int, processes: int) -> list[list[tuple[int, int]]]:
    """The merge tree over ``count`` chunks cut into whole subtrees, one share per process.

    A share is a contiguous run of chunks, listed as its largest subtrees in
    order.  The runs' lengths differ by at most one, and the last run, the
    calling process's, is the longest, since it ends with the partial chunk
    when there is one.
    """
    bounds = [count * p // processes for p in range(processes + 1)]
    return [_subtrees(lo, hi, 0, count) for lo, hi in zip(bounds, bounds[1:])]


def _fold(jobs):
    """The accumulator of one subtree of the merge tree from its chunks' jobs."""
    return _tree_reduce(map(_chunk_stats, jobs), len(jobs))


#: This process's worker pool as (workers, pool, end), keyed by the pid that
#: forked it.  ``end()`` terminates the pool once; as a multiprocessing
#: finalizer it also runs at interpreter exit, ahead of the pool's own, so
#: teardown finds no running pool.  A process forked from an owner inherits the
#: owner's entry and leaves it alone: its threads, pipes and workers are the
#: owner's, and even its last reference going would signal the owner's pool.
_pools: dict[int, tuple[int, Pool, Finalize]] = {}


def _end_pool(pid: int) -> None:
    _pools.pop(pid)[2]()


def _pooled_fold(jobs: list, workers: int):
    """``_fold`` of ``jobs`` by this process and its pool of ``workers - 1``.

    The merge tree is cut for ``min(workers, len(jobs))`` processes.  The pool
    folds each subtree of every share of ``_cut`` but the last as one task,
    while this process folds the last share's subtrees itself.  The subtree
    accumulators are then merged above the cut in tree order.
    """
    *shares, own = _cut(len(jobs), min(workers, len(jobs)))
    theirs = [node for share in shares for node in share]
    pid = os.getpid()
    if pid in _pools and _pools[pid][0] != workers:
        _end_pool(pid)
    if pid not in _pools:
        # imported here, as the pool's own modules are, so that a process that
        # never samples in parallel does not load them
        from multiprocessing.util import Finalize

        pool = multiprocessing.get_context("fork").Pool(workers - 1)
        _pools[pid] = (workers, pool, Finalize(pool, pool.terminate, exitpriority=16))
    try:
        pending = _pools[pid][1].map_async(_fold, [jobs[s : s + c] for s, c in theirs], chunksize=1)
        mine = [_fold(jobs[s : s + c]) for s, c in own]  # while the pool folds the rest
        stats = pending.get() + mine
    except BaseException:
        # a failed or interrupted fold may leave tasks behind: start afresh
        _end_pool(pid)
        raise
    return _tree_reduce(iter(stats), len(jobs), 0, {*theirs, *own})


def estimate_mean(
    spec: MeasureSpec,
    m: int,
    n_samples: int,
    seed: int = 0,
    workers: int = 1,
) -> MeanEstimate:
    """Unbiased sample mean of rho^(x m) with deterministic chunked reduction.

    ``workers`` counts the processes that fold chunks, the calling process
    among them: it forks a pool of ``workers - 1``, of which a call with fewer
    chunks uses fewer, and ``workers=1`` folds every chunk here.  The result is
    bitwise the same for every worker count.
    """
    names = ("m", "n_samples", "workers", "seed")
    m, n_samples, workers, seed = map(as_integer, names, (m, n_samples, workers, seed))
    scenario = scenario_for(spec, m)
    check_dim_cap(scenario.dim)
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    size = chunk_size_for(scenario.dim)
    counts = [size] * (n_samples // size)
    if n_samples % size:
        counts.append(n_samples % size)
    jobs = [(spec, m, seed, i, c) for i, c in enumerate(counts)]
    if min(workers, len(jobs)) == 1:
        n, mean, m2_re, m2_im = _fold(jobs)
    else:
        n, mean, m2_re, m2_im = _pooled_fold(jobs, workers)
    denom = n * (n - 1)
    # elementwise, so the same bits as on the full matrix, at one value per monomial
    stderr_re, stderr_im = np.sqrt(m2_re / denom), np.sqrt(m2_im / denom)
    index = monomial_index(spec.dim, m)
    shape = (scenario.dim, scenario.dim)
    mean, stderr_re, stderr_im = (v[index].reshape(shape) for v in (mean, stderr_re, stderr_im))
    return MeanEstimate(
        mean=mean,
        n_samples=n,
        stderr_real=stderr_re,
        stderr_imag=stderr_im,
        measure=spec,
        scenario=scenario,
        seed=seed,
        workers=workers,
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Entrywise comparison of an estimate against a reference matrix."""

    max_abs_delta: float
    max_z: float
    n_entries_over_5: int
    zero_pattern_matches: int
    zero_pattern_total: int

    @property
    def zero_pattern_agrees(self) -> bool:
        return self.zero_pattern_matches == self.zero_pattern_total


def _z_scores(delta_part: np.ndarray, stderr_part: np.ndarray, floor: float) -> np.ndarray:
    """|delta| / stderr; inf for a nonzero delta with zero stderr.

    A part whose delta and stderr are both at or below ``floor`` is rounding
    noise, e.g. the imaginary part of an exactly real entry, and scores 0.
    """
    z = np.zeros_like(delta_part)
    hit = stderr_part > 0
    z[hit] = np.abs(delta_part[hit]) / stderr_part[hit]
    z[~hit & (np.abs(delta_part) > 0)] = np.inf
    z[(np.abs(delta_part) <= floor) & (stderr_part <= floor)] = 0.0
    return z


def convergence_report(est: MeanEstimate, reference: np.ndarray) -> ConvergenceReport:
    """Max deviation, max z-score and zero-pattern agreement versus a reference.

    An estimate entry counts as "zero" when its magnitude is at most 5x its
    standard error; the pattern comparison scores those calls against exact
    zeros of the reference.  Real and imaginary parts whose delta and stderr
    are both within a rounding floor of 64 eps max|mean| score z = 0.
    """
    ref = np.asarray(reference)
    if ref.dtype == object:
        ref = ref.astype(np.float64)
    ref = ref.astype(complex)
    if ref.shape != est.mean.shape:
        raise ValueError("reference shape differs from estimate")
    delta = est.mean - ref
    floor = 64 * np.finfo(float).eps * float(np.abs(est.mean).max())
    z = np.maximum(
        _z_scores(delta.real, est.stderr_real, floor),
        _z_scores(delta.imag, est.stderr_imag, floor),
    )
    est_zero = np.abs(est.mean) <= 5 * est.stderr
    ref_zero = ref == 0
    return ConvergenceReport(
        max_abs_delta=float(np.abs(delta).max()),
        max_z=float(z.max()),
        n_entries_over_5=int((z > 5).sum()),
        zero_pattern_matches=int((est_zero == ref_zero).sum()),
        zero_pattern_total=int(ref.size),
    )

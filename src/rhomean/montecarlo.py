"""Streaming, parallel, reproducible Monte Carlo estimation of E[rho^(x m)].

Work is split into fixed-size chunks; chunk i draws from the Philox stream
keyed by (seed, i), so the sample set is a pure function of (seed, n_samples)
and cannot depend on the number of workers or on scheduling.

An entry of rho^(x m) is the product of the m entries rho[i_k, j_k], so it
depends only on the multiset of its m (row, col) pairs: of the D^(2m) entries
only C(D^2 + m - 1, m) are distinct.  This holds for every tensor power,
whatever the measure, so the estimator still assumes nothing about the law.
Each chunk forms just those distinct monomials from the flattened draws and
reduces them to (count, mean, sum-of-squared-deviations) with numpy's pairwise
summation, a block of monomials of about ``BLOCK_BYTES`` at a time, so that a
block and its temporaries stay in cache.  Each monomial's samples lie
contiguously in one row of its block and numpy sums that row by itself, so the
block width changes no bit.  Chunks are then merged in a deterministic binary
tree, which keeps repeated runs bitwise identical, and the merged vectors are
scattered to the D^m x D^m matrix once at the end.

With ``workers > 1`` the chunks run in one ``fork`` pool per process.  It is
forked by the first call that has more than one chunk, reused by later calls,
replaced when a call needs another number of processes, and terminated at
interpreter exit by a multiprocessing finalizer.  A chunk reads no table
the parent built after the fork: it only needs ``monomial_pairs``, which each
worker caches for itself.  Calls that share the pool are meant to come from
one thread at a time.
"""

from __future__ import annotations

import multiprocessing
import operator
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations_with_replacement
from typing import TYPE_CHECKING

import numpy as np

from .linalg import Scenario, check_dim_cap
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

#: Bytes of complex monomial samples a chunk reduces at a time.  A block, its
#: gathered factor and its squared deviations then take about 2.5x this, which
#: stays inside a 2 MiB L2 cache; 256-512 KiB timed best in a sweep from
#: 64 KiB to 4 MiB.  The width of a block moves no bit of the result.
BLOCK_BYTES = 384 * 1024

#: Fewest samples ``estimate_mean`` accepts.
MIN_SAMPLES = 100


def chunk_size_for(dim: int) -> int:
    return max(32, min(8192, _CHUNK_ENTRY_BUDGET // (dim * dim)))


@lru_cache(maxsize=None)
def monomial_pairs(dim: int, m: int) -> np.ndarray:
    """The distinct monomials of rho^(x m) for a dim x dim rho, one per row.

    Row k of the read-only (M, m) int64 array holds the sorted flat positions
    i * dim + j of the m entries of rho whose product is monomial k; the rows
    are the m-multisets of range(dim^2) in lexicographic order.
    """
    rows = combinations_with_replacement(range(dim * dim), m)
    pairs = np.fromiter(chain.from_iterable(rows), dtype=np.int64).reshape(-1, m)
    pairs.flags.writeable = False
    return pairs


# an index holds D^2 intp (134 MB at D = 4096), so only the last two sizes stay
@lru_cache(maxsize=2)
def monomial_table(dim: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct entries of rho^(x m) for a dim x dim rho, as products of m entries.

    Returns ``(monomial_pairs(dim, m), index)``: ``index[I * dim**m + J]`` is
    the monomial of entry (I, J) of the row-major Kronecker power.  An entry's
    sorted pair codes, read in base dim^2, give a key that fits int64 because
    dim^(2m) <= DIM_CAP^2; the rows of ``monomial_pairs`` are lexicographic, so
    their keys are sorted and each entry's monomial is found by bisection.  The
    index is built a block of rows I at a time, with about ``BLOCK_BYTES`` of
    codes per block.
    """
    pairs = monomial_pairs(dim, m)
    weights = (dim * dim) ** np.arange(m - 1, -1, -1, dtype=np.int64)
    keys = pairs @ weights
    size = dim**m
    # the m base-dim digits of every row (and column) number, most significant first
    digits = np.indices((dim,) * m, dtype=np.int32).reshape(m, -1).T
    index = np.empty(size * size, dtype=np.intp)
    rows = max(1, BLOCK_BYTES // (4 * m * size))
    for start in range(0, size, rows):
        codes = np.sort(digits[start : start + rows, None] * dim + digits, axis=2)
        index[start * size : (start + rows) * size] = np.searchsorted(keys, codes @ weights).ravel()
    return pairs, index


@dataclass(frozen=True)
class MeanEstimate:
    """Monte Carlo mean of rho^(x m) with per-entry standard errors.

    ``stderr`` holds, per entry, the larger of the standard errors of the
    real and imaginary parts -- the conservative choice for z-score gates.
    """

    mean: np.ndarray
    n_samples: int
    stderr: np.ndarray
    stderr_real: np.ndarray
    stderr_imag: np.ndarray
    measure: MeasureSpec
    scenario: Scenario
    seed: int
    workers: int

    @property
    def stderr_max(self) -> float:
        return float(self.stderr.max())


def _chunk_stats(args) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(count, mean, M2_re, M2_im) of one chunk over the distinct monomials.

    The monomials are formed and reduced in blocks of ``BLOCK_BYTES // (16 *
    count)`` of them, at least one.  This is bitwise neutral: a block holds one
    C-contiguous row of samples per monomial, and numpy reduces each row by
    itself with pairwise summation, so a monomial's mean and M2 do not depend
    on which block it falls in or how wide that block is.
    """
    spec, m, seed, chunk_index, count = args
    gen = RandomStream(seed, chunk_index).generator()
    # the sampler's own entry-major rows: a monomial's factors are contiguous rows
    entries = sample_density_batch(spec, count, gen).transpose(1, 2, 0).reshape(-1, count)
    pairs = monomial_pairs(spec.dim, m)
    mean = np.empty(len(pairs), dtype=complex)
    m2_re, m2_im = np.empty(len(pairs)), np.empty(len(pairs))
    width = max(1, BLOCK_BYTES // (16 * count))
    for start in range(0, len(pairs), width):
        cols = slice(start, start + width)
        block = pairs[cols].T
        power = entries[block[0]]
        for k in range(1, m):
            power *= entries[block[k]]
        mean[cols] = power.mean(axis=1)
        # a complex subtraction is the two real ones, so M2 keeps its bits
        power -= mean[cols, None]
        m2_re[cols] = np.square(power.real).sum(axis=1)
        m2_im[cols] = np.square(power.imag).sum(axis=1)
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


def _tree_reduce(items):
    """Binary-tree fold in index order; the shape is fixed by len(items) alone."""
    while len(items) > 1:
        items = [
            _merge(items[i], items[i + 1]) if i + 1 < len(items) else items[i]
            for i in range(0, len(items), 2)
        ]
    return items[0]


#: This process's worker pool as (processes, pool, end), keyed by the pid that
#: forked it.  ``end()`` terminates the pool once; as a multiprocessing
#: finalizer it also runs at interpreter exit, ahead of the pool's own, so
#: teardown finds no running pool.  A process forked from an owner inherits the
#: owner's entry and leaves it alone: its threads, pipes and workers are the
#: owner's, and even its last reference going would signal the owner's pool.
_pools: dict[int, tuple[int, Pool, Finalize]] = {}


def _end_pool(pid: int) -> None:
    _pools.pop(pid)[2]()


def _pool_map(jobs: list, processes: int) -> list:
    """``_chunk_stats`` over ``jobs`` in this process's pool of ``processes``."""
    pid = os.getpid()
    if pid in _pools and _pools[pid][0] != processes:
        _end_pool(pid)
    if pid not in _pools:
        # imported here, as the pool's own modules are, so that a process that
        # never samples in parallel does not load them
        from multiprocessing.util import Finalize

        pool = multiprocessing.get_context("fork").Pool(processes)
        _pools[pid] = (processes, pool, Finalize(pool, pool.terminate, exitpriority=16))
    try:
        return _pools[pid][1].map(_chunk_stats, jobs, chunksize=1)
    except BaseException:
        # a failed or interrupted map may leave tasks behind: start afresh
        _end_pool(pid)
        raise


def _integer(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def estimate_mean(
    spec: MeasureSpec,
    m: int,
    n_samples: int,
    seed: int = 0,
    workers: int = 1,
) -> MeanEstimate:
    """Unbiased sample mean of rho^(x m) with deterministic chunked reduction."""
    names = ("m", "n_samples", "workers", "seed")
    m, n_samples, workers, seed = map(_integer, names, (m, n_samples, workers, seed))
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
    _, index = monomial_table(spec.dim, m)

    processes = min(workers, len(jobs))
    if processes == 1:
        stats = [_chunk_stats(j) for j in jobs]
    else:
        stats = _pool_map(jobs, processes)

    n, mean, m2_re, m2_im = _tree_reduce(stats)
    denom = n * (n - 1)
    # elementwise, so the same bits as on the full matrix, at one value per monomial
    stderr_re, stderr_im = np.sqrt(m2_re / denom), np.sqrt(m2_im / denom)
    shape = (scenario.dim, scenario.dim)
    mean, stderr_re, stderr_im = (v[index].reshape(shape) for v in (mean, stderr_re, stderr_im))
    return MeanEstimate(
        mean=mean,
        n_samples=n,
        stderr=np.maximum(stderr_re, stderr_im),
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

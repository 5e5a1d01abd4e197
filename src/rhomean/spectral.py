"""Degenerate-eigenspace analysis of matrices with rational + 1/pi entries.

The published mean matrices for three-level systems carry entries of the form
r + s/pi with r, s rational.  ``SymbolicMatrix`` stores both parts exactly;
substituting pi -> v gives the one-parameter family of matrices sharing one
set of eigenvectors, and the v -> infinity limit (equivalently: zeroing every
s part) is the selection rule that collapses the spectrum onto the irreducible
multiplet multiplicities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class SymbolicEigenvalue:
    """Eigenvalue r + coef * sqrt(radicand) / pi with exact rational parts."""

    r: Fraction
    coef: Fraction = Fraction(0)
    radicand: int = 1

    def value(self, v: float = math.pi) -> float:
        return float(self.r) + float(self.coef) * math.sqrt(self.radicand) / v


@dataclass(frozen=True)
class SymbolicMatrix:
    """Square matrix of exact r + s/pi entries (object arrays of Fraction)."""

    rpart: np.ndarray
    spart: np.ndarray

    def __post_init__(self):
        if self.rpart.shape != self.spart.shape or self.rpart.ndim != 2:
            raise ValueError("rational and 1/pi parts must be equal square shapes")
        if self.rpart.shape[0] != self.rpart.shape[1]:
            raise ValueError("symbolic matrices are square")

    @classmethod
    def from_rational(cls, mat) -> "SymbolicMatrix":
        """The matrix with rational part ``mat`` (an array or nested rows) and no 1/pi part."""
        rp = np.array(
            [[Fraction(x) for x in row] for row in np.asarray(mat, dtype=object)],
            dtype=object,
        )
        return cls(rp, np.full(rp.shape, Fraction(0), dtype=object))

    @property
    def dim(self) -> int:
        return self.rpart.shape[0]

    def is_symmetric(self) -> bool:
        return bool(
            np.all(self.rpart == self.rpart.T) and np.all(self.spart == self.spart.T)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymbolicMatrix):
            return NotImplemented
        return bool(
            self.rpart.shape == other.rpart.shape
            and np.all(self.rpart == other.rpart)
            and np.all(self.spart == other.spart)
        )


def substitute_v(sym: SymbolicMatrix, v: float) -> np.ndarray:
    """Numeric matrix with every entry evaluated at r + s/v; v = pi recovers the fixture."""
    if v == 0:
        raise ValueError("substitution parameter v must be nonzero")
    return sym.rpart.astype(np.float64) + sym.spart.astype(np.float64) / v


def selection_rule(sym: SymbolicMatrix) -> np.ndarray:
    """Annihilate every rational/pi part, returning the exact rational matrix.

    This is the v -> infinity limit of ``substitute_v`` carried out exactly.
    """
    return sym.rpart.copy()


@dataclass(frozen=True)
class Cluster:
    value: float
    multiplicity: int
    basis: np.ndarray  # (dim, multiplicity), orthonormal columns


@dataclass(frozen=True)
class SpectralDecomposition:
    clusters: tuple[Cluster, ...]
    cluster_tol: float
    stable: bool = True

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(c.multiplicity for c in self.clusters)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(c.value for c in self.clusters)

    @property
    def dim(self) -> int:
        return sum(self.multiplicities)


def cluster_spectrum(
    eigenvalues: np.ndarray, eigenvectors: np.ndarray, cluster_tol: float = 1e-9
) -> SpectralDecomposition:
    """Merge eigenvalues whose adjacent gaps are below ``cluster_tol``.

    Cluster values are means, bases are re-orthonormalized per cluster, and a
    decomposition is flagged unstable when any adjacent gap lands in the
    ambiguous band (cluster_tol, 3 * cluster_tol).
    """
    order = np.argsort(eigenvalues)
    vals = np.asarray(eigenvalues, dtype=float)[order]
    vecs = np.asarray(eigenvectors)[:, order]
    gaps = np.diff(vals)
    stable = not np.any((gaps > cluster_tol) & (gaps < 3 * cluster_tol))
    clusters = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > cluster_tol:
            block = vecs[:, start:i]
            q, _ = np.linalg.qr(block)
            clusters.append(
                Cluster(value=float(vals[start:i].mean()), multiplicity=i - start, basis=q)
            )
            start = i
    return SpectralDecomposition(
        clusters=tuple(clusters), cluster_tol=cluster_tol, stable=stable
    )


def subspace_distance(basis_a: np.ndarray, basis_b: np.ndarray) -> float:
    """Operator-norm distance between the orthogonal projectors onto two spans.

    0 iff the subspaces coincide; reaches 1 as soon as one subspace contains a
    direction orthogonal to the other.
    """
    a = np.asarray(basis_a)
    b = np.asarray(basis_b)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.shape[0] != b.shape[0]:
        raise ValueError("bases live in different ambient dimensions")
    pa = a @ a.conj().T
    pb = b @ b.conj().T
    return float(np.linalg.norm(pa - pb, 2))


def eigenvector_check(
    matrix: np.ndarray, vector: np.ndarray, eigenvalue: float, tol: float | None = None
) -> float:
    """Residual ||M x - lambda x||_2; raises if a tolerance is given and exceeded."""
    mat = np.asarray(matrix)
    if mat.dtype == object:
        mat = mat.astype(np.float64)
    x = np.asarray(vector, dtype=complex)
    if mat.shape[1] != x.shape[0]:
        raise ValueError("vector length does not match matrix dimension")
    residual = float(np.linalg.norm(mat @ x - eigenvalue * x))
    if tol is not None and residual > tol:
        raise ValueError(f"residual {residual:.3e} exceeds tolerance {tol:.1e}")
    return residual

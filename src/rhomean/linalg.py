"""Dense tensor-space linear algebra for density matrices.

Matrices are plain numpy arrays (complex128 for numeric work, object arrays
of Fraction for exact work).  The Kronecker index convention is row-major
(``tensor_product(a, b)`` maps row indices to ``i_a * rows_b + i_b``), which
fixes every fixture's basis and ``monomial_index``, the one entry-to-monomial
map through which both estimators of E[rho^(x m)] fill their matrices.

An invariant mean commutes with W^(x m) for every diagonal unitary W, so its
entry (R, C) is exactly 0 unless the words R and C hold the same letters: it
is block diagonal over the SU(N) weight spaces, one per content of a word.
``hermitian_eig`` finds such blocks from the zero pattern alone, whatever the
basis order, and diagonalizes them one at a time.  Splitting there is exact,
not a tolerance: a row with no chain of nonzero entries to another spans, with
its own component, a subspace the matrix maps into itself.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import comb, prod

import numpy as np

#: Largest total dimension any tensor-space operation will materialize.
DIM_CAP = 4096

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10


def as_integer(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Scenario:
    """An ordered list of subsystem dimensions raised to a tensor power."""

    factors: tuple[int, ...]
    power: int = 1

    def __post_init__(self):
        object.__setattr__(self, "power", as_integer("power", self.power))
        factors = tuple(as_integer(f"factors[{i}]", n) for i, n in enumerate(self.factors))
        object.__setattr__(self, "factors", factors)
        if self.power < 1:
            raise ValueError("power must be >= 1")
        if any(n < 2 for n in self.factors) or not self.factors:
            raise ValueError("every subsystem dimension must be >= 2")

    @property
    def base_dim(self) -> int:
        return prod(self.factors)

    @property
    def dim(self) -> int:
        return self.base_dim**self.power


def check_dim_cap(dim: int) -> None:
    if dim > DIM_CAP:
        raise ValueError(f"dimension {dim} exceeds cap {DIM_CAP}")


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the row-major index convention."""
    check_dim_cap(a.shape[0] * b.shape[0])
    return np.kron(a, b)


def tensor_power(rho: np.ndarray, m: int) -> np.ndarray:
    """m-fold tensor power rho^(x m)."""
    if m < 1:
        raise ValueError("tensor power requires m >= 1")
    check_dim_cap(rho.shape[0] ** m)
    out = rho
    for _ in range(m - 1):
        out = np.kron(out, rho)
    return out


def _subsystem_letters(n_subsystems: int) -> tuple[str, str]:
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    if 2 * n_subsystems > len(letters):
        raise ValueError("too many subsystems")
    return letters[:n_subsystems], letters[n_subsystems : 2 * n_subsystems]


def partial_trace(rho: np.ndarray, dims: list[int], keep: tuple[int, ...]) -> np.ndarray:
    """Trace out all subsystems not in ``keep`` (0-based indices).

    ``dims`` lists the subsystem dimensions whose product must equal the
    matrix dimension; the kept subsystems stay in their original order.
    """
    dims = list(dims)
    if prod(dims) != rho.shape[0] or rho.shape[0] != rho.shape[1]:
        raise ValueError("subsystem dimensions inconsistent with matrix shape")
    keep = tuple(sorted(set(keep)))
    if not keep or any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError("keep must be a nonempty subset of subsystem indices")
    rows, cols = _subsystem_letters(len(dims))
    in_cols = "".join(rows[k] if k not in keep else cols[k] for k in range(len(dims)))
    out = "".join(rows[k] for k in keep) + "".join(cols[k] for k in keep)
    expr = f"{rows}{in_cols}->{out}"
    kept_dim = prod(dims[k] for k in keep)
    return np.einsum(expr, rho.reshape(dims + dims)).reshape(kept_dim, kept_dim)


def reorder_subsystems(rho: np.ndarray, dims: list[int], perm: tuple[int, ...]) -> np.ndarray:
    """Conjugate by the subsystem permutation placing old subsystem perm[k] at slot k.

    Works for numeric and exact (object dtype) matrices alike, and permutes
    the integer label arrays of labelled exact matrices the same way; the
    spectrum is unchanged since this is a unitary conjugation.
    """
    dims = list(dims)
    if prod(dims) != rho.shape[0]:
        raise ValueError("subsystem dimensions inconsistent with matrix shape")
    if sorted(perm) != list(range(len(dims))):
        raise ValueError("perm must be a permutation of the subsystem indices")
    n = len(dims)
    axes = list(perm) + [p + n for p in perm]
    d = prod(dims)
    return rho.reshape(dims + dims).transpose(axes).reshape(d, d)


class _FirstSeen(dict):
    def __missing__(self, key):  # a new key's label: the number of keys seen before it
        self[key] = label = len(self)
        return label


def distinct_entries(seq) -> tuple[list, np.ndarray]:
    """Distinct values of ``seq`` in first-seen order, and each entry's index into them.

    Values are keyed by equality, so exact matrices, whose entries take few
    distinct values, can be parsed, converted or multiplied once per value
    and then gathered with ``np.array(values, dtype=object)[index]``.  Equal
    values of different types (1, 1.0, Fraction(1)) are one value, stored as
    the one seen first.  Each entry takes one dict lookup in C, and only a new
    value runs Python code.  An unhashable entry raises ``TypeError``.
    """
    index = _FirstSeen()
    labels = np.fromiter(map(index.__getitem__, seq), np.intp, len(seq))
    return list(index), labels


def monomial_index(dim: int, m: int) -> np.ndarray:
    """The monomial of each entry of the m-th Kronecker power of a dim x dim matrix.

    Entry (I, J) of rho^(x m) multiplies rho[i_k, j_k] over the slots k, so it
    depends only on the multiset of the flat positions i_k * dim + j_k, and
    ``index[I * dim**m + J]`` is that multiset's colex rank: sum_k comb(a_k + k,
    k + 1) over its sorted a_0 <= ... <= a_(m-1).  The index grows a slot per
    level, as entry (I i, J j) is (I, J) plus the position p = i * dim + j, and
    ``add[r, p]`` ranks multiset r plus p: multiset r of level k is its largest
    element b after a multiset of level k - 1, which p joins if p < b.
    """
    d2 = dim * dim
    p = np.arange(d2)
    add, index, starts = p[None, :], p, p  # level k's group b starts at comb(b + k - 1, k)
    for k in range(1, m):
        top = np.repeat(p, [comb(b + k - 1, k - 1) for b in range(d2)])
        ranks = np.arange(len(top))
        add = add[ranks - starts[top]]  # the level's one table-sized array, filled in place
        starts = np.array([comb(b + k, k + 1) for b in range(d2)])
        add += starts[top][:, None]
        np.add(starts, ranks[:, None], out=add, where=p >= top[:, None])
        index = add[index.reshape(dim**k, 1, dim**k, 1), p.reshape(1, dim, 1, dim)].ravel()
    return index


def monomial_sets(dim: int, m: int) -> np.ndarray:
    """Row r: the sorted flat positions of the monomial ``monomial_index`` ranks r.

    Least unsigned dtype.  The k-multisets whose largest element is b are the
    first comb(b + k - 1, k - 1) rows of level k - 1, then b, as in a chunk.
    """
    sets = np.arange(dim * dim, dtype=np.min_scalar_type(dim * dim - 1))[:, None]
    for k in range(2, m + 1):
        level = np.empty((comb(dim * dim + k - 1, k), k), dtype=sets.dtype)
        for b in range(dim * dim):  # group b fills rows comb(b + k - 1, k) up to comb(b + k, k)
            group = level[comb(b + k - 1, k) : comb(b + k, k)]
            group[:, :-1], group[:, -1] = sets[: len(group)], b
        sets = level
    return sets


def permutation_operator(sigma: tuple[int, ...], n: int, m: int) -> np.ndarray:
    """Matrix of the tensor-slot permutation sigma (0-based images) on (C^n)^(x m).

    Sends e_{i_1} x ... x e_{i_m} to the basis vector whose sigma(k)-th slot
    carries i_k; columns therefore hold exactly one 1.
    """
    if sorted(sigma) != list(range(m)):
        raise ValueError("sigma must be a permutation of range(m)")
    d = n**m
    check_dim_cap(d)
    op = np.zeros((d, d))
    op[np.arange(d).reshape((n,) * m).transpose(sigma).ravel(), np.arange(d)] = 1.0
    return op


def _components(linked: np.ndarray) -> np.ndarray:
    """Each node's component in the symmetric graph ``linked``, labelled by its least node.

    Labels form trees of nodes of one component, each pointing to a smaller
    node or to itself, its root.  A round hooks each tree's root to the least
    label next to any node of the tree, then jumps pointers until every node
    points to a root.  A tree with a smaller tree next to it hooks on, and one
    without has its neighbours hook onto it, so the trees of a component at
    least halve each round: O(log d) rounds of one (d, d) int32 temporary,
    where taking the least neighbouring label alone needs about one round per
    two steps along a path.  Labels all 0 mean one component.
    """
    d = len(linked)
    labels = np.arange(d, dtype=np.int32)
    while True:
        new = labels.copy()
        np.minimum.at(new, labels, np.where(linked, labels, d).min(axis=1, initial=d))
        while not np.array_equal(jumped := new[new], new):
            new = jumped
        if not new.any() or np.array_equal(new, labels):
            return new
        labels = new


def hermitian_eig(h: np.ndarray, tol: float = HERMITICITY_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix; eigenvalues ascending.

    Rejects inputs with a non-finite entry or whose Hermiticity defect exceeds
    ``tol``, and diagonalizes the Hermitian average, so roundoff in the input
    cannot leak into complex eigenvalues.  The average is split along its zero
    pattern: rows joined by no chain of nonzero entries span invariant
    subspaces, so each connected component is diagonalized on its own, those
    of one size in one batched ``eigh``, and the pairs are merged by a stable
    sort of the values.  The split is exact, with no tolerance, since the
    entries between components are exactly 0, and each eigenvector is exactly
    0 off its component.  An invariant mean commutes with every diagonal
    unitary W^(x m), so entry (R, C) vanishes unless the words R and C hold the
    same letters, and its components lie within the weight spaces: (4,4),
    D = 256, has 35, of at most 24 rows.  A matrix of one component, such as a
    Monte Carlo mean with no exact zero, takes one ``eigh`` of the whole.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"matrix of shape {h.shape} is not square")
    if h.dtype == object:
        h = h.astype(np.complex128)
    if not np.isfinite(h).all():
        raise ValueError("matrix has a non-finite entry")
    adjoint = h.conj().T  # a view of real input (conj returns it as is), else one copy
    defect = np.abs(h - adjoint).max()
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian within tol: defect {defect:.3e}")
    h = (h + adjoint) / 2
    del adjoint  # a complex copy would otherwise live through the eigh calls
    labels = _components(h != 0)
    if not labels.any():
        return np.linalg.eigh(h)
    # nodes by (component size, component, node): each size's components are consecutive rows
    size = np.bincount(labels)[labels]
    nodes = np.lexsort((labels, size))
    bounds = np.flatnonzero(np.diff(size[nodes])) + 1
    blocks = [idx.reshape(-1, size[idx[0]]) for idx in np.split(nodes, bounds)]
    pairs = [np.linalg.eigh(h[idx[:, :, None], idx[:, None, :]]) for idx in blocks]
    vals = np.concatenate([w.ravel() for w, _ in pairs])
    order = np.argsort(vals, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(len(order))
    vecs = np.zeros(h.shape, dtype=pairs[0][1].dtype)
    starts = np.cumsum([0] + [w.size for w, _ in pairs])
    for idx, (w, v), start in zip(blocks, pairs, starts):  # pair j of block b goes to its column
        vecs[idx[:, :, None], column[start : start + w.size].reshape(w.shape)[:, None, :]] = v
    return vals[order], vecs


def validate_density_matrix(
    rho: np.ndarray,
    hermiticity_tol: float = HERMITICITY_TOL,
    psd_tol: float = PSD_TOL,
) -> None:
    """Raise ValueError unless rho is Hermitian, unit-trace and PSD to tolerance."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if not np.all(np.isfinite(rho.view(float))):
        raise ValueError("density matrix has non-finite entries")
    defect = np.abs(rho - rho.conj().T).max()
    if defect > hermiticity_tol:
        raise ValueError(f"hermiticity defect {defect:.3e} exceeds {hermiticity_tol:.1e}")
    tr = abs(rho.trace() - 1)
    if tr > hermiticity_tol:
        raise ValueError(f"trace defect {tr:.3e} exceeds {hermiticity_tol:.1e}")
    smallest = np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0]
    if smallest < -psd_tol:
        raise ValueError(f"negative eigenvalue {smallest:.3e} below -{psd_tol:.1e}")


def bloch_density(r: float, theta: float, phi: float) -> np.ndarray:
    """2x2 density matrix with Bloch-ball coordinates (r, theta, phi)."""
    if not 0 <= r <= 1:
        raise ValueError("Bloch radius must lie in [0, 1]")
    z = r * np.cos(theta)
    x = r * np.sin(theta) * np.cos(phi)
    y = r * np.sin(theta) * np.sin(phi)
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])

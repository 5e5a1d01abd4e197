"""Random density matrices under the measures this package averages over.

Three sampling laws are supported:

* ``HaarDirichletMeasure`` -- eigenvectors Haar-distributed on U(N),
  eigenvalues Dirichlet on the simplex with exponents -q_i (q = 0 means the
  uniform simplex); rho = U diag(e) U+.  Serialized with JSON tag "zhsl".
  U comes from complex Ginibre columns orthonormalized by Gram-Schmidt, run
  twice, and rho is formed as the projector sum
  e_N I + sum_{j<N} (e_j - e_N) q_j q_j+, so only N - 1 columns are built.
* ``BlochBallMeasure`` -- 2x2 states with a uniformly random Bloch direction
  and radial law r^2 (1-r^2)^(-u) dr, i.e. r^2 ~ Beta(3/2, 1-u).  u = 1/2 is
  the normalized Bures volume element.
* ``ProductMeasure`` -- statistically independent factors, tensored in order.

Randomness is counter-based: ``RandomStream(seed, stream_id)`` keys a Philox
generator, so distinct stream ids give independent streams and a fixed pair
reproduces the exact same draws regardless of how work is scheduled.

Only complex (unitary-conjugation) ensembles are provided; real
orthogonal-conjugation ensembles are deliberately not implemented.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from math import inf, prod
from numbers import Real

import numpy as np

from .linalg import Scenario, validate_density_matrix

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RandomStream:
    """A reproducible, independently keyed random stream."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = [self.seed & _MASK64, self.stream_id & _MASK64]
        return np.random.Generator(np.random.Philox(key=key))


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RandomStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError("rng must be a RandomStream or numpy Generator")


@dataclass(frozen=True)
class HaarDirichletMeasure:
    """Haar eigenvectors times Dirichlet simplex eigenvalues on N x N states.

    ``q`` holds one exponent per level, or one shared by all levels (default
    0), as given: the exact oracle reads them as Fractions, the sampler as floats.
    """

    n: int
    q: tuple | Real = ()

    def __post_init__(self):
        try:
            object.__setattr__(self, "n", operator.index(self.n))
        except TypeError:
            raise ValueError(f"dimension must be an integer, got {self.n!r}") from None
        if self.n < 2:
            raise ValueError("dimension must be >= 2")
        q = (self.q,) * self.n if isinstance(self.q, Real) else tuple(self.q) or (0.0,) * self.n
        if len(q) != self.n:
            raise ValueError(f"expected {self.n} Dirichlet parameters, got {len(q)}")
        if not all(-inf < x < 1 for x in q):
            raise ValueError("Dirichlet parameters must be finite and satisfy q < 1")
        object.__setattr__(self, "q", q)

    @property
    def dim(self) -> int:
        return self.n

    def to_json(self) -> dict:
        return {"type": "zhsl", "n": self.n, "q": [float(x) for x in self.q]}


@dataclass(frozen=True)
class BlochBallMeasure:
    """Spherically symmetric one-parameter family on the Bloch ball (u < 1)."""

    u: float

    def __post_init__(self):
        if not -inf < self.u < 1:
            raise ValueError("family parameter must be finite and satisfy u < 1")

    @property
    def dim(self) -> int:
        return 2

    def to_json(self) -> dict:
        return {"type": "bloch", "u": float(self.u)}


@dataclass(frozen=True)
class ProductMeasure:
    """Independent factors tensored in the given order."""

    factors: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not self.factors:
            raise ValueError("product measure needs at least one factor")
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def dim(self) -> int:
        return prod(f.dim for f in self.factors)

    def to_json(self) -> dict:
        return {"type": "product", "factors": [f.to_json() for f in self.factors]}


MeasureSpec = HaarDirichletMeasure | BlochBallMeasure | ProductMeasure


def factor_laws(spec: MeasureSpec) -> tuple:
    """The single laws ``spec`` tensors together, in order, nested products flattened."""
    if isinstance(spec, ProductMeasure):
        return sum((factor_laws(f) for f in spec.factors), ())
    return (spec,)


def scenario_for(spec: MeasureSpec, m: int) -> Scenario:
    return Scenario(factors=tuple(f.dim for f in factor_laws(spec)), power=m)


def _field(obj: dict, name: str):
    if name not in obj:
        raise ValueError(f"measure JSON lacks the field {name!r}")
    return obj[name]


def measure_from_json(obj: dict) -> MeasureSpec:
    kind = obj.get("type")
    if kind in ("zhsl", "haar-dirichlet"):
        q = obj.get("q", 0.0)
        q = float(q) if isinstance(q, (int, float)) else tuple(float(x) for x in q)
        n = _field(obj, "n")
        if type(n) is not int:  # a JSON integer; not a float, string or boolean
            raise ValueError(f"measure field 'n' must be an integer, got {n!r}")
        return HaarDirichletMeasure(n=n, q=q)
    if kind == "bloch":
        return BlochBallMeasure(u=float(_field(obj, "u")))
    if kind == "product":
        return ProductMeasure(factors=tuple(measure_from_json(f) for f in _field(obj, "factors")))
    raise ValueError(f"unknown measure type: {kind!r}")


# ---------------------------------------------------------------------------
# samplers (batched internally; the public single-draw forms take index 0)
# ---------------------------------------------------------------------------


def _haar_columns(n: int, k: int, size: int, gen: np.random.Generator) -> np.ndarray:
    """(k, size, n): the first k columns of ``size`` Haar unitaries on C^n.

    Complex Ginibre followed by Gram-Schmidt on its columns, each projection
    pass run twice so rounding leaves the columns orthonormal.  This is the QR
    factor whose R has a positive real diagonal: unique, hence exactly Haar.
    All n columns are drawn whatever k is, so the stream advances alike.
    """
    zr = gen.standard_normal((size, n, n))
    zi = gen.standard_normal((size, n, n))
    # column j of every draw as one contiguous (size, n) block
    q = np.ascontiguousarray((zr[:, :, :k] + 1j * zi[:, :, :k]).transpose(2, 0, 1))
    for j in range(k):
        v = q[j]
        for _ in range(2 if j else 0):
            v -= np.einsum("jb,jbi->bi", np.einsum("jbi,bi->jb", q[:j].conj(), v), q[:j])
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    return q


def haar_unitaries(n: int, size: int, gen: np.random.Generator) -> np.ndarray:
    """(size, n, n) Haar-distributed unitaries.

    Complex Ginibre orthonormalized by Gram-Schmidt, run twice per column
    (see ``_haar_columns``); the same draws give the QR factor with R's
    diagonal phases pushed into Q, up to rounding.
    """
    return _haar_columns(n, n, size, gen).transpose(1, 2, 0)


def sample_haar_unitary(n: int, rng) -> np.ndarray:
    if n < 2:
        raise ValueError("dimension must be >= 2")
    return haar_unitaries(n, 1, _as_generator(rng))[0]


def simplex_points(n: int, q, size: int, gen: np.random.Generator) -> np.ndarray:
    """(size, n) Dirichlet simplex draws with exponents -q_i (alpha = 1 - q)."""
    q = np.broadcast_to(np.asarray(q, dtype=float), (n,))
    if np.any(q >= 1):
        raise ValueError("Dirichlet parameters must satisfy q < 1")
    g = gen.gamma(1.0 - q, size=(size, n))
    return g / g.sum(axis=1, keepdims=True)


def sample_simplex(n: int, q, rng) -> np.ndarray:
    return simplex_points(n, q, 1, _as_generator(rng))[0]


def _haar_dirichlet_batch(m: HaarDirichletMeasure, size: int, gen) -> np.ndarray:
    # U diag(e) U+ = e_last I + sum_{j<last} (e_j - e_last) q_j q_j+, since the
    # projectors onto the columns q_j sum to I: only N - 1 columns are needed
    q = _haar_columns(m.n, m.n - 1, size, gen)
    e = simplex_points(m.n, m.q, size, gen)
    w = e[:, :-1] - e[:, -1:]
    rho = np.einsum("jbi,jbk->bik", w.T[:, :, None] * q, q.conj())
    rho.reshape(size, m.n * m.n)[:, :: m.n + 1] += e[:, -1:]
    return rho


def _bloch_batch(m: BlochBallMeasure, size: int, gen) -> np.ndarray:
    direction = gen.standard_normal((size, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    # r^2 ~ Beta(3/2, 1-u), realized as a ratio of Gamma variates
    ga = gen.gamma(1.5, size=size)
    gb = gen.gamma(1.0 - float(m.u), size=size)
    r = np.sqrt(ga / (ga + gb))
    v = r[:, None] * direction
    rho = np.empty((size, 2, 2), dtype=complex)
    rho[:, 0, 0] = 1 + v[:, 2]
    rho[:, 1, 1] = 1 - v[:, 2]
    rho[:, 0, 1] = v[:, 0] - 1j * v[:, 1]
    rho[:, 1, 0] = v[:, 0] + 1j * v[:, 1]
    return rho / 2


def _kron_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n, p, _ = a.shape
    q = b.shape[1]
    return np.einsum("bij,bkl->bikjl", a, b).reshape(n, p * q, p * q)


def sample_density_batch(spec: MeasureSpec, size: int, gen) -> np.ndarray:
    """(size, D, D) independent draws of the random density matrix."""
    if isinstance(spec, HaarDirichletMeasure):
        return _haar_dirichlet_batch(spec, size, gen)
    if isinstance(spec, BlochBallMeasure):
        return _bloch_batch(spec, size, gen)
    if isinstance(spec, ProductMeasure):
        out = sample_density_batch(spec.factors[0], size, gen)
        for f in spec.factors[1:]:
            out = _kron_batch(out, sample_density_batch(f, size, gen))
        return out
    raise TypeError(f"unknown measure spec {spec!r}")


def sample_density(spec: MeasureSpec, rng) -> np.ndarray:
    rho = sample_density_batch(spec, 1, _as_generator(rng))[0]
    validate_density_matrix(rho)
    return rho

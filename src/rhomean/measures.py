"""Random density matrices under the measures this package averages over.

Three sampling laws are supported:

* ``HaarDirichletMeasure`` -- eigenvectors Haar-distributed on U(N),
  eigenvalues Dirichlet on the simplex with exponents -q_i (q = 0 means the
  uniform simplex); rho = U diag(e) U+.  Serialized with JSON tag "zhsl".
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

from dataclasses import dataclass, field
from math import prod

import numpy as np

from .linalg import validate_density_matrix

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
    """Haar eigenvectors times Dirichlet simplex eigenvalues on N x N states."""

    n: int
    q: tuple[float, ...] = ()

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be >= 2")
        q = tuple(self.q) if self.q else (0.0,) * self.n
        if len(q) != self.n:
            raise ValueError(f"expected {self.n} Dirichlet parameters")
        if any(x >= 1 for x in q):
            raise ValueError("Dirichlet parameters must satisfy q < 1")
        object.__setattr__(self, "q", q)

    @property
    def dim(self) -> int:
        return self.n

    def to_json(self) -> dict:
        return {"type": "zhsl", "n": self.n, "q": list(self.q)}


@dataclass(frozen=True)
class BlochBallMeasure:
    """Spherically symmetric one-parameter family on the Bloch ball (u < 1)."""

    u: float

    def __post_init__(self):
        if not self.u < 1:
            raise ValueError("family parameter must satisfy u < 1")

    @property
    def dim(self) -> int:
        return 2

    def to_json(self) -> dict:
        return {"type": "bloch", "u": self.u}


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


def _field(obj: dict, name: str):
    if name not in obj:
        raise ValueError(f"measure JSON lacks the field {name!r}")
    return obj[name]


def measure_from_json(obj: dict) -> MeasureSpec:
    kind = obj.get("type")
    if kind in ("zhsl", "haar-dirichlet"):
        n = int(_field(obj, "n"))
        q = obj.get("q", [0.0] * n)
        if isinstance(q, (int, float)):
            q = [q] * n
        return HaarDirichletMeasure(n=n, q=tuple(float(x) for x in q))
    if kind == "bloch":
        return BlochBallMeasure(u=float(_field(obj, "u")))
    if kind == "product":
        return ProductMeasure(factors=tuple(measure_from_json(f) for f in _field(obj, "factors")))
    raise ValueError(f"unknown measure type: {kind!r}")


# ---------------------------------------------------------------------------
# samplers (batched internally; the public single-draw forms take index 0)
# ---------------------------------------------------------------------------


def haar_unitaries(n: int, size: int, gen: np.random.Generator) -> np.ndarray:
    """(size, n, n) Haar-distributed unitaries.

    Complex Ginibre followed by QR with the phases of R's diagonal pushed into
    Q; this makes the factorization unique and the Q factor exactly Haar.
    """
    zr = gen.standard_normal((size, n, n))
    zi = gen.standard_normal((size, n, n))
    q, r = np.linalg.qr(zr + 1j * zi)
    d = np.einsum("bii->bi", r)
    return q * (d / np.abs(d))[:, None, :]


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
    u = haar_unitaries(m.n, size, gen)
    e = simplex_points(m.n, m.q, size, gen)
    return np.einsum("bij,bj,bkj->bik", u, e, u.conj())


def _bloch_batch(m: BlochBallMeasure, size: int, gen) -> np.ndarray:
    direction = gen.standard_normal((size, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    # r^2 ~ Beta(3/2, 1-u), realized as a ratio of Gamma variates
    ga = gen.gamma(1.5, size=size)
    gb = gen.gamma(1.0 - m.u, size=size)
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


def sample_density(spec: MeasureSpec, rng, validate: bool = False) -> np.ndarray:
    rho = sample_density_batch(spec, 1, _as_generator(rng))[0]
    if validate:
        validate_density_matrix(rho)
    return rho


# ---------------------------------------------------------------------------
# Euler-angle cross-check sampler for N = 2
# ---------------------------------------------------------------------------


def su2_euler_unitaries(size: int, gen: np.random.Generator) -> np.ndarray:
    """Haar SU(2) via 4-sphere polar angles with density sin^2(chi) sin(theta).

    Slower than the QR route and limited to N = 2; kept as an independent
    cross-check of the Haar sampler.  chi is drawn by bisecting its CDF
    (2 chi - sin 2 chi) / (2 pi), which is monotone on [0, pi].
    """
    target = gen.uniform(0.0, 1.0, size)
    lo = np.zeros(size)
    hi = np.full(size, np.pi)
    for _ in range(60):
        chi = 0.5 * (lo + hi)
        below = (2 * chi - np.sin(2 * chi)) / (2 * np.pi) < target
        lo = np.where(below, chi, lo)
        hi = np.where(below, hi, chi)
    chi = 0.5 * (lo + hi)
    cos_theta = gen.uniform(-1.0, 1.0, size)
    sin_theta = np.sqrt(1 - cos_theta**2)
    phi = gen.uniform(0.0, 2 * np.pi, size)
    x0 = np.cos(chi)
    x1 = np.sin(chi) * cos_theta
    x2 = np.sin(chi) * sin_theta * np.cos(phi)
    x3 = np.sin(chi) * sin_theta * np.sin(phi)
    u = np.empty((size, 2, 2), dtype=complex)
    u[:, 0, 0] = x0 + 1j * x3
    u[:, 0, 1] = x2 + 1j * x1
    u[:, 1, 0] = -x2 + 1j * x1
    u[:, 1, 1] = x0 - 1j * x3
    return u


def sample_density_euler(q, rng) -> np.ndarray:
    """One 2x2 Haar-Dirichlet draw using the Euler-angle unitary sampler."""
    gen = _as_generator(rng)
    u = su2_euler_unitaries(1, gen)[0]
    e = simplex_points(2, q, 1, gen)[0]
    return (u * e) @ u.conj().T

"""Random density matrices under the measures this package averages over.

Three sampling laws are supported:

* ``HaarDirichletMeasure`` -- eigenvectors Haar-distributed on U(N),
  eigenvalues Dirichlet on the simplex with exponents -q_i (q = 0 means the
  uniform simplex); rho = U diag(e) U+.  Serialized with JSON tag "zhsl".
  U comes from complex Ginibre columns orthonormalized by Gram-Schmidt, run
  twice, in real arithmetic, and rho is formed as the projector sum
  e_N I + sum_{j<N} (e_j - e_N) q_j q_j+, so only N - 1 columns are built.
  Entries below the diagonal are the conjugates of those above: every draw
  is exactly Hermitian.
* ``BlochBallMeasure`` -- 2x2 states with a uniformly random Bloch direction
  and radial law r^2 (1-r^2)^(-u) dr, i.e. r^2 ~ Beta(3/2, 1-u).  u = 1/2 is
  the normalized Bures volume element.
* ``ProductMeasure`` -- statistically independent factors, tensored in order.

A batch of draws is built entry-major, one contiguous row of draws per entry
of rho, the layout in which the Monte Carlo chunk multiplies entries.

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
    """A reproducible, independently keyed random stream.

    ``seed`` and ``stream_id`` key Philox modulo 2^64, so ``s`` and
    ``s + 2**64`` (for instance -1 and 2**64 - 1) name the same stream and
    any two seeds that differ modulo 2^64 name different ones.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        # a uint64 array: from a list, numpy reads keys >= 2^63 through float
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
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


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"measure field {name!r} must be a number, got {value!r}")
    return float(value)


def measure_from_json(obj: dict) -> MeasureSpec:
    """The law a measure JSON object names; a missing or mistyped field raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"measure JSON is a {type(obj).__name__}, not an object")
    kind = obj.get("type")
    if kind == "zhsl":
        q = obj.get("q", 0.0)
        q = tuple(_number(x, "q") for x in q) if isinstance(q, list) else _number(q, "q")
        n = _field(obj, "n")
        if type(n) is not int:  # a JSON integer; not a float, string or boolean
            raise ValueError(f"measure field 'n' must be an integer, got {n!r}")
        return HaarDirichletMeasure(n=n, q=q)
    if kind == "bloch":
        return BlochBallMeasure(u=_number(_field(obj, "u"), "u"))
    if kind == "product":
        factors = _field(obj, "factors")
        if not (isinstance(factors, list) and all(isinstance(f, dict) for f in factors)):
            raise ValueError(f"measure field 'factors' must be a list of objects, got {factors!r}")
        return ProductMeasure(factors=tuple(measure_from_json(f) for f in factors))
    raise ValueError(f"unknown measure type: {kind!r}")


# ---------------------------------------------------------------------------
# samplers (batched internally; the public single-draw forms take index 0)
# ---------------------------------------------------------------------------


def _haar_planes(n: int, k: int, size: int, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(k, n, size) real and imaginary parts of the first k columns of ``size``
    Haar unitaries on C^n: component i of column j is one row over the draws.

    Complex Ginibre followed by classical Gram-Schmidt on its columns, each
    projection pass run twice so rounding leaves the columns orthonormal.  This
    is the QR factor whose R has a positive real diagonal: unique, hence
    exactly Haar.  All n columns are drawn whatever k is, so the stream
    advances alike.
    """
    zr = gen.standard_normal((size, n, n))
    zi = gen.standard_normal((size, n, n))
    re = np.ascontiguousarray(zr[:, :, :k].transpose(2, 1, 0))
    im = np.ascontiguousarray(zi[:, :, :k].transpose(2, 1, 0))
    for j in range(k):
        vr, vi = re[j], im[j]
        for _ in range(2 if j else 0):
            # every <q_l, v> from the same v, then all projections off at once
            dots = [
                (np.sum(re[l] * vr + im[l] * vi, axis=0), np.sum(re[l] * vi - im[l] * vr, axis=0))
                for l in range(j)
            ]
            for l, (cr, ci) in enumerate(dots):
                vr -= cr * re[l] - ci * im[l]
                vi -= cr * im[l] + ci * re[l]
        norm = np.sqrt(np.square(vr).sum(axis=0) + np.square(vi).sum(axis=0))
        vr /= norm
        vi /= norm
    return re, im


def haar_unitaries(n: int, size: int, gen: np.random.Generator) -> np.ndarray:
    """(size, n, n) Haar-distributed unitaries.

    Complex Ginibre orthonormalized by Gram-Schmidt, run twice per column
    (see ``_haar_planes``); the same draws give the QR factor with R's
    diagonal phases pushed into Q, up to rounding.
    """
    re, im = _haar_planes(n, n, size, gen)
    return (re + 1j * im).transpose(2, 1, 0)


def sample_haar_unitary(n: int, rng) -> np.ndarray:
    if n < 2:
        raise ValueError("dimension must be >= 2")
    return haar_unitaries(n, 1, _as_generator(rng))[0]


def simplex_points(n: int, q, size: int, gen: np.random.Generator) -> np.ndarray:
    """(size, n) Dirichlet simplex draws with exponents -q_i (alpha = 1 - q)."""
    q = np.broadcast_to(np.asarray(q, dtype=float), (n,))
    if np.any(q >= 1):
        raise ValueError("Dirichlet parameters must satisfy q < 1")
    if np.all(q == q[0]):
        # the same variates as the array-shaped call below, drawn faster
        g = gen.standard_gamma(1.0 - q[0], size=(size, n))
    else:
        g = gen.gamma(1.0 - q, size=(size, n))
    return g / g.sum(axis=1, keepdims=True)


def sample_simplex(n: int, q, rng) -> np.ndarray:
    return simplex_points(n, q, 1, _as_generator(rng))[0]


def _haar_dirichlet_rows(m: HaarDirichletMeasure, size: int, gen) -> np.ndarray:
    # U diag(e) U+ = e_last I + sum_{j<last} (e_j - e_last) q_j q_j+, since the
    # projectors onto the columns q_j sum to I: only N - 1 columns are needed
    n = m.n
    re, im = _haar_planes(n, n - 1, size, gen)
    e = simplex_points(n, m.q, size, gen)
    w = (e[:, :-1] - e[:, -1:]).T[:, None]
    wr, wi = re * w, im * w
    rows = np.empty((n * n, size), dtype=complex)
    for i in range(n):
        # rho[i, k] for k >= i is summed; rho[k, i] is its exact conjugate
        upper, lower = rows[i * n + i : (i + 1) * n], rows[i * n + i :: n]
        ar, ai = wr[:, i, None], wi[:, i, None]
        upper.real = lower.real = np.sum(ar * re[:, i:] + ai * im[:, i:], axis=0)
        upper.imag = np.sum(ai * re[:, i:] - ar * im[:, i:], axis=0)
        lower.imag = -upper.imag
    rows.real[:: n + 1] += e[:, -1]
    rows.imag[:: n + 1] = 0
    return rows


def _bloch_rows(m: BlochBallMeasure, size: int, gen) -> np.ndarray:
    direction = gen.standard_normal((size, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    # r^2 ~ Beta(3/2, 1-u), realized as a ratio of Gamma variates
    ga = gen.gamma(1.5, size=size)
    gb = gen.gamma(1.0 - float(m.u), size=size)
    r = np.sqrt(ga / (ga + gb))
    x, y, z = r * direction.T
    rows = np.empty((4, size), dtype=complex)
    rows.real[0], rows.real[3] = (1 + z) / 2, (1 - z) / 2
    rows.real[1] = rows.real[2] = x / 2
    rows.imag[0] = rows.imag[3] = 0
    rows.imag[1], rows.imag[2] = -y / 2, y / 2
    return rows


def _entry_rows(spec: MeasureSpec, size: int, gen) -> np.ndarray:
    """(D*D, size): row i*D + k holds rho[i, k] of every draw."""
    if isinstance(spec, HaarDirichletMeasure):
        return _haar_dirichlet_rows(spec, size, gen)
    if isinstance(spec, BlochBallMeasure):
        return _bloch_rows(spec, size, gen)
    if isinstance(spec, ProductMeasure):
        rows, p = _entry_rows(spec.factors[0], size, gen), spec.factors[0].dim
        for f in spec.factors[1:]:
            # the Kronecker rows (i, k, j, l) = a[i, j] * b[k, l], as einsum's
            # unfused ar*br - ai*bi: numpy's SIMD multiply may round otherwise
            q = f.dim
            b = _entry_rows(f, size, gen).reshape(q, q, size)
            rows = np.einsum("ijs,kls->ikjls", rows.reshape(p, p, size), b).reshape(-1, size)
            p *= q
        return rows
    raise TypeError(f"unknown measure spec {spec!r}")


def sample_density_batch(spec: MeasureSpec, size: int, gen) -> np.ndarray:
    """(size, D, D) independent draws of the random density matrix, as a view
    of the (D*D, size) entry rows: ``.transpose(1, 2, 0)`` makes it contiguous.
    """
    d = spec.dim
    return _entry_rows(spec, size, gen).reshape(d, d, size).transpose(2, 0, 1)


def sample_density(spec: MeasureSpec, rng) -> np.ndarray:
    rho = sample_density_batch(spec, 1, _as_generator(rng))[0]
    validate_density_matrix(rho)
    return rho

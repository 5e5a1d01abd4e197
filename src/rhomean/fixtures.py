"""Catalog of published mean-matrix fixtures: matrices, spectra, eigenvectors.

Entries of the three-level fixtures take the form r + s/pi and are stored
exactly; eigenvalues additionally carry sqrt factors and are stored as
r + coef * sqrt(radicand) / pi.  Decimal-only values (where no closed form was
published) are kept as decimals with half-ulp tolerances.  Fixture ids follow
the scenario, e.g. ``n3m2`` is the two-fold tensor power of three-level
states; ``.eigs`` marks spectrum-only payloads and ``.partial`` payloads with
incompletely published entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

import numpy as np

from .spectral import SymbolicEigenvalue, SymbolicMatrix

F = Fraction

SQ2 = math.sqrt(2)
SQ331 = math.sqrt(331)


@dataclass(frozen=True)
class EigenvectorSet:
    """Orthonormal vectors sharing one eigenvalue (or one per vector)."""

    vectors: np.ndarray  # (k, dim)
    eigenvalue: SymbolicEigenvalue | None = None
    eigenvalues: tuple[SymbolicEigenvalue, ...] | None = None  # one per vector


@dataclass(frozen=True)
class Fixture:
    id: str
    matrix: SymbolicMatrix | None = None
    spectrum: tuple[tuple[SymbolicEigenvalue, int], ...] | None = None
    decimal_spectrum: tuple[tuple[float, float, int], ...] | None = None  # (value, tol, mult)
    limit_spectrum: tuple[tuple[Fraction, int], ...] | None = None
    vectors: dict[str, EigenvectorSet] | None = None
    diag: dict[int, Fraction] | None = None  # 0-based position -> value
    diag_counts: tuple[tuple[Fraction, int], ...] | None = None
    notes: str = ""


def _vec(entries) -> np.ndarray:
    return np.array([float(x) for x in entries])


# ---------------------------------------------------------------------------
# two-level fixtures
# ---------------------------------------------------------------------------


def _n2m2() -> Fixture:
    m = SymbolicMatrix.from_rational(
        [
            [F(5, 18), 0, 0, 0],
            [0, F(2, 9), F(1, 18), 0],
            [0, F(1, 18), F(2, 9), 0],
            [0, 0, 0, F(5, 18)],
        ]
    )
    spec = ((SymbolicEigenvalue(F(1, 6)), 1), (SymbolicEigenvalue(F(5, 18)), 3))
    return Fixture(id="n2m2", matrix=m, spectrum=spec)


def _n2m3() -> Fixture:
    z, a, b, c = 0, F(1, 6), F(1, 9), F(1, 36)
    m = SymbolicMatrix.from_rational(
        [
            [a, z, z, z, z, z, z, z],
            [z, b, c, z, c, z, z, z],
            [z, c, b, z, c, z, z, z],
            [z, z, z, b, z, c, c, z],
            [z, c, c, z, b, z, z, z],
            [z, z, z, c, z, b, c, z],
            [z, z, z, c, z, c, b, z],
            [z, z, z, z, z, z, z, a],
        ]
    )
    s3 = 1 / math.sqrt(3)
    sextet = EigenvectorSet(
        vectors=np.array(
            [
                _vec([0, 0, 0, 0, 0, 0, 0, 1]),
                _vec([0, 0, 0, s3, 0, s3, s3, 0]),
                _vec([0, s3, s3, 0, s3, 0, 0, 0]),
                _vec([1, 0, 0, 0, 0, 0, 0, 0]),
            ]
        ),
        eigenvalue=SymbolicEigenvalue(F(1, 6)),
    )
    s2, s6 = 1 / math.sqrt(2), 1 / math.sqrt(6)
    quartet = EigenvectorSet(
        vectors=np.array(
            [
                _vec([0, 0, 0, -s2, 0, 0, s2, 0]),
                _vec([0, 0, 0, -s6, 0, 2 * s6, -s6, 0]),
                _vec([0, -s2, 0, 0, s2, 0, 0, 0]),
                _vec([0, -s6, 2 * s6, 0, -s6, 0, 0, 0]),
            ]
        ),
        eigenvalue=SymbolicEigenvalue(F(1, 12)),
    )
    spec = ((SymbolicEigenvalue(F(1, 12)), 4), (SymbolicEigenvalue(F(1, 6)), 4))
    return Fixture(
        id="n2m3", matrix=m, spectrum=spec, vectors={"sixth": sextet, "twelfth": quartet}
    )


def _rational_spectrum(pairs) -> tuple[tuple[SymbolicEigenvalue, int], ...]:
    return tuple((SymbolicEigenvalue(F(v)), k) for v, k in pairs)


def _n2m4_eigs() -> Fixture:
    return Fixture(
        id="n2m4.eigs",
        spectrum=_rational_spectrum([(F(1, 30), 2), (F(2, 45), 9), (F(8, 75), 5)]),
    )


def _n2m5_eigs() -> Fixture:
    return Fixture(
        id="n2m5.eigs",
        spectrum=_rational_spectrum([(F(1, 60), 10), (F(1, 40), 16), (F(13, 180), 6)]),
    )


def _n2m6_eigs() -> Fixture:
    return Fixture(
        id="n2m6.eigs",
        spectrum=_rational_spectrum(
            [(F(1, 140), 5), (F(11, 1260), 27), (F(31, 2100), 25), (F(151, 2940), 7)]
        ),
    )


# ---------------------------------------------------------------------------
# three-level, m = 2: the 9x9 matrix with g = 1/(864 pi)
# ---------------------------------------------------------------------------

# layout of the 9x9 fixture: rational slot kinds and multipliers of g
_EQ13_KINDS = [
    ["diag_eq", None, None, None, None, None, None, None, None],
    [None, "diag_neq", None, "swap", None, None, None, None, None],
    [None, None, "diag_neq", None, None, None, "swap", None, None],
    [None, "swap", None, "diag_neq", None, None, None, None, None],
    [None, None, None, None, "diag_eq", None, None, None, None],
    [None, None, None, None, None, "diag_neq", None, "swap", None],
    [None, None, "swap", None, None, None, "diag_neq", None, None],
    [None, None, None, None, None, "swap", None, "diag_neq", None],
    [None, None, None, None, None, None, None, None, "diag_eq"],
]

_T = F(10, 3)  # the 10g/3 multiplier
_EQ13_G_MULT = [
    [0, 0, 1, 0, 0, _T, 1, _T, 0],
    [0, 0, -2, 0, 0, -2, -2, -2, 0],
    [1, -2, 0, -2, _T, 0, 0, 0, 1],
    [0, 0, -2, 0, 0, -2, -2, -2, 0],
    [0, 0, _T, 0, 0, 1, _T, 1, 0],
    [_T, -2, 0, -2, 1, 0, 0, 0, 1],
    [1, -2, 0, -2, _T, 0, 0, 0, 1],
    [_T, -2, 0, -2, 1, 0, 0, 0, 1],
    [0, 0, 1, 0, 0, 1, 1, 1, 0],
]


def eq13_matrix(values, g) -> SymbolicMatrix:
    """The 9x9 layout filled with rational slot values and the 1/pi unit g."""
    rp = np.array([[values[k] if k else F(0) for k in row] for row in _EQ13_KINDS], dtype=object)
    sp = np.array([[F(x) * g for x in row] for row in _EQ13_G_MULT], dtype=object)
    return SymbolicMatrix(rp, sp)


def _n3m2() -> Fixture:
    m = eq13_matrix({"diag_eq": F(1, 8), "diag_neq": F(5, 48), "swap": F(1, 48)}, F(1, 864))
    eighth = F(1, 8)
    spec = (
        (SymbolicEigenvalue(F(1, 12)), 3),
        (SymbolicEigenvalue(eighth, -F(1, 2592), 662), 1),   # ~ .12184
        (SymbolicEigenvalue(eighth, -F(7, 2592), 2), 1),     # ~ .123784
        (SymbolicEigenvalue(eighth), 2),
        (SymbolicEigenvalue(eighth, F(7, 2592), 2), 1),      # ~ .126216
        (SymbolicEigenvalue(eighth, F(1, 2592), 662), 1),    # ~ .12816
    )
    return Fixture(id="n3m2", matrix=m, spectrum=spec)


#: matrices of this family are PSD for |v| at or above this threshold
N3M2_PSD_THRESHOLD = SQ331 / (162 * SQ2)
#: at these v values two unrepeated eigenvalues become exactly 1/12 and 1/6
N3M2_SPECIAL_V = (SQ331 / (54 * SQ2), 7 / (54 * SQ2))


def _n3m2_vecs() -> Fixture:
    s2 = 1 / math.sqrt(2)
    triple = EigenvectorSet(
        vectors=np.array(
            [
                _vec([0, 0, 0, 0, 0, -s2, 0, s2, 0]),
                _vec([0, 0, -s2, 0, 0, 0, s2, 0, 0]),
                _vec([0, -s2, 0, s2, 0, 0, 0, 0, 0]),
            ]
        ),
        eigenvalue=SymbolicEigenvalue(F(1, 12)),
    )
    a, b = 1 / (3 * SQ2), 2 * SQ2 / 3
    c, d, e = 9 / SQ331, 26 / (3 * SQ331), 13 / (3 * SQ331)
    double = EigenvectorSet(
        vectors=np.array(
            [_vec([0, a, 0, a, 0, 0, 0, 0, b]), _vec([c, d, 0, d, c, 0, 0, 0, -e])]
        ),
        eigenvalue=SymbolicEigenvalue(F(1, 8)),
    )
    h = 1 / (2 * SQ2)
    p, r, s = 13 / (2 * SQ331), 6 / SQ331, 3 / SQ331
    eighth = F(1, 8)
    isolated = EigenvectorSet(
        vectors=np.array(
            [
                _vec([-0.5, 0, -h, 0, 0.5, h, -h, h, 0]),
                _vec([0.5, 0, -h, 0, -0.5, h, -h, h, 0]),
                _vec([p, -r, -h, -r, p, -h, -h, -h, s]),
                _vec([p, -r, h, -r, p, h, h, h, s]),
            ]
        ),
        # pairing verified by Rayleigh quotients: the printed vectors match the
        # unrepeated eigenvalues in the order (-7, +7, -sqrt331, +sqrt331)
        eigenvalues=(
            SymbolicEigenvalue(eighth, -F(7, 2592), 2),
            SymbolicEigenvalue(eighth, F(7, 2592), 2),
            SymbolicEigenvalue(eighth, -F(1, 2592), 662),
            SymbolicEigenvalue(eighth, F(1, 2592), 662),
        ),
    )
    sextet = EigenvectorSet(
        vectors=np.array(
            [
                _vec([0, 0, 0, 0, 0, 0, 0, 0, 1]),
                _vec([0, 0, 0, 0, 0, s2, 0, s2, 0]),
                _vec([0, 0, s2, 0, 0, 0, s2, 0, 0]),
                _vec([0, 0, 0, 0, 1, 0, 0, 0, 0]),
                _vec([0, s2, 0, s2, 0, 0, 0, 0, 0]),
                _vec([1, 0, 0, 0, 0, 0, 0, 0, 0]),
            ]
        ),
        eigenvalue=SymbolicEigenvalue(F(1, 8)),
    )
    return Fixture(
        id="n3m2.vecs",
        vectors={
            "twelfth": triple,
            "eighth": double,
            "isolated": isolated,
            "sextet": sextet,
        },
    )


# ---------------------------------------------------------------------------
# three-level, m = 3 (partial: the 1/pi parts are only exemplified)
# ---------------------------------------------------------------------------

_N3M3_DIAG_PATTERN = "abbbbgbgbbbgbabgbbbgbgbbbba"  # a=31/600, b=11/300, g=37/1200

#: published sixth-degree even polynomial in y = (7 - 240 lambda) pi
N3M3_PAIR_POLY = (5504, -317043, 4986360, -19131876)
#: published eighth-degree even polynomial in y = (31 - 600 lambda) pi
N3M3_ISOLATED_POLY = (
    383127080633857021,
    -18544605647405907654,
    4501753947892101744,
    -351843587054438400,
    8926168066560000,
)


def _n3m3_rational_parts() -> np.ndarray:
    """Complete rational parts of the 27x27 mean matrix.

    The diagonal follows the published pattern; the published off-diagonal
    rationals are classified by the multiset of factors a_ij the cell
    averages: {(ii),(ij),(ji)} -> 3/400, {(ii),(jk),(kj)} -> 7/1200,
    {(ij),(jk),(ki)} -> 1/600 with distinct i,j,k.
    """
    diag_vals = {"a": F(31, 600), "b": F(11, 300), "g": F(37, 1200)}
    rp = np.full((27, 27), F(0), dtype=object)
    idx = list(product(range(3), repeat=3))
    for pos in range(27):
        rp[pos, pos] = diag_vals[_N3M3_DIAG_PATTERN[pos]]
    forms_a, forms_b, forms_c = set(), set(), set()
    for i, j in permutations(range(3), 2):
        forms_a.add(tuple(sorted([(i, i), (i, j), (j, i)])))
    for i, j, k in permutations(range(3), 3):
        forms_b.add(tuple(sorted([(i, i), (j, k), (k, j)])))
        forms_c.add(tuple(sorted([(i, j), (j, k), (k, i)])))
    for row, ridx in enumerate(idx):
        for col, cidx in enumerate(idx):
            if row == col:
                continue
            key = tuple(sorted(zip(ridx, cidx)))
            if key in forms_a:
                rp[row, col] = F(3, 400)
            elif key in forms_b:
                rp[row, col] = F(7, 1200)
            elif key in forms_c:
                rp[row, col] = F(1, 600)
    return rp


def _n3m3_partial() -> Fixture:
    rp = _n3m3_rational_parts()
    sp = np.full((27, 27), F(0), dtype=object)
    sp[0, 2] = sp[2, 0] = F(7, 8640)  # the published example 1/pi entry
    a6 = 1 / math.sqrt(6)
    iso_entries = [0.0] * 27
    for pos, sign in [(5, -1), (7, 1), (11, 1), (15, -1), (19, -1), (21, 1)]:
        iso_entries[pos] = sign * a6
    iso = EigenvectorSet(
        vectors=np.array([iso_entries]), eigenvalue=SymbolicEigenvalue(F(1, 60))
    )
    q240 = F(7, 240)
    spec = (
        (SymbolicEigenvalue(F(1, 60)), 1),
        (SymbolicEigenvalue(q240, -F(1, 810), 2), 2),       # ~ .0286109
        (SymbolicEigenvalue(q240, -F(1, 12960), 86), 2),    # ~ .0289389
        (SymbolicEigenvalue(q240, -F(1, 1440), 2), 2),      # ~ .0288541
        (SymbolicEigenvalue(q240), 4),
        (SymbolicEigenvalue(q240, F(1, 1440), 2), 2),       # ~ .0294793
        (SymbolicEigenvalue(q240, F(1, 12960), 86), 2),     # ~ .0293994
        (SymbolicEigenvalue(q240, F(1, 810), 2), 2),        # ~ .0297224
        (SymbolicEigenvalue(F(31, 600)), 2),
    )
    isolated_decimals = (
        0.0495426, 0.0496514, 0.0500807, 0.0515902,
        0.0517431, 0.0532526, 0.0536819, 0.0537907,
    )
    decimal_spectrum = tuple((v, 5e-7, 1) for v in isolated_decimals)
    return Fixture(
        id="n3m3.partial",
        matrix=SymbolicMatrix(rp, sp),
        spectrum=spec,
        decimal_spectrum=decimal_spectrum,
        limit_spectrum=((F(1, 60), 1), (F(7, 240), 16), (F(31, 600), 10)),
        vectors={"sixtieth": iso},
        notes=(
            "rational parts complete (pattern-classified); 1/pi parts only "
            "exemplified by the (1,3)-cell value 7/(8640 pi); the eight "
            "isolated eigenvalues near 31/600 are published as decimals, "
            "their extremes exactly as 31/600 +- sqrt(2337181)/(162000 pi sqrt 2)"
        ),
    )


#: exact forms of the smallest/largest isolated n3m3 eigenvalues
N3M3_ISOLATED_EXTREMES = (
    SymbolicEigenvalue(F(31, 600), -F(1, 324000), 4674362),
    SymbolicEigenvalue(F(31, 600), F(1, 324000), 4674362),
)


def _n3m4_partial() -> Fixture:
    rp = np.full((81, 81), F(0), dtype=object)
    sp = np.full((81, 81), F(0), dtype=object)
    for (i, j), s in [((0, 2), F(41, 86400)), ((1, 2), -F(43, 54000)), ((10, 11), -F(37, 108000))]:
        sp[i, j] = sp[j, i] = s
    return Fixture(
        id="n3m4.partial",
        matrix=SymbolicMatrix(rp, sp),
        diag_counts=(
            (F(7, 300), 3),
            (F(11, 900), 18),
            (F(17, 1200), 24),
            (F(37, 3600), 36),
        ),
        notes="diagonal published as value/count pairs; three 1/pi cells published",
    )


# ---------------------------------------------------------------------------
# four-level, m = 2 (all-rational; no 1/pi content)
# ---------------------------------------------------------------------------

_N4M2_DIAG_SLOTS = (
    "alpha", "beta", "gamma", "kappa",
    "beta", "alpha", "gamma", "kappa",
    "gamma", "gamma", "epsilon", "zeta",
    "kappa", "kappa", "zeta", "eta",
)
# 0-based upper-triangle cells
_N4M2_OFFDIAG = {
    (1, 4): "v1",
    (2, 8): "v2",
    (6, 9): "v2",
    (3, 12): "v3",
    (7, 13): "v3",
    (11, 14): "v4",
}


def n4m2_matrix(diag_values, off_values) -> SymbolicMatrix:
    """The 16x16 layout filled with rational slot values; it has no 1/pi part."""
    rp = np.full((16, 16), F(0), dtype=object)
    for i, slot in enumerate(_N4M2_DIAG_SLOTS):
        rp[i, i] = diag_values[slot]
    for (i, j), slot in _N4M2_OFFDIAG.items():
        rp[i, j] = rp[j, i] = off_values[slot]
    return SymbolicMatrix.from_rational(rp)


def _n4m2() -> Fixture:
    diag_values = {
        "alpha": F(2327, 32400),
        "beta": F(3947, 64800),
        "gamma": F(1759, 28800),
        "kappa": F(971, 17280),
        "epsilon": F(1583, 21600),
        "zeta": F(2357, 43200),
        "eta": F(299, 3600),
    }
    off_values = {
        "v1": F(707, 64800),
        "v2": F(319, 28800),
        "v3": F(107, 17280),
        "v4": F(197, 43200),
    }
    spec = _rational_spectrum(
        [
            (F(1, 20), 6),
            (F(1277, 21600), 1),
            (F(539, 8640), 2),
            (F(2327, 32400), 3),
            (F(1039, 14400), 2),
            (F(1583, 21600), 1),
            (F(299, 3600), 1),
        ]
    )
    return Fixture(id="n4m2", matrix=n4m2_matrix(diag_values, off_values), spectrum=spec)


# ---------------------------------------------------------------------------
# four-level, m = 3: published q-parameterized single entries
# ---------------------------------------------------------------------------


def n4m3_entry_formulas():
    """1-based (row, col) -> (formula in q, flagged).

    The (52, 61) numerator was printed as the constant "5026 - 2675", which
    does not involve q and is presumed garbled; it is stored verbatim but
    flagged and excluded from every comparison.
    """

    def e5252(q: Fraction) -> Fraction:
        return (43581 + 10 * q * (2160 * q - 6283)) / (172800 * (5 - 4 * q) * (3 - 2 * q))

    def e5353(q: Fraction) -> Fraction:
        return (58387 + 6 * q * (6480 * q - 15979)) / (311040 * (5 - 4 * q) * (3 - 2 * q))

    def e5261(q: Fraction) -> Fraction:
        return F(5026 - 2675) / (172800 * (5 - 4 * q) * (3 - 2 * q))

    return {
        (52, 52): (e5252, False),
        (53, 53): (e5353, False),
        (52, 61): (e5261, True),
    }


def _n4m3_partial() -> Fixture:
    return Fixture(
        id="n4m3.partial",
        notes="three published entry formulas; see n4m3_entry_formulas()",
    )


# ---------------------------------------------------------------------------
# five-level, m = 2: first two diagonal entries
# ---------------------------------------------------------------------------


def _n5m2_diag() -> Fixture:
    return Fixture(
        id="n5m2.diag",
        diag={0: F(2, 45), 1: F(7, 180), 5: F(7, 180)},
    )


# ---------------------------------------------------------------------------
# composite scenarios
# ---------------------------------------------------------------------------


def _n6m2_eigs() -> Fixture:
    spec = (
        (SymbolicEigenvalue(F(1, 72)), 3),
        (SymbolicEigenvalue(F(1, 48), -F(1, 15552), 662), 1),   # ~ .0203067
        (SymbolicEigenvalue(F(1, 48), -F(7, 15552), 2), 1),     # ~ .0206307
        (SymbolicEigenvalue(F(1, 48)), 2),
        (SymbolicEigenvalue(F(1, 48), F(7, 15552), 2), 1),      # ~ .021036
        (SymbolicEigenvalue(F(1, 48), F(1, 15552), 662), 1),    # ~ .0213599
        (SymbolicEigenvalue(F(5, 216)), 9),
        (SymbolicEigenvalue(F(5, 144), -F(5, 46656), 662), 3),  # ~ .0338445
        (SymbolicEigenvalue(F(5, 144), -F(35, 46656), 2), 3),   # ~ .0343845
        (SymbolicEigenvalue(F(5, 144)), 6),
        (SymbolicEigenvalue(F(5, 144), F(35, 46656), 2), 3),    # ~ .0350599
        (SymbolicEigenvalue(F(5, 144), F(5, 46656), 662), 3),   # ~ .0355999
    )
    decimals = (
        (1 / 72, 5e-7, 3),
        (0.0203067, 5e-7, 1),
        (0.0206307, 5e-7, 1),
        (0.020833, 5e-6, 2),
        (0.021036, 5e-6, 1),
        (0.0213599, 5e-7, 1),
        (0.0231481, 5e-7, 9),
        (0.0338445, 5e-7, 3),
        (0.0343845, 5e-7, 3),
        (0.0347222, 5e-7, 6),
        (0.0350599, 5e-7, 3),
        (0.0355999, 5e-7, 3),
    )
    return Fixture(
        id="n6m2.eigs",
        spectrum=spec,
        decimal_spectrum=decimals,
        limit_spectrum=((F(1, 72), 3), (F(1, 48), 6), (F(5, 216), 9), (F(5, 144), 18)),
        notes="only 5/144 + 5 sqrt(331)/(23328 pi sqrt 2) was published in closed "
        "form; the remaining sqrt entries follow from the factor-spectrum "
        "products and agree with every published decimal",
    )


def _n12_eigs(fixture_id: str) -> Fixture:
    spec = (
        (SymbolicEigenvalue(F(1, 360)), 6),
        (SymbolicEigenvalue(F(1, 270)), 27),
        (SymbolicEigenvalue(F(2, 225)), 15),
        (SymbolicEigenvalue(F(1, 240)), 4),
        (SymbolicEigenvalue(F(1, 180)), 18),
        (SymbolicEigenvalue(F(1, 75)), 10),
        (SymbolicEigenvalue(F(1, 180), F(7, 58320), 2), 9),
        (SymbolicEigenvalue(F(1, 180), -F(7, 58320), 2), 9),
        (SymbolicEigenvalue(F(1, 180), F(1, 58320), 662), 9),
        (SymbolicEigenvalue(F(1, 180), -F(1, 58320), 662), 9),
        (SymbolicEigenvalue(F(1, 75), F(1, 24300), 662), 5),
        (SymbolicEigenvalue(F(1, 75), -F(1, 24300), 662), 5),
        (SymbolicEigenvalue(F(1, 75), F(7, 24300), 2), 5),
        (SymbolicEigenvalue(F(1, 75), -F(7, 24300), 2), 5),
        (SymbolicEigenvalue(F(1, 240), F(7, 77760), 2), 2),
        (SymbolicEigenvalue(F(1, 240), -F(7, 77760), 2), 2),
        (SymbolicEigenvalue(F(1, 240), F(1, 77760), 662), 2),
        (SymbolicEigenvalue(F(1, 240), -F(1, 77760), 662), 2),
    )
    return Fixture(
        id=fixture_id,
        spectrum=spec,
        limit_spectrum=(
            (F(1, 360), 6),
            (F(1, 270), 27),
            (F(1, 240), 12),
            (F(1, 180), 54),
            (F(2, 225), 15),
            (F(1, 75), 30),
        ),
        notes="eighteen eigenspaces with pi retained; both subsystem orderings "
        "were reported to give identical lists",
    )


_BUILDERS = {
    "n2m2": _n2m2,
    "n2m3": _n2m3,
    "n2m4.eigs": _n2m4_eigs,
    "n2m5.eigs": _n2m5_eigs,
    "n2m6.eigs": _n2m6_eigs,
    "n3m2": _n3m2,
    "n3m2.vecs": _n3m2_vecs,
    "n3m3.partial": _n3m3_partial,
    "n3m4.partial": _n3m4_partial,
    "n4m2": _n4m2,
    "n4m3.partial": _n4m3_partial,
    "n5m2.diag": _n5m2_diag,
    "n6m2.eigs": _n6m2_eigs,
    "n12.232.eigs": lambda: _n12_eigs("n12.232.eigs"),
    "n12.322.eigs": lambda: _n12_eigs("n12.322.eigs"),
}

FIXTURE_IDS = tuple(sorted(_BUILDERS))


@lru_cache(maxsize=None)
def get_fixture(fixture_id: str) -> Fixture:
    if fixture_id not in _BUILDERS:
        raise ValueError(f"unknown fixture {fixture_id!r}; known: {list(FIXTURE_IDS)}")
    return _BUILDERS[fixture_id]()


def spectrum_values(
    spectrum: tuple[tuple[SymbolicEigenvalue, int], ...], v: float = math.pi
) -> list[tuple[float, int]]:
    """Numeric (value, multiplicity) pairs, ascending in value."""
    return sorted((ev.value(v), mult) for ev, mult in spectrum)


def spectrum_rational_sum(spectrum) -> Fraction:
    """Exact sum of mult * rational part; the sqrt/pi parts must cancel separately."""
    return sum((ev.r * mult for ev, mult in spectrum), F(0))


def spectrum_pi_parts_cancel(spectrum) -> bool:
    by_radicand: dict[int, Fraction] = {}
    for ev, mult in spectrum:
        if ev.coef:
            by_radicand[ev.radicand] = by_radicand.get(ev.radicand, F(0)) + ev.coef * mult
    return all(v == 0 for v in by_radicand.values())

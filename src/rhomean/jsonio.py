"""JSON wire formats.

Every matrix artifact uses the row-major schema
``{"rows": R, "cols": C, "entries": [...]}`` where entries are ``[re, im]``
pairs for numeric matrices, ``"p/q"`` strings for exact rational matrices and
``{"r": "p/q", "s": "p/q"}`` objects for r + s/pi matrices.  Rationals travel
as strings so exactness survives the round trip.

Exact matrices take few distinct values (an oracle mean lies in the commutant
of SU(N)^(x m), e.g. 17 values among the 65536 entries at N=4, m=4), so the
exact readers and writers work on the labelled form (values, labels) of
``OracleResult.labelled``: each distinct string is parsed once, each distinct
value is formatted once, and entries are gathered by the integer labels.  An
oracle artifact is written from and read back into that form, with no dense
Fraction matrix in between.

Artifacts keep the bytes of ``json.dumps(obj, indent=1, sort_keys=True)`` plus
a newline.  ``dumps_json`` writes them with the C string encoder, once per
distinct string of a list, instead of the stdlib's pure-Python indent encoder.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from .linalg import Scenario, distinct_entries
from .measures import (
    HaarDirichletMeasure,
    MeasureSpec,
    ProductMeasure,
    factor_laws,
    measure_from_json,
)
from .montecarlo import MIN_SAMPLES, MeanEstimate
from .oracle import OracleResult
from .spectral import SymbolicMatrix, substitute_v
from .symmetry import partitions


def complex_matrix_to_json(mat: np.ndarray) -> dict:
    mat = np.asarray(mat, dtype=complex)
    return {
        "rows": mat.shape[0],
        "cols": mat.shape[1],
        "entries": [[x.real, x.imag] for x in mat.ravel()],
    }


def _check_entry_count(obj: dict) -> tuple[int, int, list]:
    if not isinstance(obj, dict):
        raise ValueError(f"matrix JSON is a {type(obj).__name__}, not an object")
    rows, cols, entries = (_field(obj, name, "matrix JSON") for name in ("rows", "cols", "entries"))
    rows, cols = _json_int(rows, "rows", "matrix JSON"), _json_int(cols, "cols", "matrix JSON")
    for name, size in (("rows", rows), ("cols", cols)):
        if size < 1:
            raise ValueError(f"matrix JSON field {name!r} holds {size}, not a positive integer")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ValueError("entry count does not match rows * cols")
    return rows, cols, entries


def _complex_entry(entry) -> complex:
    try:
        re, im = entry
        return complex(re, im)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"complex entry {entry!r} is not an [re, im] pair") from None


def complex_matrix_from_json(obj: dict) -> np.ndarray:
    rows, cols, entries = _check_entry_count(obj)
    flat = np.array([_complex_entry(e) for e in entries], dtype=complex)
    return flat.reshape(rows, cols)


def labelled_matrix_to_json(values: list, labels: np.ndarray) -> dict:
    """Rational matrix schema of values[labels], formatting each distinct value once."""
    texts = np.array([str(Fraction(x)) for x in values], dtype=object)
    return {
        "rows": labels.shape[0],
        "cols": labels.shape[1],
        "entries": texts[labels].ravel().tolist(),
    }


def rational_matrix_to_json(mat: np.ndarray) -> dict:
    values, index = distinct_entries(mat.ravel().tolist())
    return labelled_matrix_to_json(values, index.reshape(mat.shape))


def _rational(text, what: str = "rational entry") -> Fraction:
    if not isinstance(text, str):
        raise ValueError(f"{what} {text!r} is not a 'p/q' string")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{what} {text!r} is not a rational p/q with q != 0") from None


def _labelled_rationals(rows: int, cols: int, texts: list) -> tuple[list[Fraction], np.ndarray]:
    """Pairwise distinct Fractions of the "p/q" strings, and a (rows, cols) label array."""
    try:
        distinct, index = distinct_entries(texts)
    except TypeError:  # an unhashable entry: no string, so _rational rejects it
        for text in texts:
            _rational(text)
        raise
    # distinct strings such as "1/2" and "2/4" may name one value
    values, merged = distinct_entries([_rational(t) for t in distinct])
    return values, merged[index].reshape(rows, cols)


def _gather(values: list, labels: np.ndarray, dtype=object) -> np.ndarray:
    return np.array(values, dtype=dtype)[labels]


def rational_matrix_from_json(obj: dict) -> np.ndarray:
    return _gather(*_labelled_rationals(*_check_entry_count(obj)))


def symbolic_matrix_to_json(sym: SymbolicMatrix) -> dict:
    out = rational_matrix_to_json(sym.rpart)
    stexts = rational_matrix_to_json(sym.spart)["entries"]
    out["entries"] = [{"r": r, "s": s} for r, s in zip(out["entries"], stexts)]
    return out


def symbolic_matrix_from_json(obj: dict) -> SymbolicMatrix:
    rows, cols, entries = _check_entry_count(obj)
    try:
        rtexts = [e["r"] for e in entries]
        stexts = [e["s"] for e in entries]
    except (TypeError, KeyError):
        bad = next(e for e in entries if not (isinstance(e, dict) and "r" in e and "s" in e))
        raise ValueError(f"symbolic entry {bad!r} is not an {{'r': 'p/q', 's': 'p/q'}} object") from None
    rp = _gather(*_labelled_rationals(rows, cols, rtexts))
    sp = _gather(*_labelled_rationals(rows, cols, stexts))
    return SymbolicMatrix(rp, sp)


def any_matrix_to_float(obj: dict) -> np.ndarray:
    """Load any matrix schema as a float/complex array (symbolic at pi).

    The first entry picks the schema: a "p/q" string is rational, an object is
    r + s/pi and anything else is complex.  Each schema's reader checks every entry.
    """
    rows, cols, entries = _check_entry_count(obj)
    if isinstance(entries[0], str):
        # float() of each distinct Fraction; no Fraction matrix is built
        values, labels = _labelled_rationals(rows, cols, entries)
        return _gather([float(x) for x in values], labels, np.float64)
    if isinstance(entries[0], dict):
        return substitute_v(symbolic_matrix_from_json(obj), math.pi)
    return complex_matrix_from_json(obj)


def class_key(ct: tuple[int, ...]) -> str:
    """Artifact key of a class of S_m: its representative in 1-based cycle notation.

    The cycles fill consecutive slots, longest first, and fixed points are
    left out, e.g. "()", "(12)", "(123)(45)".  Up to m = 9 the slots of a cycle
    are written side by side; from m = 10 on they are comma-separated, e.g.
    "(1,2,...,10)".
    """
    sep = "" if sum(ct) <= 9 else ","
    parts, start = [], 1
    for length in ct:
        if length > 1:
            parts.append("(" + sep.join(str(start + k) for k in range(length)) + ")")
        start += length
    return "".join(parts) or "()"


def oracle_result_to_json(result: OracleResult) -> dict:
    """Oracle artifact; ``coefficients`` holds one entry per class of S_m.

    Each class is keyed by ``class_key`` of its cycle type, e.g. "()", "(12)",
    "(123)(45)", and ``"coefficients_form": "class"`` marks this schema.
    ``"q"`` lists each factor's Dirichlet exponents, so the law must be
    Haar x Dirichlet or a product of such factors.
    """
    laws = factor_laws(result.measure)
    if not all(isinstance(f, HaarDirichletMeasure) for f in laws):
        raise ValueError(f"oracle artifacts record Dirichlet laws only, not {result.measure!r}")
    out = {
        "factors": list(result.scenario.factors),
        "m": result.scenario.power,
        "q": [[str(Fraction(x)) for x in f.q] for f in laws],
        "matrix": labelled_matrix_to_json(*result.labelled),
    }
    if result.class_coefficients is not None:
        out["coefficients_form"] = "class"
        out["coefficients"] = {
            class_key(ct): str(c) for ct, c in sorted(result.class_coefficients.items())
        }
    if result.factor_spectra is not None:
        out["factor_spectra"] = [
            [[str(v), mult] for v, mult in spec] for spec in result.factor_spectra
        ]
    return out


def _class_coefficients_from_json(coefficients: dict, m: int) -> dict[tuple[int, ...], Fraction]:
    """One coefficient per cycle type, each read from its ``class_key``."""
    types = {class_key(ct): ct for ct in sorted(partitions(m))}
    unknown = [text for text in coefficients if text not in types]
    if unknown:
        raise ValueError(f"{unknown} name no class of S_{m} by its canonical key")
    missing = [ct for text, ct in types.items() if text not in coefficients]
    if missing:
        raise ValueError(f"no coefficient for the classes {missing}")
    return {
        ct: _rational(coefficients[text], f"'coefficients'[{text!r}]")
        for text, ct in types.items()
    }


def _json_int(value, name: str, what: str = "oracle artifact") -> int:
    if type(value) is not int:  # a JSON integer; not a float, string or boolean
        raise ValueError(f"{what} field {name!r} holds {value!r}, not an integer")
    return value


def _int_list(value, name: str, what: str = "oracle artifact") -> tuple[int, ...]:
    if not (isinstance(value, list) and all(type(n) is int for n in value)):
        raise ValueError(f"{what} field {name!r} is {value!r}, not a list of integers")
    return tuple(value)


def _list_of_lists(value, name: str, what: str = "oracle artifact") -> list:
    if not (isinstance(value, list) and all(isinstance(x, list) for x in value)):
        raise ValueError(f"{what} field {name!r} is {value!r}, not a list of lists")
    return value


def _field(obj: dict, name: str, what: str = "oracle artifact"):
    if name not in obj:
        raise ValueError(f"{what} lacks the field {name!r}")
    return obj[name]


def _check_dim(rows: int, cols: int, scenario: Scenario, what: str) -> None:
    base, m = scenario.base_dim, scenario.power
    # base >= 2, so base**m > rows once m >= rows.bit_length(): a huge 'm' is never raised to
    if rows != cols or m >= rows.bit_length() or base**m != rows:
        raise ValueError(
            f"{what} field 'matrix' is {rows}x{cols}, not D x D with D = {base}^{m} "
            f"for 'factors' {list(scenario.factors)} and 'm' {m}"
        )


def oracle_result_from_json(obj: dict) -> OracleResult:
    factors = _int_list(_field(obj, "factors"), "factors")
    m = _json_int(_field(obj, "m"), "m")
    scenario = Scenario(factors=factors, power=m)
    coeffs = None
    if "coefficients" in obj:
        if len(factors) != 1:
            raise ValueError(f"oracle artifact field 'coefficients' is for one law, not factors {list(factors)}")
        form = obj.get("coefficients_form")
        if form != "class":
            raise ValueError(f"unknown coefficients_form {form!r}")
        coeffs = _class_coefficients_from_json(obj["coefficients"], m)
    factor_spectra = None
    if "factor_spectra" in obj:
        factor_spectra = tuple(
            tuple(
                (_rational(v, "'factor_spectra' value"), _json_int(mult, "factor_spectra"))
                for v, mult in _list_of_lists(spec, "factor_spectra")
            )
            for spec in _list_of_lists(obj["factor_spectra"], "factor_spectra")
        )
    q = _list_of_lists(_field(obj, "q"), "q")
    if len(q) != len(factors):
        raise ValueError(f"oracle artifact field 'q' has {len(q)} rows for {len(factors)} factors")
    laws = [
        HaarDirichletMeasure(n, tuple(_rational(x, "'q' entry") for x in qs))
        for n, qs in zip(factors, q)
    ]
    rows, cols, entries = _check_entry_count(_field(obj, "matrix"))
    _check_dim(rows, cols, scenario, "oracle artifact")
    return OracleResult(
        scenario=scenario,
        measure=laws[0] if len(laws) == 1 else ProductMeasure(tuple(laws)),
        class_coefficients=coeffs,
        factor_spectra=factor_spectra,
        matrix=_labelled_rationals(rows, cols, entries),
    )


def estimate_to_json(est: MeanEstimate) -> dict:
    return {
        "matrix": complex_matrix_to_json(est.mean),
        "stderr": [[float(x) for x in row] for row in est.stderr],
        "stderr_real": [[float(x) for x in row] for row in est.stderr_real],
        "stderr_imag": [[float(x) for x in row] for row in est.stderr_imag],
        "stderr_max": est.stderr_max,
        "n_samples": est.n_samples,
        "seed": est.seed,
        "workers": est.workers,
        "measure": est.measure.to_json(),
        "m": est.scenario.power,
        "factors": list(est.scenario.factors),
    }


_ESTIMATE = "estimate artifact"


def _stderr_matrix(obj: dict, name: str, shape: tuple[int, int]) -> np.ndarray:
    rows = _list_of_lists(_field(obj, name, _ESTIMATE), name, _ESTIMATE)
    # a NaN fails both comparisons
    errors = all(type(x) in (int, float) and 0 <= x < math.inf for row in rows for x in row)
    if not errors or [len(row) for row in rows] != [shape[1]] * shape[0]:
        raise ValueError(f"{_ESTIMATE} field {name!r} is not a {shape[0]}x{shape[1]} matrix of finite numbers >= 0")
    return np.array(rows, dtype=float)


def estimate_from_json(obj: dict) -> MeanEstimate:
    if not isinstance(obj, dict):
        raise ValueError(f"{_ESTIMATE} is a {type(obj).__name__}, not an object")

    def integer(name: str, least: int | None = None) -> int:
        value = _json_int(_field(obj, name, _ESTIMATE), name, _ESTIMATE)
        if least is not None and value < least:
            raise ValueError(f"{_ESTIMATE} field {name!r} is {value}, below {least}")
        return value

    mean = complex_matrix_from_json(_field(obj, "matrix", _ESTIMATE))
    measure = measure_from_json(_field(obj, "measure", _ESTIMATE))
    scenario = Scenario(
        factors=_int_list(_field(obj, "factors", _ESTIMATE), "factors", _ESTIMATE),
        power=integer("m"),
    )
    dims = [f.dim for f in factor_laws(measure)]
    if list(scenario.factors) != dims:
        raise ValueError(f"{_ESTIMATE} field 'factors' is {list(scenario.factors)}, but its 'measure' has {dims}")
    _check_dim(*mean.shape, scenario, _ESTIMATE)
    stderr, re, im = (_stderr_matrix(obj, f, mean.shape) for f in ("stderr", "stderr_real", "stderr_imag"))
    if not np.array_equal(stderr, np.maximum(re, im)):
        raise ValueError(f"{_ESTIMATE} field 'stderr' is not the entrywise max of its real and imaginary parts")
    return MeanEstimate(
        mean=mean,
        n_samples=integer("n_samples", MIN_SAMPLES),
        stderr_real=re,
        stderr_imag=im,
        measure=measure,
        scenario=scenario,
        seed=integer("seed"),
        workers=integer("workers", 1),
    )


def _indented(obj, indent: str) -> str:
    """``json.dumps(obj, indent=1, sort_keys=True)``, nested at prefix ``indent``."""
    inner = indent + " "
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            raise TypeError(f"JSON object keys must be str, got {list(obj)!r}")
        brackets = "{}"
        items = (_quote(key) + ": " + _indented(obj[key], inner) for key in sorted(obj))
    elif isinstance(obj, (list, tuple)):
        brackets = "[]"
        try:  # all strings (matrix entries): quote each distinct string once
            memo = {text: _quote(text) for text in dict.fromkeys(obj)}
            items = map(memo.__getitem__, obj)
        except TypeError:  # a number, or an unhashable pair or object
            items = (_indented(x, inner) for x in obj)
    else:
        return json.dumps(obj)
    if not obj:
        return brackets
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + brackets[1]


def dumps_json(obj) -> str:
    """Artifact text: ``json.dumps(obj, indent=1, sort_keys=True) + "\\n"``, byte for byte."""
    return _indented(obj, "") + "\n"


def dump_json(obj: dict, path: str | Path) -> None:
    Path(path).write_text(dumps_json(obj))


def load_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def parse_measure_arg(text: str) -> MeasureSpec:
    """CLI --measure: inline JSON (starts with '{') or a file path."""
    text = text.strip()
    if text.startswith("{"):
        return measure_from_json(json.loads(text))
    return measure_from_json(load_json(text))

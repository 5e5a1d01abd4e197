"""Command-line interface: artifacts, round trips, exit codes."""

import json
import math
from pathlib import Path

from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhomean import jsonio
from rhomean.cli import main
from rhomean.jsonio import (
    any_matrix_to_float,
    complex_matrix_from_json,
    class_key,
    complex_matrix_to_json,
    dumps_json,
    estimate_from_json,
    estimate_to_json,
    load_json,
    oracle_result_from_json,
    oracle_result_to_json,
    rational_matrix_from_json,
    rational_matrix_to_json,
)
from rhomean.montecarlo import estimate_mean
from rhomean.measures import HaarDirichletMeasure, measure_from_json
from rhomean.linalg import Scenario, distinct_entries
from rhomean.oracle import composite_haar_mean, haar_mean, labelled_kron
from rhomean.symmetry import cycle_type, partitions

DATA = Path(__file__).parent / "data"


def per_sigma(result):
    """c_sigma for every sigma in S_m, read off the class coefficients."""
    m = result.scenario.power
    return {s: result.class_coefficients[cycle_type(s)] for s in permutations(range(m))}


def key_permutation(key, m):
    """The permutation a cycle-notation key names, read back as 0-based images."""
    perm = list(range(m))
    for body in key[1:-1].split(")(") if key != "()" else ():
        slots = [int(x) - 1 for x in (body.split(",") if m >= 10 else body)]
        for a, b in zip(slots, slots[1:] + slots[:1]):
            perm[a] = b
    return tuple(perm)


def test_cycle_notation_round_trip():
    assert class_key((1, 1, 1)) == "()"
    assert class_key((2, 1)) == "(12)"
    assert class_key((2, 2)) == "(12)(34)"
    assert class_key((3, 2)) == "(123)(45)"
    # each key names a permutation of its own class, so the reader's
    # key -> class map is one to one
    for m in range(1, 10):
        for ct in partitions(m):
            assert cycle_type(key_permutation(class_key(ct), m)) == ct


def test_cycle_notation_beyond_nine_slots():
    assert class_key((10,)) == "(1,2,3,4,5,6,7,8,9,10)"
    assert class_key((2,) + (1,) * 8) == "(1,2)"
    assert class_key((6, 3, 1)) == "(1,2,3,4,5,6)(7,8,9)"
    assert class_key((1,) * 10) == "()"
    for m in (10, 12):
        for ct in partitions(m):
            assert cycle_type(key_permutation(class_key(ct), m)) == ct


def test_oracle_artifact_round_trips_at_ten_slots():
    from fractions import Fraction

    from rhomean.linalg import Scenario
    from rhomean.measures import HaarDirichletMeasure, measure_from_json
    from rhomean.oracle import OracleResult
    from rhomean.symmetry import partitions

    types = sorted(partitions(10))
    assert len(types) == 42
    class_coefficients = {ct: Fraction(k - 20, 11 + k) for k, ct in enumerate(types)}
    result = OracleResult(
        scenario=Scenario(factors=(2,), power=10),
        measure=HaarDirichletMeasure(n=2),
        class_coefficients=class_coefficients,
        # a labelled stand-in of the artifact's 1024 x 1024 size: these
        # coefficients are no law's mean
        matrix=([Fraction(1, 1024)], np.zeros((1024, 1024), dtype=np.intp)),
    )
    payload = oracle_result_to_json(result)
    assert len(payload["coefficients"]) == 42
    assert "(1,2,3,4,5,6,7,8,9,10)" in payload["coefficients"]
    assert "(1,2,3,4,5,6)(7,8,9)" in payload["coefficients"]
    back = oracle_result_from_json(json.loads(json.dumps(payload)))
    assert back.class_coefficients == class_coefficients
    assert back.scenario == result.scenario
    assert back.measure == result.measure
    values, labels = back.labelled
    assert values == [Fraction(1, 1024)] and labels.shape == (1024, 1024) and not labels.any()


def test_oracle_artifact_keys_one_coefficient_per_class():
    result = haar_mean(2, 5, 0)
    payload = oracle_result_to_json(result)
    assert payload["coefficients_form"] == "class"
    assert set(payload["coefficients"]) == {
        "()", "(12)", "(12)(34)", "(123)", "(123)(45)", "(1234)", "(12345)",
    }
    back = oracle_result_from_json(payload)
    assert back.class_coefficients == result.class_coefficients
    assert back.spectrum() == result.spectrum()


def test_oracle_artifact_reads_only_class_keys():
    result = haar_mean(3, 3, 0)
    payload = json.loads(json.dumps(oracle_result_to_json(result)))
    assert oracle_result_from_json(payload).class_coefficients == result.class_coefficients
    # the schema that listed every sigma in S_m, with no form marker, is not read
    sigma_form = {k: v for k, v in payload.items() if k != "coefficients_form"}
    sigma_form["coefficients"] = {
        "()": "1/10", "(12)": "1/30", "(13)": "1/30", "(23)": "1/30", "(123)": "0", "(132)": "0",
    }
    with pytest.raises(ValueError, match="unknown coefficients_form"):
        oracle_result_from_json(sigma_form)
    with pytest.raises(ValueError, match="unknown coefficients_form"):
        oracle_result_from_json({**payload, "coefficients_form": "orbit"})
    # a key that is not the canonical representative of its class
    noncanonical = dict(payload["coefficients"])
    noncanonical["(13)"] = noncanonical.pop("(12)")
    with pytest.raises(ValueError, match="canonical key"):
        oracle_result_from_json({**payload, "coefficients": noncanonical})
    extra = {**payload["coefficients"], "(13)": payload["coefficients"]["(12)"]}
    with pytest.raises(ValueError, match="canonical key"):
        oracle_result_from_json({**payload, "coefficients": extra})
    missing = {k: v for k, v in payload["coefficients"].items() if k != "(123)"}
    with pytest.raises(ValueError, match="no coefficient"):
        oracle_result_from_json({**payload, "coefficients": missing})


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("coefficients", {"()": 0.1, "(12)": "0"}, "'coefficients'['()'] 0.1"),
        ("coefficients", {"()": "1/10", "(12)": 0}, "'coefficients'['(12)'] 0"),
        ("q", None, "'q'"),
        ("q", [[None, "0"]], "'q' entry None"),
        ("q", [[0.5, "0"]], "'q' entry 0.5"),
        ("m", 2.0, "'m'"),
        ("m", True, "'m'"),
        ("factors", [2.0], "'factors'"),
        ("factors", [True], "'factors'"),
        ("factors", 2, "'factors'"),
        ("factor_spectra", [[[0.5, 1]]], "'factor_spectra' value 0.5"),
        ("factor_spectra", [[["1/2", 1.0]]], "'factor_spectra'"),
        ("factor_spectra", [None], "'factor_spectra'"),
        ("q", [], "'q' has 0 rows for 1 factors"),
        ("q", [["0", "0"], ["0", "0"]], "'q' has 2 rows for 1 factors"),
        # a matrix that is not D x D for D = 2^2
        ("matrix", {"rows": 2, "cols": 2, "entries": ["1/2", "0", "0", "1/2"]}, "'matrix' is 2x2"),
        ("matrix", {"rows": 2, "cols": 8, "entries": ["1/16"] * 16}, "'matrix' is 2x8"),
    ],
)
def test_oracle_artifact_rejects_mistyped_fields(field, value, named):
    payload = json.loads(json.dumps(oracle_result_to_json(haar_mean(2, 2, 0))))
    with pytest.raises(ValueError) as exc:
        oracle_result_from_json({**payload, field: value})
    assert named in str(exc.value)


def test_oracle_artifact_rejects_class_coefficients_on_a_product():
    # a product law has factor spectra and no class coefficients; read with
    # some, its spectrum() failed on unpacking the factors
    single = oracle_result_to_json(haar_mean(2, 2, 0))
    product = json.loads(json.dumps(oracle_result_to_json(composite_haar_mean(Scenario((2, 2), 2)))))
    assert "coefficients" not in product and oracle_result_from_json(product).factor_spectra
    with pytest.raises(ValueError, match=r"'coefficients' is for one law, not factors \[2, 2\]"):
        oracle_result_from_json({**product, "coefficients_form": "class", "coefficients": single["coefficients"]})


@pytest.mark.parametrize("field", ["factors", "m", "q", "matrix"])
def test_oracle_artifact_rejects_missing_fields(field):
    payload = json.loads(json.dumps(oracle_result_to_json(haar_mean(2, 2, 0))))
    del payload[field]
    with pytest.raises(ValueError, match=f"lacks the field '{field}'"):
        oracle_result_from_json(payload)


def test_matrix_json_round_trips():
    mat = np.array([[1 + 2j, 0], [0.5j, -1]])
    assert np.array_equal(complex_matrix_from_json(complex_matrix_to_json(mat)), mat)
    result = haar_mean(2, 2, 0)
    back = oracle_result_from_json(oracle_result_to_json(result))
    assert "mean" not in back.__dict__  # read back labelled; dense only on demand
    assert back.trace() == 1 and "mean" not in back.__dict__
    assert np.all(back.mean == result.mean)
    assert per_sigma(back) == per_sigma(result)
    assert back.scenario == result.scenario
    # distinct strings naming one value read back as one labelled value
    payload = oracle_result_to_json(result)
    payload["matrix"]["entries"][:4] = ["1/2", "2/4", "0", "0/3"]
    values, labels = oracle_result_from_json(payload).labelled
    assert len(set(values)) == len(values)
    assert labels[0, 0] == labels[0, 1] != labels[0, 2] == labels[0, 3]


@st.composite
def few_valued_matrices(draw):
    """Small matrices over a pool of at most four values, ints mixed with Fractions."""
    pool = draw(
        st.lists(
            st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=12)),
            min_size=1,
            max_size=4,
        )
    )
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = draw(st.lists(st.sampled_from(pool), min_size=rows * cols, max_size=rows * cols))
    return np.array(entries, dtype=object).reshape(rows, cols)


@settings(max_examples=60, deadline=None)
@given(few_valued_matrices(), few_valued_matrices())
def test_exact_wire_format_and_kron_match_per_entry_reference(a, b):
    # the per-entry expressions below are the reference the distinct-value code must equal
    obj = rational_matrix_to_json(a)
    assert obj["entries"] == [str(Fraction(x)) for x in a.ravel()]
    back = rational_matrix_from_json(json.loads(json.dumps(obj)))
    reference = np.array([Fraction(x) for x in a.ravel()], dtype=object).reshape(a.shape)
    assert back.shape == a.shape and np.all(back == reference)
    assert all(type(x) is Fraction for x in back.ravel())
    floats = any_matrix_to_float(obj)
    assert floats.dtype == np.float64
    assert floats.tobytes() == reference.astype(np.float64).tobytes()
    fb = np.array([Fraction(x) for x in b.ravel()], dtype=object).reshape(b.shape)
    va, ia = distinct_entries(reference.ravel().tolist())
    vb, ib = distinct_entries(fb.ravel().tolist())
    values, labels = labelled_kron((va, ia.reshape(a.shape)), (vb, ib.reshape(b.shape)))
    assert len(set(values)) == len(values)
    kron = np.array(values, dtype=object)[labels]
    expected = np.kron(reference, fb)
    assert kron.shape == expected.shape and np.all(kron == expected)


def test_estimate_json_round_trip():
    est = estimate_mean(HaarDirichletMeasure(n=2), 2, 1_000, seed=3)
    back = estimate_from_json(estimate_to_json(est))
    assert np.array_equal(back.mean, est.mean)
    assert np.array_equal(back.stderr, est.stderr)
    assert back.measure == est.measure
    assert back.n_samples == est.n_samples
    with pytest.raises(ValueError, match="list, not an object"):
        estimate_from_json([estimate_to_json(est)])


@pytest.fixture(scope="module")
def estimate_payload():
    est = estimate_mean(HaarDirichletMeasure(n=2), 2, 100, seed=3)
    return json.loads(json.dumps(estimate_to_json(est)))


@pytest.mark.parametrize(
    "field", ["matrix", "n_samples", "stderr_imag", "measure", "m", "factors", "seed", "workers"]
)
def test_estimate_artifact_rejects_missing_fields(estimate_payload, field):
    payload = dict(estimate_payload)
    del payload[field]
    with pytest.raises(ValueError, match=f"estimate artifact lacks the field '{field}'"):
        estimate_from_json(payload)


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("n_samples", "lots", "'n_samples'"),
        ("n_samples", 100.0, "'n_samples'"),
        ("seed", True, "'seed'"),
        ("workers", "1", "'workers'"),
        ("m", None, "'m'"),
        ("factors", [2.0], "'factors'"),
        ("factors", 2, "'factors'"),
        ("stderr", [[0.1, 0.1]], "'stderr'"),
        ("stderr_real", [["0.1"] * 4] * 4, "'stderr_real'"),
        ("measure", {"type": "zhsl", "n": 2, "q": None}, "'q'"),
        ("measure", "zhsl", "str, not an object"),
        ("matrix", [1, 2], "list, not an object"),
        # the 4x4 mean of a two-level measure at m = 2
        ("m", 3, "'matrix' is 4x4, not D x D with D = 2^3"),
        ("m", 1, "'matrix' is 4x4, not D x D with D = 2^1"),
        ("factors", [3], "'factors' is [3], but its 'measure' has [2]"),
        ("factors", [2, 2], "'factors' is [2, 2], but its 'measure' has [2]"),
        # values no estimate holds
        ("workers", 0, "'workers' is 0, below 1"),
        ("n_samples", 1, "'n_samples' is 1, below 100"),
        ("stderr", [[-1.0] * 4] * 4, "'stderr' is not a 4x4 matrix of finite numbers >= 0"),
        ("stderr_real", [[0.0] * 3 + [float("nan")]] * 4, "'stderr_real' is not a 4x4 matrix of finite"),
        ("stderr_imag", [[float("inf")] * 4] * 4, "'stderr_imag' is not a 4x4 matrix of finite"),
        ("stderr", [[0.0] * 4] * 4, "'stderr' is not the entrywise max"),
    ],
)
def test_estimate_artifact_rejects_mistyped_fields(estimate_payload, field, value, named):
    with pytest.raises(ValueError) as exc:
        estimate_from_json({**estimate_payload, field: value})
    assert named in str(exc.value)


def test_malformed_measure_is_an_error_line_not_a_traceback(capsys):
    measure = '{"type":"zhsl","n":2,"q":null}'
    assert main(["mean", "--measure", measure, "--m", "2", "--samples", "100"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("rhomean: error:") and "'q'" in err
    assert main(["sample", "--measure", '{"type":"haar-dirichlet","n":2}']) == 1
    assert capsys.readouterr().err.startswith("rhomean: error: unknown measure type")


def test_oracle_command_outputs_published_entries(tmp_path):
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--n", "2", "--m", "2", "--q", "0", "--out", str(out)]) == 0
    payload = load_json(out)
    entries = set(payload["matrix"]["entries"])
    assert entries == {"5/18", "2/9", "1/18", "0"}
    assert payload["coefficients"]["(12)"] == "1/18"
    mat = rational_matrix_from_json(payload["matrix"])
    assert np.all(mat == haar_mean(2, 2, 0).mean)


def test_oracle_command_composite(tmp_path):
    out = tmp_path / "comp.json"
    assert main(["oracle", "--n", "2x3", "--m", "2", "--out", str(out)]) == 0
    payload = load_json(out)
    assert payload["factors"] == [2, 3]
    assert ["1/72", 3] in payload["spectrum"]


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["--n", "3", "--m", "3", "--q=-1/2"], "oracle_n3_m3_q-1_2.json"),
        (["--n", "2x3", "--m", "2", "--q=1/2,-1/3"], "oracle_n2x3_m2_q1_2_-1_3.json"),
    ],
)
def test_oracle_artifact_matches_golden_bytes(tmp_path, argv, golden):
    # the golden files were written by `rhomean oracle --out` before the
    # labelled matrix form; artifacts must stay byte-identical
    out = tmp_path / golden
    assert main(["oracle", *argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


def test_oracle_stdout_matches_golden_bytes(capsys):
    # stdout and --out share one writer
    assert main(["oracle", "--n", "3", "--m", "3", "--q=-1/2"]) == 0
    assert capsys.readouterr().out.encode() == (DATA / "oracle_n3_m3_q-1_2.json").read_bytes()


# strings that the encoder escapes: quotes, backslashes, control and non-ASCII
# characters, including astral ones that become surrogate pairs
_json_text = st.text(
    st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7fé€😀'), st.characters()), max_size=6
)
_json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(),  # includes -0.0, nan and +-inf
        _json_text,
        st.lists(_json_text, max_size=5),  # the emitter's all-strings path
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_json_text, children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_emitter_matches_stdlib_indent_1(value):
    assert dumps_json(value) == json.dumps(value, indent=1, sort_keys=True) + "\n"


def test_emitter_rejects_non_string_keys():
    with pytest.raises(TypeError, match="keys must be str"):
        dumps_json({"a": {1: "x"}})


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--n", "4", "--m", "4"],
        ["mean", "--measure", '{"type":"zhsl","n":2}', "--m", "2", "--samples", "1000",
         "--workers", "1"],
        ["ks", "--m", "6", "--u=-1/2"],
        ["verify", "--case", "n2m2.exact"],
    ],
)
def test_writers_give_the_stdlib_indent_1_bytes(tmp_path, monkeypatch, argv):
    written = []
    dump_json = jsonio.dump_json

    def recording_dump_json(obj, path):
        written.append(obj)
        dump_json(obj, path)

    monkeypatch.setattr(jsonio, "dump_json", recording_dump_json)
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    (payload,) = written
    assert out.read_bytes() == (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode()


def test_ks_command(capsys, tmp_path):
    out = tmp_path / "ks.json"
    assert main(["ks", "--m", "4", "--u", "-2", "--out", str(out)]) == 0
    shown = capsys.readouterr().out
    assert "7/66" in shown and "1/22" in shown and "1/33" in shown
    rows = load_json(out)["rows"]
    assert [r["multiplicity"] for r in rows] == [5, 9, 2]


def test_mean_command_is_byte_reproducible(tmp_path):
    args = [
        "mean", "--measure", '{"type":"zhsl","n":2,"q":[0,0]}',
        "--m", "2", "--samples", "5000", "--seed", "11", "--workers", "2",
    ]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_selection_rule_and_subst_v_commands(tmp_path):
    rational_out = tmp_path / "limit.json"
    assert main(["selection-rule", "--fixture", "n3m2", "--out", str(rational_out)]) == 0
    mat = rational_matrix_from_json(load_json(rational_out))
    assert np.all(mat == haar_mean(3, 2, 0).mean)

    numeric_out = tmp_path / "atpi.json"
    assert main(["subst-v", "--fixture", "n3m2", "--v", str(math.pi), "--out", str(numeric_out)]) == 0
    mat = complex_matrix_from_json(load_json(numeric_out))
    assert abs(mat[0, 2] - 1 / (864 * math.pi)) < 1e-15


def test_spectrum_command(tmp_path):
    oracle_out = tmp_path / "oracle.json"
    main(["oracle", "--n", "3", "--m", "2", "--out", str(oracle_out)])
    # feed the rational matrix artifact back through the spectrum command
    mat_file = tmp_path / "mat.json"
    mat_file.write_text(json.dumps(load_json(oracle_out)["matrix"]))
    spec_out = tmp_path / "spec.json"
    assert main(["spectrum", "--in", str(mat_file), "--tol", "1e-9", "--out", str(spec_out)]) == 0
    clusters = load_json(spec_out)["clusters"]
    assert [(round(c["value"], 12), c["multiplicity"]) for c in clusters] == [
        (round(1 / 12, 12), 3),
        (0.125, 6),
    ]


def test_spectrum_command_reads_artifacts(tmp_path):
    oracle_out = tmp_path / "mean.json"
    assert main(["oracle", "--n", "2", "--m", "2", "--q", "0", "--out", str(oracle_out)]) == 0
    spec_out = tmp_path / "spec.json"
    assert main(["spectrum", "--in", str(oracle_out), "--out", str(spec_out)]) == 0
    clusters = load_json(spec_out)["clusters"]
    assert [(round(c["value"], 12), c["multiplicity"]) for c in clusters] == [
        (round(1 / 6, 12), 1),
        (round(5 / 18, 12), 3),
    ]
    mean_out = tmp_path / "est.json"
    measure = '{"type":"zhsl","n":2,"q":[0,0]}'
    assert main(["mean", "--measure", measure, "--m", "2", "--samples", "1000", "--workers", "1",
                 "--out", str(mean_out)]) == 0
    assert main(["spectrum", "--in", str(mean_out), "--tol", "1e-2", "--out", str(spec_out)]) == 0
    assert sum(c["multiplicity"] for c in load_json(spec_out)["clusters"]) == 4


def test_sample_command(tmp_path):
    out = tmp_path / "rho.json"
    assert main(["sample", "--measure", '{"type":"bloch","u":-2}', "--seed", "5", "--out", str(out)]) == 0
    rho = complex_matrix_from_json(load_json(out))
    assert abs(rho.trace() - 1) < 1e-12


def test_measure_argument_accepts_file_path(tmp_path):
    measure_file = tmp_path / "measure.json"
    measure_file.write_text('{"type":"zhsl","n":2,"q":[0,0]}')
    out = tmp_path / "rho.json"
    assert main(["sample", "--measure", str(measure_file), "--out", str(out)]) == 0
    assert complex_matrix_from_json(load_json(out)).shape == (2, 2)


def test_verify_command(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--case", "n2m2.exact", "--case", "monotone", "--out", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out
    payload = load_json(out)
    assert {r["case"] for r in payload["reports"]} == {"n2m2.exact", "monotone"}
    assert all(r["status"] == "PASS" for r in payload["reports"])


def test_verify_json_says_which_cases_are_gated(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--case", "mc.n2m2", "--samples", "20000", "--out", str(out)]) == 0
    (report,) = load_json(out)["reports"]
    assert report["case"] == "mc.n2m2"
    assert report["gated"] is True


def test_spectrum_command_accepts_symbolic_matrix(tmp_path):
    from rhomean.fixtures import get_fixture
    from rhomean.jsonio import symbolic_matrix_to_json

    mat_file = tmp_path / "sym.json"
    mat_file.write_text(json.dumps(symbolic_matrix_to_json(get_fixture("n3m2").matrix)))
    out = tmp_path / "spec.json"
    assert main(["spectrum", "--in", str(mat_file), "--out", str(out)]) == 0
    clusters = load_json(out)["clusters"]
    assert sorted(c["multiplicity"] for c in clusters) == [1, 1, 1, 1, 2, 3]


def test_usage_and_failure_exit_codes(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--m", "2"])  # missing --n
    assert exc.value.code == 2
    assert main(["oracle", "--n", "2", "--m", "2", "--q", "1"]) == 1  # q >= 1
    # one exponent per factor: three for two factors are counted, not zipped
    assert main(["oracle", "--n", "2x3", "--m", "1", "--q", "0,1/2,1/3"]) == 1
    assert "expected 2 exponents, one per factor, got 3" in capsys.readouterr().err
    assert main(["verify"]) == 2
    assert main(["ks", "--m", "2", "--u", "0", "--d", "-1"]) == 2
    assert main(["ks", "--m", "5", "--u", "0", "--d", "3"]) == 2
    assert main(["oracle", "--n", "2", "--m", "13"]) == 1  # the matrix exceeds the cap
    mean = ["mean", "--measure", '{"type":"bloch","u":-2}', "--m", "2", "--samples", "100"]
    for argv in (
        ["oracle", "--n", "2", "--m", "0"],
        ["oracle", "--n", "2x", "--m", "2"],
        ["oracle", "--n", "2", "--m", "2", "--q", "x"],
        # the family exponent is exact: inf and nan are not rationals
        ["ks", "--m", "2", "--u=-inf"],
        ["ks", "--m", "2", "--u=nan"],
        # a power or sample count below 1 is a usage error, not an empty table
        # or the default budget
        ["ks", "--m", "0", "--u", "0"],
        ["ks", "--m", "-1", "--u", "0"],
        ["verify", "--case", "mc.n3m2", "--samples", "0"],
        ["verify", "--all", "--samples", "0"],
        ["verify", "--all", "--samples", "-5"],
        mean[:-1] + ["0"],
        mean[:-1] + ["-100"],
        # below the estimator's minimum sample count, and a spin label out of range
        mean[:-1] + ["50"],
        ["verify", "--case", "mc.n3m2", "--samples", "99"],
        # a case id is one of verify.CASES
        ["verify", "--case", "nope"],
        # a cluster tolerance is finite and > 0, a substitution parameter finite and nonzero
        ["spectrum", "--in", "x.json", "--tol=nan"],
        ["spectrum", "--in", "x.json", "--tol=inf"],
        ["spectrum", "--in", "x.json", "--tol=-1"],
        ["spectrum", "--in", "x.json", "--tol=0"],
        ["subst-v", "--fixture", "n3m2", "--v", "0"],
        ["subst-v", "--fixture", "n3m2", "--v=nan"],
        ["subst-v", "--fixture", "n3m2", "--v=-inf"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    # a worker count below 1 is a usage error, caught before any process starts
    for argv in (mean + ["--workers", "0"], mean + ["--workers", "-2"], ["verify", "--all", "--workers", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    for env in ("abc", "0"):
        monkeypatch.setenv("RHOMEAN_WORKERS", env)
        assert main(["ks", "--m", "2", "--u", "0"]) == 0  # takes no --workers
        for argv in (mean, ["verify", "--all"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, (env, argv)
    monkeypatch.delenv("RHOMEAN_WORKERS")
    assert main(["sample", "--measure", '{"type":"zhsl"}']) == 1  # no "n"
    assert "'n'" in capsys.readouterr().err
    # the dimension is a JSON integer: neither a float, nor a string, nor a boolean
    for n in ("2.7", '"3"', "true"):
        assert main(["sample", "--measure", '{"type":"zhsl","n":%s}' % n]) == 1, n
        assert "'n'" in capsys.readouterr().err
    capsys.readouterr()


def test_mean_exits_1_when_every_simplex_variate_of_a_draw_underflows(capsys):
    # without the check the estimate was all NaN, written as invalid JSON, with exit 0
    measure = '{"type":"zhsl","n":2,"q":0.999}'
    with pytest.raises(ValueError, match="underflowed to 0"):
        estimate_mean(measure_from_json(json.loads(measure)), 1, 10_000, seed=1)
    args = ["mean", "--measure", measure, "--m", "1", "--samples", "10000", "--seed", "1"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("rhomean: error: Dirichlet exponents 1 - q = [0.001")
    assert captured.out == ""


@pytest.mark.parametrize(
    "matrix, named",
    [
        ({"rows": 1, "cols": 2, "entries": ["1/2", "1/0"]}, "'1/0'"),
        ({"rows": 1, "cols": 2, "entries": ["1/2", "x"]}, "'x'"),
        ({"rows": 1, "cols": 2, "entries": ["1/2", [1, 2]]}, "[1, 2]"),
        ({"rows": 1, "cols": 2, "entries": ["1/2", 3]}, "3"),
        ({"rows": 2, "cols": 2, "entries": ["1", "0", "0"]}, "rows * cols"),
        ({"rows": 2, "cols": 2, "entries": [1, 0, 0, 1]}, "1"),
        ({"rows": 1, "cols": 2, "entries": [[1, 0], [0, 1, 2]]}, "[0, 1, 2]"),
        ({"rows": 1, "cols": 2, "entries": [[1, 0]]}, "rows * cols"),
        ({"rows": 1, "cols": 2, "entries": [{"r": "1", "s": "0"}, {"r": "1/0", "s": "0"}]}, "'1/0'"),
        ({"rows": 1, "cols": 2, "entries": [{"r": "1", "s": "0"}, {"r": "1"}]}, "{'r': '1'}"),
        ({"rows": 2, "cols": 1, "entries": [{"r": "1", "s": "0"}]}, "rows * cols"),
        ({"cols": 2, "entries": ["1/2", "1/2"]}, "'rows'"),
        (["1/2", "1/2"], "list, not an object"),
        ({"rows": "2", "cols": 1, "entries": ["1", "0"]}, "'rows'"),
        ({"rows": 1, "cols": 1, "entries": "1"}, "rows * cols"),
        ({"rows": -1, "cols": -1, "entries": ["1"]}, "'rows' holds -1"),
        ({"rows": 0, "cols": 5, "entries": []}, "'rows' holds 0"),
        ({"rows": 1, "cols": 0, "entries": []}, "'cols' holds 0"),
        ({"rows": 2, "cols": 3, "entries": ["1/6"] * 6}, "shape (2, 3) is not square"),
    ],
)
def test_spectrum_rejects_malformed_matrix_files(tmp_path, capsys, matrix, named):
    path = tmp_path / "bad.json"
    # a list is written as the whole file, which then has no top-level object
    path.write_text(json.dumps(matrix if isinstance(matrix, list) else {"matrix": matrix}))
    assert main(["spectrum", "--in", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("rhomean: error:") and named in err

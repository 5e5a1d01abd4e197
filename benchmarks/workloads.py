"""The benchmark workloads: inputs built from a seed, the timed batch, checks.

Every workload runs the same operations on the same sizes for every seed;
the seed only picks the rational Dirichlet exponents (oracle workloads) or
the Monte Carlo seeds (sampling workloads).  Checks compare against exact references stored
under ``references/`` (see ``make_references.py``), never against the code
under test, so a faster but wrong result counts as a failure.

All library calls go through module attributes (``rm.haar_mean``,
``jsonio.load_json``, ...) so that the tracer's patched functions are the
ones called.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

import numpy as np

import rhomean as rm
from rhomean import cli, jsonio

REF_DIR = Path(__file__).resolve().parent / "references"

#: Dirichlet exponents the seed chooses from, per level count; each set holds
#: an asymmetric vector.  Their cost differs by less than the run-to-run noise.
Q_SETS = {
    2: ("0", "1/3", "-1/2", "1/2,-1/3"),
    3: ("0", "1/2", "-1/3", "1/3,0,-1/2"),
    4: ("0", "1/3", "-1/2", "1/2,-1/3,0,1/3"),
    # per-factor exponents for composite scenarios
    "2x3": ("0", "1/3", "-1/2", "1/2,-1/3"),
    "2x3x2": ("0", "1/3", "-1/2", "1/2,-1/3,0"),
}

#: the eigenspaces.bloch gate: Bloch family u = -2 against the uniform Haar law
BLOCH_U = Fraction(-2)
EIGENVALUE_ID_TOL = 5e-5


def parse_q(text: str):
    parts = text.split(",")
    return Fraction(parts[0]) if len(parts) == 1 else [Fraction(p) for p in parts]


def spectrum_to_json(spec) -> list:
    return [[str(Fraction(v)), int(k)] for v, k in spec]


def fraction_digest(mat) -> str:
    text = ",".join(str(Fraction(x)) for x in np.asarray(mat).ravel())
    return hashlib.sha256(text.encode()).hexdigest()


def array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def rational_from_json(obj: dict) -> np.ndarray:
    return np.array([Fraction(s) for s in obj["entries"]], dtype=object).reshape(
        obj["rows"], obj["cols"]
    )


def rational_to_json(mat) -> dict:
    return {"rows": mat.shape[0], "cols": mat.shape[1], "entries": [str(Fraction(x)) for x in mat.ravel()]}


def spectrum_identities(spec, dim: int) -> list[str]:
    """Sum of multiplicities is the dimension and the mean has unit trace."""
    out = []
    if sum(k for _, k in spec) != dim:
        out.append(f"multiplicities sum to {sum(k for _, k in spec)}, not {dim}")
    if sum(Fraction(v) * k for v, k in spec) != 1:
        out.append("sum of value * multiplicity is not 1")
    return out


def calibrate(repeats: int = 2) -> float:
    """Fastest of a few runs of a fixed kernel that does no rhomean work.

    The kernel touches memory the way the workloads do -- an object array of
    Fractions and a complex einsum tensor power with its mean and squared
    deviations -- so its time follows the machine's speed around each timed
    operation.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 16, 16)) + 1j * rng.standard_normal((8, 16, 16))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.array([Fraction(i, 7) for i in range(8_000)], dtype=object).sum()
        power = np.einsum("bij,bkl->bikjl", a, a).reshape(8, 256, 256)
        np.square(power.real - power.mean(axis=0).real).sum(axis=0)
        best = min(best, time.perf_counter() - t0)
    return best


def timed(fn):
    """(result or Failure, seconds, calibration seconds taken just before)."""
    calibration = calibrate()
    t0 = time.perf_counter()
    out = attempt(fn)
    return out, time.perf_counter() - t0, calibration


class Failure:
    """An operation that raised; its check reports the exception."""

    def __init__(self, exc: BaseException):
        self.text = f"raised {type(exc).__name__}: {exc}"


def attempt(fn):
    try:
        return fn()
    except Exception as exc:  # a failed operation is counted, the batch goes on
        return Failure(exc)


def oracle_timing(timings) -> dict:
    """The oracle has no worker pool: its one-process times are its times."""
    op_s = [t for _, t, _ in timings]
    cal_s = [c for _, _, c in timings]
    return {"op_s": op_s, "cal_s": cal_s, "op_1w_s": op_s, "cal_1w_s": cal_s,
            "wall_s": sum(op_s), "wall_1w_s": sum(op_s), "batch_s": sum(op_s)}


# ---------------------------------------------------------------------------
# oracle workloads
# ---------------------------------------------------------------------------


class OracleSymmetric:
    """Spectra from the Schur-Weyl oracle, where the Gram build over S_m dominates."""

    name = "oracle-symmetric"
    # m = 8 is left out: one 5-9 s call cannot be timed steadily on a shared
    # machine (see README); at m = 7 the Gram build still dominates
    cases = ((2, 5), (2, 6), (2, 7), (3, 5), (3, 6))

    def ops(self, seed: int) -> list[dict]:
        rng = random.Random(f"{self.name}:{seed}")
        return [
            {"key": f"n={n} m={m} q={q}", "n": n, "m": m, "q": q}
            for n, m in self.cases
            for q in [rng.choice(Q_SETS[n])]
        ]

    def run(self, ops, ctx):
        timings = [timed(lambda: rm.haar_mean(op["n"], op["m"], parse_q(op["q"])).spectrum()) for op in ops]
        return [r for r, _, _ in timings], oracle_timing(timings)

    def check(self, op, spec, ref) -> list[str]:
        out = spectrum_identities(spec, op["n"] ** op["m"])
        if spectrum_to_json(spec) != ref["spectrum"]:
            out.append("spectrum differs from the exact reference")
        return out

    def digest(self, spec) -> str:
        return hashlib.sha256(json.dumps(spectrum_to_json(spec)).encode()).hexdigest()


class OracleArtifact:
    """The README path: `rhomean oracle --out`, read back, float spectrum."""

    name = "oracle-artifact"
    # D = 256, 216 and 144: every call stays under a second (see README)
    cases = (("4", 4), ("2x3", 3), ("2x3x2", 2))

    def ops(self, seed: int) -> list[dict]:
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for n, m in self.cases:
            q = rng.choice(Q_SETS[int(n) if n.isdigit() else n])
            out.append({"key": f"n={n} m={m} q={q}", "n": n, "m": m, "q": q})
        return out

    def _one(self, i, op, ctx) -> dict:
        path = ctx.out_dir / f"artifact-{ctx.run_id}-{i}.json"
        try:
            argv = ["oracle", "--n", op["n"], "--m", str(op["m"]), f"--q={op['q']}", "--out", str(path)]
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse reports usage errors by exiting
                rc = exc.code
            if rc != 0:
                raise RuntimeError(f"rhomean {' '.join(argv)} exited with {rc}")
            obj = jsonio.load_json(path)
            result = jsonio.oracle_result_from_json(obj)
            mat = jsonio.any_matrix_to_float(obj["matrix"])
            vals, vecs = rm.hermitian_eig(mat)
            dec = rm.cluster_spectrum(vals, vecs, cluster_tol=1e-9)
            return {"result": result, "spectrum": obj["spectrum"],
                    "multiplicities": list(dec.multiplicities), "bytes": path.stat().st_size}
        finally:
            path.unlink(missing_ok=True)

    def run(self, ops, ctx):
        timings = [timed(lambda: self._one(i, op, ctx)) for i, op in enumerate(ops)]
        results = [r for r, _, _ in timings]
        timing = oracle_timing(timings)
        timing["artifact_bytes"] = sum(r["bytes"] for r in results if isinstance(r, dict))
        return results, timing

    def check(self, op, res, ref) -> list[str]:
        dim = res["result"].scenario.dim
        out = spectrum_identities([(Fraction(v), k) for v, k in res["spectrum"]], dim)
        if res["spectrum"] != ref["spectrum"]:
            out.append("artifact spectrum differs from the exact reference")
        if fraction_digest(res["result"].mean) != ref["digest"]:
            out.append("read-back matrix is not Fraction-identical to the reference")
        if res["multiplicities"] != [k for _, k in ref["spectrum"]]:
            out.append(f"float cluster multiplicities {res['multiplicities']} differ from exact")
        return out

    def digest(self, res) -> str:
        return hashlib.sha256(json.dumps([res["spectrum"], res["multiplicities"]]).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------


def zhsl(n: int, q: str) -> dict:
    return {"type": "zhsl", "n": n, "q": [float(Fraction(q))] * n}


def max_z(est, ref: np.ndarray) -> float:
    """Largest entrywise z-score of the estimate against an exact mean."""
    delta = est.mean - ref.astype(np.float64)
    z = 0.0
    for d, se in ((delta.real, est.stderr_real), (delta.imag, est.stderr_imag)):
        hit = se > 0
        if np.any(~hit & (d != 0)):
            return float("inf")
        if np.any(hit):
            z = max(z, float((np.abs(d[hit]) / se[hit]).max()))
    return z


def clusters(h: np.ndarray, tol: float) -> list[tuple[float, np.ndarray]]:
    """(mean eigenvalue, orthonormal basis) per group of eigenvalues closer than tol."""
    vals, vecs = np.linalg.eigh((h + h.conj().T) / 2)
    groups, start = [], 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > tol:
            groups.append((float(vals[start:i].mean()), vecs[:, start:i]))
            start = i
    return groups


def projector_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a @ a.conj().T - b @ b.conj().T, 2))


class MonteCarlo:
    """A batch of estimate_mean jobs, each run at workers = nproc and at 1."""

    def __init__(self, name: str, jobs: tuple):
        self.name = name
        self.jobs = jobs  # (key, measure JSON, m, samples)

    def ops(self, seed: int) -> list[dict]:
        rng = random.Random(f"{self.name}:{seed}")
        return [
            {"key": key, "measure": measure, "m": m, "samples": samples, "seed": rng.randrange(2**32)}
            for key, measure, m, samples in self.jobs
        ]

    def run(self, ops, ctx):
        results, op_1w_s, cal_1w_s, op_s, cal_s = [], [], [], [], []
        for op in ops:
            spec = rm.measure_from_json(op["measure"])
            args = (spec, op["m"], op["samples"])
            one, t1, c1 = timed(lambda: rm.estimate_mean(*args, seed=op["seed"], workers=1))
            many, tn, cn = timed(lambda: rm.estimate_mean(*args, seed=op["seed"], workers=ctx.nproc))
            results.append((one, many))
            op_1w_s.append(t1)
            cal_1w_s.append(c1)
            op_s.append(tn)
            cal_s.append(cn)
        return results, {
            "op_s": op_s,
            "cal_s": cal_s,
            "op_1w_s": op_1w_s,
            "cal_1w_s": cal_1w_s,
            "wall_s": sum(op_s),
            "wall_1w_s": sum(op_1w_s),
            "batch_s": sum(op_s) + sum(op_1w_s),
        }

    def check(self, op, res, ref) -> list[str]:
        one, many = res
        out = []
        for failed in (one, many):
            if isinstance(failed, Failure):
                return [failed.text]
        same = one.n_samples == many.n_samples and all(
            np.array_equal(getattr(one, f), getattr(many, f))
            for f in ("mean", "stderr_real", "stderr_imag")
        )
        if not same:
            out.append(f"workers=1 and workers={many.workers} estimates differ")
        z = max_z(one, rational_from_json(ref["mean"]))
        if not z <= 5:
            out.append(f"max_z {z:.2f} > 5 against the exact mean")
        if op["measure"]["type"] == "bloch":
            out += self._bloch_check(op, one, ref)
        return out

    @staticmethod
    def _bloch_check(op, est, ref) -> list[str]:
        """The eigenspaces.bloch verify case, against stored exact data.

        Its fixed 5e-5 eigenvalue tolerance is left out: it is met by only
        some seeds even at 10^6 samples.  The max_z gate against the exact
        family mean (``ref["mean"]``) tests the eigenvalues instead.
        """
        m = op["m"]
        tol = 10 * est.stderr_max
        if np.abs(est.mean - est.mean.conj().T).max() > max(1e-10, tol):
            return [f"m={m}: estimate is not Hermitian within {tol:.1e}"]
        found = clusters(est.mean, tol)
        exact = [(Fraction(v), k) for v, k in ref["spectrum"]]
        mults = [b.shape[1] for _, b in found]
        if mults != [k for _, k in exact]:
            return [f"m={m}: cluster multiplicities {mults}"]
        out = []
        haar = clusters(rational_from_json(ref["haar_mean"]).astype(np.float64), 1e-12)
        worst = max(projector_distance(b, bo) for (_, b), (_, bo) in zip(found, haar))
        if worst > 0.05:
            out.append(f"m={m}: eigenspace distance {worst:.3f} > 0.05")
        if m == 4:
            # the eigenvalues identify with the family, not with the Haar law
            for (value, _), fam, (zv, _) in zip(found, ref["family_values"], exact):
                fam, zv = float(Fraction(fam)), float(zv)
                if not (abs(value - fam) < abs(value - zv) and abs(fam - zv) > 10 * EIGENVALUE_ID_TOL):
                    out.append(f"m={m}: eigenvalue {value:.6g} not identified with the family value {fam:.6g}")
        return out

    def digest(self, res) -> str:
        one, _ = res
        return array_digest(one.mean, one.stderr_real, one.stderr_imag)


MC_SAMPLING = MonteCarlo(
    "mc-sampling",
    tuple(
        (f"zhsl n={n} q={q} m={m}", zhsl(n, q), m, samples)
        for n, m, samples in ((2, 1, 100_000), (3, 1, 100_000), (2, 2, 200_000), (3, 2, 200_000))
        for q in ("0", "1/2")
    ),
)

MC_TENSOR = MonteCarlo(
    "mc-tensor",
    tuple(
        (f"bloch u=-2 m={m}", {"type": "bloch", "u": float(BLOCH_U)}, m, 150_000) for m in (2, 3, 4)
    )
    + (
        # whole chunks: 10 x 304, 5 x 488 and 5 x 1543 samples
        ("zhsl n=3 q=0 m=4", zhsl(3, "0"), 4, 3_040),
        ("zhsl n=2 q=0 m=6", zhsl(2, "0"), 6, 2_440),
        ("product 2x3 m=2", {"type": "product", "factors": [zhsl(2, "0"), zhsl(3, "0")]}, 2, 7_715),
    ),
)

WORKLOADS = {w.name: w for w in (OracleSymmetric(), OracleArtifact(), MC_SAMPLING, MC_TENSOR)}


def check_op(workload, op, result, refs) -> list[str]:
    if isinstance(result, Failure):
        return [result.text]
    ref = refs.get(op["key"])
    if ref is None:
        return ["no exact reference for this input"]
    try:
        return workload.check(op, result, ref)
    except Exception as exc:  # a malformed result fails its check
        return [f"check raised {type(exc).__name__}: {exc}"]


def digest_op(workload, result) -> str:
    if isinstance(result, Failure):
        return result.text
    try:
        return workload.digest(result)
    except Exception as exc:
        return f"digest raised {type(exc).__name__}"


def load_refs(name: str) -> dict:
    return json.loads((REF_DIR / f"{name}.json").read_text())


# ---------------------------------------------------------------------------
# traced run: layer boundaries and the counts computed at them
# ---------------------------------------------------------------------------


def partition_count(m: int) -> int:
    p = [1] + [0] * m
    for part in range(1, m + 1):
        for total in range(part, m + 1):
            p[total] += p[total - part]
    return p[m]


def _gram(tr, args, kwargs, result):
    m = args[1] if len(args) > 1 else kwargs["m"]
    tr.count("oracle.gram_pairs", partition_count(m) * factorial(m))


def _haar(tr, args, kwargs, result):
    d, m = result.scenario.dim, result.scenario.power
    tr.count("oracle.index_map_ops", factorial(m) * d)
    tr.count("oracle.dense_entries", d * d)


def _composite(tr, args, kwargs, result):
    tr.count("oracle.dense_entries", result.scenario.dim ** 2)


def _chunk(tr, args, kwargs, result):
    count, mean = result[0], result[1]
    tr.count("montecarlo.chunks", 1)
    tr.count("montecarlo.samples", count)
    tr.count("montecarlo.entries", count * mean.size)
    tr.count("montecarlo.bytes", count * mean.nbytes)


#: public layer calls (and the chunk and Gram-system boundaries) to wrap
TRACE_TARGETS = {
    "symmetry.conjugacy_classes": None,
    "oracle.power_sum_moment": None,
    "oracle._class_coefficients": _gram,
    "oracle.haar_mean": _haar,
    "oracle.exact_spectrum": None,
    "oracle.composite_haar_mean": _composite,
    "linalg.reorder_subsystems": None,
    "linalg.hermitian_eig": None,
    "jsonio.oracle_result_to_json": None,
    "jsonio.dump_json": None,
    "jsonio.load_json": None,
    "jsonio.oracle_result_from_json": None,
    "jsonio.any_matrix_to_float": None,
    "cli.main": None,
    "spectral.cluster_spectrum": None,
    "measures.haar_unitaries": None,
    "measures.simplex_points": None,
    "measures.sample_density_batch": None,
    "montecarlo.estimate_mean": None,
    "montecarlo._chunk_stats": _chunk,
}

#: per-layer metrics that are exact counts computed from sizes, not timings
COMPUTED_COUNTS = (
    "oracle.gram_pairs",
    "oracle.index_map_ops",
    "oracle.dense_entries",
    "jsonio.artifact_bytes",
    "montecarlo.chunks",
    "montecarlo.chunk_size",
    "montecarlo.entries_per_sample",
    "montecarlo.computed_bytes_per_sample",
)


def layer_metrics(tr, timing: dict, nproc: int) -> dict[str, float]:
    """Per-layer figures of one traced pass (seconds are totals over the pass)."""
    c = tr.counts
    out = {
        "symmetry.conjugacy_classes_s": tr.total("symmetry.conjugacy_classes"),
        "oracle.power_sum_moment_s": tr.total("oracle.power_sum_moment"),
        # haar_mean with S_m warm: its own time minus the S_m enumeration below it
        "oracle.haar_mean_s": tr.total("oracle.haar_mean")
        - tr.nested_total("oracle.haar_mean", "symmetry.conjugacy_classes"),
        "oracle.exact_spectrum_s": tr.total("oracle.exact_spectrum"),
        "oracle.composite_haar_mean_s": tr.total("oracle.composite_haar_mean"),
        "oracle.gram_pairs": c.get("oracle.gram_pairs", 0),
        "oracle.dense_entries": c.get("oracle.dense_entries", 0),
        "oracle.index_map_ops": c.get("oracle.index_map_ops", 0),
        "linalg.reorder_subsystems_s": tr.total("linalg.reorder_subsystems"),
        "linalg.hermitian_eig_s": tr.total("linalg.hermitian_eig"),
        "jsonio.oracle_result_to_json_s": tr.total("jsonio.oracle_result_to_json"),
        "jsonio.dump_json_s": tr.total("jsonio.dump_json"),
        "jsonio.load_json_s": tr.total("jsonio.load_json"),
        "jsonio.oracle_result_from_json_s": tr.total("jsonio.oracle_result_from_json"),
        "jsonio.any_matrix_to_float_s": tr.total("jsonio.any_matrix_to_float"),
        "jsonio.artifact_bytes": timing.get("artifact_bytes", 0),
        "cli.main_s": tr.total("cli.main"),
        "cli.main_self_s": tr.total("cli.main") - tr.child_total("cli.main"),
        "spectral.cluster_spectrum_s": tr.total("spectral.cluster_spectrum"),
        "measures.haar_unitaries_s": tr.total("measures.haar_unitaries"),
        "measures.simplex_points_s": tr.total("measures.simplex_points"),
        "measures.sample_density_batch_s": tr.total("measures.sample_density_batch"),
    }
    # Chunk spans come from the workers=1 runs only: pool workers record into
    # their own (discarded) copy of the tracer.
    chunks = tr.durations("montecarlo._chunk_stats")
    samples = c.get("montecarlo.samples", 0)
    out.update(
        {
            "montecarlo.chunk_s.p50": statistics.median(chunks) if chunks else 0.0,
            "montecarlo.chunk_s.p90": statistics.quantiles(chunks, n=10)[-1] if len(chunks) > 1 else 0.0,
            "montecarlo.tensor_reduce_s": sum(chunks)
            - tr.child_total("montecarlo._chunk_stats", "measures.sample_density_batch"),
            "montecarlo.entries_per_sample": c.get("montecarlo.entries", 0) / samples if samples else 0,
            "montecarlo.computed_bytes_per_sample": c.get("montecarlo.bytes", 0) / samples if samples else 0,
            "montecarlo.pool_overhead_s": timing["wall_s"] - sum(chunks) / nproc if chunks else 0.0,
            "montecarlo.chunks": c.get("montecarlo.chunks", 0),
            "montecarlo.chunk_size": samples / c["montecarlo.chunks"] if samples else 0,
            "montecarlo.parallel_efficiency": timing["wall_1w_s"] / (nproc * timing["wall_s"]) if chunks else 0.0,
            "trace.spans": len(tr.spans),
        }
    )
    return out

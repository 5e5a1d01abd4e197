"""Regenerate the exact references the benchmark checks against.

    PYTHONPATH=src python3 benchmarks/make_references.py

Covers every input any seed can produce.  The stored files were made at the
commit that introduced the benchmark; regenerate them only to add inputs,
never to make a changed program pass.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import rhomean as rm  # noqa: E402
from rhomean import families  # noqa: E402
from rhomean.linalg import Scenario  # noqa: E402
from workloads import (  # noqa: E402
    BLOCH_U, MC_SAMPLING, MC_TENSOR, Q_SETS, REF_DIR, OracleArtifact, OracleSymmetric,
    fraction_digest, parse_q, rational_to_json, spectrum_to_json,
)


def oracle_symmetric() -> dict:
    return {
        f"n={n} m={m} q={q}": {"spectrum": spectrum_to_json(rm.haar_mean(n, m, parse_q(q)).spectrum())}
        for n, m in OracleSymmetric.cases
        for q in Q_SETS[n]
    }


def oracle_artifact() -> dict:
    out = {}
    for n, m in OracleArtifact.cases:
        for q in Q_SETS[int(n) if n.isdigit() else n]:
            factors = tuple(int(f) for f in n.split("x"))
            qv = parse_q(q)
            if len(factors) == 1:
                res = rm.haar_mean(factors[0], m, qv)
            else:
                qs = qv if isinstance(qv, list) else [qv] * len(factors)
                res = rm.composite_haar_mean(Scenario(factors=factors, power=m), qs)
            out[f"n={n} m={m} q={q}"] = {
                "digest": fraction_digest(res.mean),
                "spectrum": spectrum_to_json(res.spectrum()),
            }
    return out


def bloch_family_mean(haar, m: int):
    """Exact E[rho^(x m)] of the Bloch family: the family's eigenvalues on the
    Haar mean's eigenspaces (Lagrange projectors), matched in ascending order."""
    spec = haar.spectrum()
    family = sorted(
        (families.bloch_family_eigenvalue_exact(m, d, BLOCH_U), families.spin_multiplicity(m, d))
        for d in range(m // 2 + 1)
    )
    if [k for _, k in family] != [k for _, k in spec]:
        raise SystemExit(f"m={m}: family and Haar eigenspaces do not pair up in order")
    eye = np.eye(haar.mean.shape[0], dtype=object) * Fraction(1)
    mean = eye * 0
    for (v, _), (fv, _) in zip(spec, family):
        proj = eye
        for w, _ in spec:
            if w != v:
                proj = proj.dot(haar.mean - eye * w) / (v - w)
        mean = mean + proj * fv
    return mean, [str(fv) for fv, _ in family]


def monte_carlo(workload) -> dict:
    out = {}
    for key, measure, m, _ in workload.jobs:
        if measure["type"] == "bloch":
            haar = rm.haar_mean(2, m, 0)
            mean, values = bloch_family_mean(haar, m)
            out[key] = {
                "mean": rational_to_json(mean),
                # the Haar (uniform simplex) mean shares the family's eigenspaces
                "haar_mean": rational_to_json(haar.mean),
                "spectrum": spectrum_to_json(haar.spectrum()),
                "family_values": values,
            }
            continue
        if measure["type"] == "zhsl":
            res = rm.haar_mean(measure["n"], m, Fraction(measure["q"][0]))
        else:
            factors = tuple(f["n"] for f in measure["factors"])
            res = rm.composite_haar_mean(Scenario(factors=factors, power=m))
        out[key] = {"mean": rational_to_json(res.mean)}
    return out


def main() -> None:
    REF_DIR.mkdir(exist_ok=True)
    tables = {
        "oracle-symmetric": oracle_symmetric,
        "oracle-artifact": oracle_artifact,
        "mc-sampling": lambda: monte_carlo(MC_SAMPLING),
        "mc-tensor": lambda: monte_carlo(MC_TENSOR),
    }
    for name, make in tables.items():
        path = REF_DIR / f"{name}.json"
        path.write_text(json.dumps(make(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()

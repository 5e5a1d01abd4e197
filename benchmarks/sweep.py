"""Run the benchmark over several seeds and summarize each metric.

    python3 benchmarks/sweep.py --seeds 1-10 --seconds 24 [--workload W ...] [--trace 1] [--out F]

For every workload and metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
quartile distance as a share of the median.  ``--out`` adds the summary to a
JSON file, under ``end_to_end`` or ``per_layer``; ``baseline.json`` in this
directory was made this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import WORKLOADS  # noqa: E402


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else None,
        "n": len(values),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=24)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args()

    summary, meta = {}, {}
    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                return 1
            result = json.loads(out.stdout.splitlines()[-1])
            runs.append(result)
            record = json.loads((ROOT / ".bench_out" / f"result-{workload}-s{seed}-t{args.trace}.json").read_text())
            meta = {k: record["meta"][k] for k in ("nproc", "cpu_model", "versions", "git_commit", "thread_env", "seconds")}
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed={seed} correct={result['correct']} {values}", flush=True)
        metrics = {
            name: dict(summarize([r["metrics"][name]["value"] for r in runs]), unit=unit["unit"])
            for name, unit in runs[0]["metrics"].items()
        }
        summary[workload] = {
            "runs": len(runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics,
        }
        for name, s in metrics.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"  {workload:17s} {name:36s} median {s['median']:.5g} {s['unit']:6s} spread {spread}")
    if args.out:
        # one file holds both modes: the end-to-end and the traced sweep
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        section = "per_layer" if args.trace else "end_to_end"
        doc.setdefault(section, {}).update(summary)
        doc.setdefault("meta", {})[section] = dict(meta, seeds=args.seeds)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""rhomean benchmark: one workload, one seed, a fixed measuring time.

    python3 benchmarks/run.py --workload oracle-symmetric --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each pass of the workload's batch runs in a fresh interpreter (worker.py)
with BLAS/OpenMP pinned to one thread, and passes repeat until ``--seconds``
is used (at least MIN_PASSES).  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
A full record with machine metadata goes to ``.bench_out/``.  Workload and
metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
MIN_PASSES = 3
MIN_SETUP_SAMPLES = 7
#: a run, passes and set-up probes together, must end well inside 180 s
HARD_LIMIT_S = 170.0
#: the calibration kernel's (workloads.calibrate) fastest time on the 2-core
#: Xeon virtual machine the baseline was taken on; wall times are quoted at its speed
REFERENCE_CALIBRATION_S = 0.0218

THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


class RunError(Exception):
    pass


def declared_units(trace: int) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them for this mode."""
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


class Runner:
    def __init__(self, args, nproc: int, deadline: float):
        self.args = args
        self.nproc = nproc
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env.update(THREAD_ENV, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")

    def child(self, run_id: str, trace: bool = False, setup_only: bool = False):
        """Run worker.py once; returns (setup seconds, record or None)."""
        a = self.args
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", a.workload, "--seed", str(a.seed), "--run-id", run_id,
            "--out-dir", str(OUT_DIR), "--nproc", str(self.nproc), "--trace", str(int(trace)),
        ]
        if setup_only:
            cmd.append("--setup-only")
        started = time.monotonic()
        # a session of its own, so a timed-out pass is killed with its pool workers
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True, start_new_session=True
        )
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RunError(f"pass {run_id} exceeded the run's time limit")
        if proc.returncode != 0:
            raise RunError(f"pass {run_id} exited with code {proc.returncode}")
        ready = record = None
        for line in out.splitlines():
            if line.startswith("READY "):
                ready = float(line.split()[1])
            elif line.startswith("RECORD "):
                record = json.loads(line[len("RECORD "):])
        if ready is None or (record is None and not setup_only):
            raise RunError(f"pass {run_id} printed no result")
        return ready - started, record


def median(values):
    return statistics.median(values) if values else 0.0


def fastest(passes, key: str) -> float:
    """Batch time from each operation's fastest pass (before calibration)."""
    return sum(min(times) for times in zip(*(r["timing"][key] for r in passes)))


def run(args) -> dict:
    nproc = len(os.sched_getaffinity(0))
    start = time.monotonic()
    runner = Runner(args, nproc, start + HARD_LIMIT_S)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    passes, setups = [], []
    while True:
        k = len(passes)
        # in a traced run every other pass is untraced, for the overhead figure
        traced = bool(args.trace) and k % 2 == 0
        setup, record = runner.child(f"{tag}-p{k}", trace=traced)
        if Path(record["rhomean_path"]) != ROOT / "src" / "rhomean":
            raise RunError(f"pass imported rhomean from {record['rhomean_path']}, not from src/")
        record["traced"] = traced
        passes.append(record)
        setups.append(setup)
        elapsed = time.monotonic() - start
        projected = elapsed * (len(passes) + 1) / len(passes)
        if projected > HARD_LIMIT_S - 10 or (len(passes) >= MIN_PASSES and projected > args.seconds):
            break
    while len(setups) < MIN_SETUP_SAMPLES and time.monotonic() - start < HARD_LIMIT_S - 10:
        setups.append(runner.child(f"{tag}-setup{len(setups)}", setup_only=True)[0])

    # every pass repeats the same inputs, so outputs must repeat bit for bit
    failures = []
    attempted = 0
    first = {op["key"]: op["digest"] for op in passes[0]["ops"]}
    for i, rec in enumerate(passes):
        for op in rec["ops"]:
            attempted += 1
            problems = list(op["failures"])
            if op["digest"] != first[op["key"]]:
                problems.append("output differs from the first pass")
            if problems:
                failures.append({"pass": i, "op": op["key"], "problems": problems})

    untraced = [r for r in passes if not r["traced"]]
    raw = {"setup_s": median(setups)}
    if untraced:
        raw["op_s"] = fastest(untraced, "op_s")
        raw["op_1w_s"] = fastest(untraced, "op_1w_s")
        raw["calibration_s"] = min(c for r in untraced for c in r["timing"]["cal_s"] + r["timing"]["cal_1w_s"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if args.trace:
        traced = [r for r in passes if r["traced"]]
        attempted += 1
        if any(r["counts"] != traced[0]["counts"] for r in traced):
            failures.append({"op": "computed counts", "problems": ["counts differ between traced passes"]})
        metrics = {
            name: median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]
        }
        batch = lambda rs: min(r["timing"]["batch_s"] for r in rs)
        metrics["trace.overhead_s"] = batch(traced) - batch(untraced) if untraced else 0.0
    else:
        # Other tenants of a shared machine slow the CPU in bursts of seconds
        # and in stretches of minutes.  Times are scaled by the calibration
        # kernel's fastest time in this run against its time on the baseline
        # machine, which takes out most of the slower stretches.
        scale = REFERENCE_CALIBRATION_S / raw["calibration_s"]
        metrics = {
            "setup_s": raw["setup_s"] * scale,
            "wall_s": raw["op_s"] * scale,
            "wall_1w_s": raw["op_1w_s"] * scale,
            "peak_rss_mb": peak_rss_mb,
        }
    units = declared_units(args.trace)
    if set(units) != set(metrics):
        raise RunError(f"metrics {sorted(set(units) ^ set(metrics))} are not both measured and declared")

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "versions": passes[0]["versions"],
        "git_commit": git_commit(),
        "thread_env": THREAD_ENV,
        "passes": len(passes),
        "setup_samples": len(setups),
        "run_seconds_measured": time.monotonic() - start,
        "computed_counts": [],
    }
    if args.trace:
        meta["computed_counts"] = sorted(passes[0]["counts"])
        meta["untraced_targets"] = passes[0]["untraced_targets"]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"meta": meta, "result": result, "failures": failures, "setups": setups,
              "uncalibrated": raw,
              "passes": [{k: v for k, v in r.items() if k != "ops"} for r in passes]}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    print("# " + json.dumps({k: meta[k] for k in ("nproc", "cpu_model", "versions", "git_commit", "seed", "thread_env", "passes")}))
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "rhomean" / "__init__.py").is_file():
        print(f"run.py: no package source at {ROOT / 'src' / 'rhomean'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        result = run(args)
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

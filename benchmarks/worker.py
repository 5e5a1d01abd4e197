"""One benchmark pass in a fresh interpreter; started by run.py.

Protocol on stdout: ``READY <monotonic time>`` once rhomean is imported and
the workload's inputs are built (run.py takes set-up time from it), then, at
the end, one ``RECORD <json>`` line with timings, per-operation check results
and output digests, and -- for a traced pass -- the per-layer figures.
With ``--setup-only`` the pass stops after READY.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--run-id", required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--nproc", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import scipy
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    ops = wl.ops(args.seed)
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    ctx = SimpleNamespace(out_dir=args.out_dir, nproc=args.nproc, run_id=args.run_id)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(args.run_id)
        tracer.install(workloads.TRACE_TARGETS)
    try:
        results, timing = wl.run(ops, ctx)
    finally:
        if tracer is not None:
            tracer.uninstall()

    refs = workloads.load_refs(wl.name)
    record = {
        "timing": timing,
        "ops": [
            {
                "key": op["key"],
                "failures": workloads.check_op(wl, op, res, refs),
                "digest": workloads.digest_op(wl, res),
            }
            for op, res in zip(ops, results)
        ],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": workloads.np.__version__,
            "scipy": scipy.__version__,
            "rhomean": workloads.rm.__version__,
        },
        "rhomean_path": os.path.dirname(workloads.rm.__file__),
    }
    if tracer is not None:
        record["layers"] = workloads.layer_metrics(tracer, timing, args.nproc)
        record["counts"] = {k: record["layers"][k] for k in workloads.COMPUTED_COUNTS}
        record["untraced_targets"] = tracer.missing
        tracer.write(args.out_dir / f"spans-{args.run_id}.jsonl")
    print("RECORD " + json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

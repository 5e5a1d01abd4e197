"""The newest ``BENCH_<parent sha>.json`` at the repository root: its schema, not its values.

Each such file holds the alternating-pair benchmark runs of one change against
its parent commit, so that the trajectory can be read without rerunning
anything.  Workload, metric and unit names are those of ``BENCHMARK.json``.
"""

import json
import re
from datetime import datetime
from numbers import Real
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
WORKLOADS = {w["name"] for w in SPEC["workloads"]}


def _newest() -> tuple[Path, dict]:
    records = [(path, json.loads(path.read_text())) for path in ROOT.glob("BENCH_*.json")]
    assert records, "no BENCH_*.json at the repository root"
    return max(records, key=lambda item: datetime.fromisoformat(item[1]["measured"]))


def _is_count(value, low: int = 0, high: float = float("inf")) -> bool:
    return type(value) is int and low <= value <= high


def test_newest_bench_record_has_the_schema():
    path, record = _newest()
    assert set(record) == {
        "parent", "change", "measured", "command", "method", "claim", "machine", "results"
    }
    assert re.fullmatch(r"[0-9a-f]{40}", record["parent"])
    assert path.name == f"BENCH_{record['parent'][:7]}.json"
    assert datetime.fromisoformat(record["measured"]).tzinfo is not None
    assert all(isinstance(record[k], str) and record[k] for k in ("change", "command", "method"))
    claim = record["claim"]
    if claim is not None:
        assert claim["workload"] in WORKLOADS and claim["metric"] in UNITS
        assert claim["seeds"] and all(_is_count(s) for s in claim["seeds"])

    machine = record["machine"]
    assert set(machine) == {"nproc", "cpu_model", "python", "numpy"}
    assert _is_count(machine["nproc"], 1)
    assert all(isinstance(machine[k], str) and machine[k] for k in ("cpu_model", "python", "numpy"))

    assert record["results"]
    keys = [(r["workload"], r["seed"], r["seconds"]) for r in record["results"]]
    assert len(set(keys)) == len(keys)
    for result in record["results"]:
        assert set(result) == {"workload", "seed", "seconds", "pairs", "metrics", "runs"}
        assert result["workload"] in WORKLOADS and _is_count(result["seed"])
        assert isinstance(result["seconds"], Real) and result["seconds"] > 0
        pairs = result["pairs"]
        assert _is_count(pairs, 1)
        assert set(result["metrics"]) == set(UNITS)
        for name, metric in result["metrics"].items():
            assert set(metric) == {"unit", "parent", "change", "change_won"}
            assert metric["unit"] == UNITS[name]
            assert _is_count(metric["change_won"], 0, pairs)
            for side in ("parent", "change"):
                stats = metric[side]
                assert set(stats) == {"median", "q1", "q3"}
                assert all(isinstance(v, Real) and not isinstance(v, bool) for v in stats.values())
                assert stats["q1"] <= stats["median"] <= stats["q3"], (name, side)
        assert len(result["runs"]) == pairs
        for run in result["runs"]:
            assert set(run) == {"first", "parent", "change"}
            assert run["first"] in ("parent", "change")
            for side in ("parent", "change"):
                outcome = run[side]
                assert set(outcome) == {"correct", "attempted", "failed"}
                assert isinstance(outcome["correct"], bool)
                assert _is_count(outcome["attempted"], 1)
                assert _is_count(outcome["failed"], 0, outcome["attempted"])

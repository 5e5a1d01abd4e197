"""The verification-case machinery (full budgets live in the acceptance suite)."""

import pytest

from rhomean.cli import main
from rhomean.verify import CASES, Budget, Report, run_all, run_case

EXACT_CASES = [cid for cid in CASES if cid not in (
    "mc.m1", "mc.n2m2", "mc.n3m2", "mc.determinism", "eigenspaces.bloch",
    "report.n3m2.pi",
)]


@pytest.mark.parametrize("case_id", EXACT_CASES)
def test_exact_cases_pass(case_id):
    rep = run_case(case_id)
    assert rep.ok, rep.notes
    if case_id.startswith("report."):
        assert rep.status == "REPORT"
        assert rep.notes
    else:
        assert rep.status == "PASS"


def test_mc_cases_small_budget():
    budget = Budget(samples=30_000, seed=0, workers=1)
    for cid in ("mc.m1", "mc.n3m2", "mc.determinism"):
        rep = run_case(cid, budget)
        assert rep.status == "PASS", (cid, rep.notes)


def test_report_case_emits_zscores():
    rep = run_case("report.n3m2.pi", Budget(samples=30_000))
    assert rep.status == "REPORT"
    assert rep.max_z is not None
    assert "pi" in rep.notes


def test_unknown_case():
    with pytest.raises(ValueError):
        run_case("nope")


def test_run_all_quick_budget():
    reports = run_all(Budget(workers=2), quick=True)
    assert {r.case for r in reports} == set(CASES)
    failures = [r.case for r in reports if not r.ok]
    assert not failures, failures
    assert all(r.status == "REPORT" for r in reports if r.case.startswith("report."))


def test_report_json_shape():
    rep = Report(case="x", status="PASS", gated=True, max_z=1.0, notes="n")
    payload = rep.to_json()
    assert set(payload) == {"case", "status", "gated", "max_z", "max_abs_delta", "notes", "seconds"}
    assert payload["gated"] is True
    assert payload["seconds"] is None


def test_run_case_records_wall_seconds():
    rep = run_case("n2m2.exact")
    assert rep.gated
    assert rep.seconds is not None and rep.seconds >= 0
    assert rep.to_json()["seconds"] == rep.seconds


def test_budget_defaults():
    b = Budget()
    assert b.n(123) == 123
    assert Budget(samples=7).n(123) == 7


@pytest.mark.parametrize("samples", [0, -5])
def test_budget_rejects_sample_counts_below_one(samples):
    # 0 once read as "unset" and ran the full budget
    with pytest.raises(ValueError):
        Budget(samples=samples)


@pytest.mark.parametrize("workers", [0, -1])
def test_budget_rejects_worker_counts_below_one(workers):
    # mc.determinism once passed at workers=0, while mc.m1 raised from estimate_mean
    with pytest.raises(ValueError, match=f"^workers must be >= 1, got {workers}$"):
        Budget(samples=2000, workers=workers)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--all", "--workers", str(workers)])
    assert exc.value.code == 2

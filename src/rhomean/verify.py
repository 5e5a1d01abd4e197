"""Verification cases: every published identity, gated or report-only.

Gated cases must pass and fail the whole run when they do not; report cases
always execute and document comparisons that exact unitary invariance cannot
(and is not expected to) reproduce, e.g. the 1/pi entries of the three-level
fixtures against a Monte Carlo mean, or the four-level fixture's splitting of
the symmetric-sector eigenvalue.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import partial

import numpy as np

from . import families, fixtures
from .linalg import Scenario, hermitian_eig
from .measures import BlochBallMeasure, HaarDirichletMeasure
from .montecarlo import convergence_report, estimate_mean
from .oracle import composite_haar_mean, exact_mean, haar_mean
from .spectral import (
    SymbolicEigenvalue,
    cluster_spectrum,
    eigenvector_check,
    selection_rule,
    subspace_distance,
    substitute_v,
)

F = Fraction


@dataclass(frozen=True)
class Report:
    case: str
    status: str  # "PASS" | "FAIL" | "REPORT"
    gated: bool
    max_z: float | None = None
    max_abs_delta: float | None = None
    notes: str = ""
    seconds: float | None = None  # wall time, recorded by run_case

    @property
    def ok(self) -> bool:
        return self.status != "FAIL"

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Budget:
    samples: int | None = None
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.samples is not None and self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.workers < 1:  # as estimate_mean checks, before any case runs
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    def n(self, default: int) -> int:
        return self.samples if self.samples is not None else default


def _gate(case: str, ok: bool, notes: str, **kw) -> Report:
    return Report(case=case, status="PASS" if ok else "FAIL", gated=True, notes=notes, **kw)


def _report(case: str, ok: bool, notes: str, **kw) -> Report:
    return Report(case=case, status="REPORT" if ok else "FAIL", gated=False, notes=notes, **kw)


def _fractions_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.all(a == b))


def _limit_pairs(spectrum) -> list[tuple[Fraction, int]]:
    merged: dict[Fraction, int] = {}
    for ev, mult in spectrum:
        merged[ev.r] = merged.get(ev.r, 0) + mult
    return sorted(merged.items())


# ---------------------------------------------------------------------------
# exact cases
# ---------------------------------------------------------------------------


def case_n2m2_exact(budget: Budget) -> Report:
    fix = fixtures.get_fixture("n2m2")
    result = haar_mean(2, 2, 0)
    ok = _fractions_equal(result.mean, fix.matrix.rpart)
    ok = ok and result.trace() == 1
    return _gate("n2m2.exact", ok, "mean of the two-fold two-level power, entrywise exact")


def case_n2_spectra(budget: Budget) -> Report:
    expected = {
        2: "n2m2",
        3: "n2m3",
        4: "n2m4.eigs",
        5: "n2m5.eigs",
        6: "n2m6.eigs",
    }
    bad = []
    for m, fid in expected.items():
        fix = fixtures.get_fixture(fid)
        want = sorted((ev.r, mult) for ev, mult in fix.spectrum)
        got = haar_mean(2, m, 0).spectrum()
        if got != want:
            bad.append(m)
    return _gate(
        "n2.spectra",
        not bad,
        f"exact value/multiplicity tables for m=2..6{'; mismatch at m=' + str(bad) if bad else ''}",
    )


def case_n5m2_diag(budget: Budget) -> Report:
    fix = fixtures.get_fixture("n5m2.diag")
    mean = haar_mean(5, 2, 0).mean
    ok = all(mean[i, i] == v for i, v in fix.diag.items())
    return _gate("n5m2.diag", ok, "leading diagonal entries of the 25x25 mean")


def _limit_case(budget: Budget, case: str, fixture_id: str, n: int, m: int) -> Report:
    fix = fixtures.get_fixture(fixture_id)
    result = haar_mean(n, m, 0)
    rational = selection_rule(fix.matrix)
    ok = _fractions_equal(rational, result.mean)
    if fix.limit_spectrum is not None:
        want = sorted((F(v), k) for v, k in fix.limit_spectrum)
    else:
        want = _limit_pairs(fix.spectrum)
    ok = ok and result.spectrum() == want
    # float path: cluster the numeric spectrum of the annihilated fixture
    vals, vecs = hermitian_eig(rational.astype(np.float64))
    dec = cluster_spectrum(vals, vecs, 1e-9)
    ok = ok and sorted(dec.multiplicities) == sorted(k for _, k in want)
    return _gate(case, ok, "annihilating the 1/pi entries reproduces the invariant mean")


def case_n6m2_limit(budget: Budget) -> Report:
    fix = fixtures.get_fixture("n6m2.eigs")
    got = composite_haar_mean(Scenario(factors=(2, 3), power=2)).spectrum()
    ok = got == sorted(fix.limit_spectrum)
    return _gate("n6m2.limit", ok, "independent-factor spectrum in the annihilation limit")


def _product_spectrum(rational_spec, symbolic_spec):
    out: dict[SymbolicEigenvalue, int] = {}
    for rv, rmult in rational_spec:
        for ev, mult in symbolic_spec:
            key = SymbolicEigenvalue(rv * ev.r, rv * ev.coef, ev.radicand if ev.coef else 1)
            out[key] = out.get(key, 0) + rmult * mult
    return out


def case_n6m2_full(budget: Budget) -> Report:
    """The 36-dim spectrum equals the product of the factor fixtures' spectra."""
    fix = fixtures.get_fixture("n6m2.eigs")
    two = [(ev.r, mult) for ev, mult in fixtures.get_fixture("n2m2").spectrum]
    three = fixtures.get_fixture("n3m2").spectrum
    predicted = _product_spectrum(two, three)
    stored = {ev: mult for ev, mult in fix.spectrum}
    ok = predicted == stored
    # every published decimal within its printed precision
    values = sorted(fixtures.spectrum_values(fix.spectrum))
    decs = sorted(fix.decimal_spectrum)
    max_dev = 0.0
    for (val, mult), (dval, tol, dmult) in zip(values, decs):
        dev = abs(val - dval)
        max_dev = max(max_dev, dev)
        ok = ok and mult == dmult and dev <= tol
    return _gate(
        "n6m2.full",
        ok,
        "product of factor spectra matches the published 36-dim list",
        max_abs_delta=max_dev,
    )


def case_n12_232_vs_322(budget: Budget) -> Report:
    a = fixtures.get_fixture("n12.232.eigs")
    b = fixtures.get_fixture("n12.322.eigs")
    ok = set(a.spectrum) == set(b.spectrum) and a.limit_spectrum == b.limit_spectrum
    ok = ok and fixtures.spectrum_rational_sum(a.spectrum) == 1
    ok = ok and fixtures.spectrum_pi_parts_cancel(a.spectrum)
    ok = ok and sum(F(v) * k for v, k in a.limit_spectrum) == 1
    return _gate(
        "n12.232.vs.322",
        ok,
        "both 144-dim subsystem orderings give one eigenvalue list; traces exact",
    )


def case_dirichlet(budget: Budget, which: str) -> Report:
    qs = (F(0), F(1, 2))
    ok = True
    notes = []
    for q in qs:
        if which == "n3m2":
            fam = families.dirichlet_family("dirichlet.n3m2", q)
            oracle = haar_mean(3, 2, q)
            ok = ok and _fractions_equal(selection_rule(fam.matrix), oracle.mean)
            ok = ok and _limit_pairs(fam.spectrum) == oracle.spectrum()
            if q == 0:
                ok = ok and fam.matrix == fixtures.get_fixture("n3m2").matrix
        elif which == "n4m2":
            fam = families.dirichlet_family("dirichlet.n4m2", q)
            spec = sorted((ev.r, mult) for ev, mult in fam.spectrum)
            sextet = spec[0]
            oracle_spec = haar_mean(4, 2, q).spectrum()
            ok = ok and sextet == oracle_spec[0] == ((1 - q) / (4 * (5 - 4 * q)), 6)
            ok = ok and sum(v * k for v, k in spec) == 1
            if q == 0:
                fix = fixtures.get_fixture("n4m2")
                ok = ok and fam.matrix == fix.matrix
                ok = ok and spec == sorted((ev.r, m_) for ev, m_ in fix.spectrum)
        else:
            m = {"n2m2": 2, "n2m3": 3}[which]
            fam = families.dirichlet_family(f"dirichlet.{which}", q)
            spec = sorted((ev.r, mult) for ev, mult in fam.spectrum)
            ok = ok and spec == haar_mean(2, m, q).spectrum()
        notes.append(f"q={q}")
    return _gate(f"dirichlet.{which}", ok, "family formulas vs exact means at " + ", ".join(notes))


def case_ks_tables(budget: Budget) -> Report:
    want = [(F(7, 66), 5), (F(1, 22), 9), (F(1, 33), 2)]
    got = [
        (families.bloch_family_eigenvalue_exact(4, d, -2), families.spin_multiplicity(4, d))
        for d in range(3)
    ]
    ok = got == want
    ok = ok and families.bloch_family_eigenvalue_exact(2, 0, -2) == F(5, 18)
    ok = ok and families.bloch_family_eigenvalue_exact(2, 1, -2) == F(1, 6)
    for m in range(1, 9):
        for u in (-2, 0, F(1, 2)):
            total = sum(
                families.bloch_family_eigenvalue_exact(m, d, u) * families.spin_multiplicity(m, d)
                for d in range(m // 2 + 1)
            )
            ok = ok and total == 1
    return _gate("ks.tables", ok, "two-level family eigenvalue/multiplicity tables")


def _ks_spectrum(m: int, u) -> list[tuple[Fraction, int]]:
    """The closed-form table lambda(m, d) x M(m, d), merged by value, ascending."""
    spec: dict[Fraction, int] = {}
    for d in range(m // 2 + 1):
        v = families.bloch_family_eigenvalue_exact(m, d, u)
        spec[v] = spec.get(v, 0) + families.spin_multiplicity(m, d)
    return sorted(spec.items())


def case_bloch_vs_zhsl(budget: Budget) -> Report:
    """The abstract's claim, exactly: the u = -2 Bloch family and the uniform
    Haar x simplex law share eigenvalues for m <= 3 and differ for m > 3."""
    off_table, same = [], []
    for m in range(1, 13):
        bloch = exact_mean(BlochBallMeasure(u=-2), m).spectrum()
        if bloch != _ks_spectrum(m, -2):
            off_table.append(m)
        if bloch == haar_mean(2, m, 0).spectrum():
            same.append(m)
    return _gate(
        "bloch.vs.zhsl",
        not off_table and same == [1, 2, 3],
        f"m=1..12: Bloch u=-2 exact spectra differ from the closed-form tables at "
        f"m={off_table} and equal the ZHSL q=0 spectra at m={same}",
    )


def case_monotone(budget: Budget) -> Report:
    grid = np.linspace(0.01, 10.0, 1000)
    ok = True
    for u in (-2.0, 0.5, 1.5):
        f = families.monotone_function
        ok = ok and abs(f(1.0, u) - 1.0) < 1e-12
        sym = np.abs(f(grid, u) - grid * f(1.0 / grid, u)).max()
        ok = ok and sym < 1e-12 * max(1, np.abs(f(grid, u)).max())
    ok = ok and families.monotone_scan(0.5, grid).is_monotone
    ok = ok and families.monotone_scan(1.5, grid).is_monotone
    rep = families.monotone_scan(-2.0, grid)
    ok = ok and not rep.is_monotone and abs(rep.argmin - 5 / 7) < 1e-6
    return _gate("monotone", ok, "u=1/2, 3/2 monotone; u=-2 non-monotone, argmin 5/7")


def case_marginal(budget: Budget) -> Report:
    mean_a, mean_b, mean_c, norm = families.maximal_marginal_expectations(128)
    dev = max(abs(norm - 1), abs(mean_a - 3 / 7), abs(mean_b - 2 / 7), abs(mean_c - 2 / 7))
    return _gate(
        "marginal",
        dev < 1e-6,
        "two-dimensional simplex marginal of the maximal-metric family",
        max_abs_delta=dev,
    )


def case_vectors_n3m2(budget: Budget) -> Report:
    fix = fixtures.get_fixture("n3m2")
    vecs = fixtures.get_fixture("n3m2.vecs").vectors
    mat_pi = substitute_v(fix.matrix, math.pi)
    ok = True
    worst = 0.0
    for name in ("twelfth", "eighth"):
        vs = vecs[name]
        lam = vs.eigenvalue.value()
        for v in vs.vectors:
            worst = max(worst, eigenvector_check(mat_pi, v, lam))
    iso = vecs["isolated"]
    for vec, ev in zip(iso.vectors, iso.eigenvalues):
        worst = max(worst, eigenvector_check(mat_pi, vec, ev.value()))
    ok = ok and worst <= 1e-12
    # the one-dimensional eigenspaces do not move with v
    for v_param in (math.pi, 1.0, 10.0):
        mat_v = substitute_v(fix.matrix, v_param)
        for vec, ev in zip(iso.vectors, iso.eigenvalues):
            ok = ok and eigenvector_check(mat_v, vec, ev.value(v_param)) <= 1e-10
    # sextet spans the annihilated matrix's 1/8 eigenspace
    rational = selection_rule(fix.matrix).astype(np.float64)
    for vec in vecs["sextet"].vectors:
        ok = ok and eigenvector_check(rational, vec, 1 / 8) <= 1e-12
    # at the two special v values one unrepeated eigenvalue joins the 1/12
    # triplet (count 3 -> 4) and another becomes exactly 1/6
    for v_param in fixtures.N3M2_SPECIAL_V:
        vals = np.linalg.eigvalsh(substitute_v(fix.matrix, v_param))
        n_twelfth = int(np.sum(np.abs(vals - 1 / 12) < 1e-12))
        n_sixth = int(np.sum(np.abs(vals - 1 / 6) < 1e-12))
        ok = ok and n_twelfth == 4 and n_sixth == 1
    return _gate(
        "vectors.n3m2", ok, "published eigenvectors of the 9x9 fixture", max_abs_delta=worst
    )


def case_vectors_n2m3(budget: Budget) -> Report:
    fix = fixtures.get_fixture("n2m3")
    mat = fix.matrix.rpart.astype(np.float64)
    worst = 0.0
    for vs in fix.vectors.values():
        lam = vs.eigenvalue.value()
        for v in vs.vectors:
            worst = max(worst, eigenvector_check(mat, v, lam))
    return _gate(
        "vectors.n2m3",
        worst <= 1e-12,
        "published eigenvectors of the 8x8 mean",
        max_abs_delta=worst,
    )


def case_vectors_n3m3(budget: Budget) -> Report:
    fix = fixtures.get_fixture("n3m3.partial")
    rational = selection_rule(fix.matrix).astype(np.float64)
    iso = fix.vectors["sixtieth"]
    worst = max(
        eigenvector_check(rational, v, iso.eigenvalue.value()) for v in iso.vectors
    )
    return _gate(
        "vectors.n3m3",
        worst <= 1e-12,
        "isolated eigenvector of the annihilated 27x27 mean",
        max_abs_delta=worst,
    )


def _even_poly_roots(coeffs: tuple[int, ...]) -> np.ndarray:
    """Real roots y of sum_k c_k y^(2k) = 0, ascending."""
    z_roots = np.roots(list(reversed([float(c) for c in coeffs])))
    roots = []
    for z in z_roots:
        if abs(z.imag) < 1e-9 * max(1.0, abs(z.real)) and z.real > 0:
            roots.extend([-math.sqrt(z.real), math.sqrt(z.real)])
    return np.sort(np.array(roots))


def case_poly_n3m3(budget: Budget) -> Report:
    fix = fixtures.get_fixture("n3m3.partial")
    ok = True
    # paired eigenvalues: y = (7 - 240 lambda) pi
    lam = np.sort((7 - _even_poly_roots(fixtures.N3M3_PAIR_POLY) / math.pi) / 240)
    paired = sorted(
        ev.value() for ev, mult in fix.spectrum if ev.coef != 0 and ev.r == F(7, 240)
    )
    dev_pairs = float(np.abs(lam - np.array(paired)).max())
    ok = ok and dev_pairs <= 1e-10
    # isolated eigenvalues: y = (31 - 600 lambda) pi
    lam = np.sort((31 - _even_poly_roots(fixtures.N3M3_ISOLATED_POLY) / math.pi) / 600)
    decs = np.array(sorted(v for v, _, _ in fix.decimal_spectrum))
    dev_iso = float(np.abs(lam - decs).max())
    ok = ok and dev_iso <= 5e-7
    lo, hi = fixtures.N3M3_ISOLATED_EXTREMES
    ok = ok and abs(lam[0] - lo.value()) <= 1e-10 and abs(lam[-1] - hi.value()) <= 1e-10
    return _gate(
        "poly.n3m3",
        ok,
        "roots of the published even polynomials reproduce the eigenvalue lists",
        max_abs_delta=max(dev_pairs, dev_iso),
    )


# ---------------------------------------------------------------------------
# Monte Carlo cases
# ---------------------------------------------------------------------------


def _estimate(budget: Budget, spec, m: int, default: int, workers: int | None = None):
    """The case's estimate at ``budget``; ``default`` samples unless overridden."""
    workers = budget.workers if workers is None else workers
    return estimate_mean(spec, m, budget.n(default), seed=budget.seed, workers=workers)


def case_mc_m1(budget: Budget) -> Report:
    ok = True
    worst = 0.0
    for n in (2, 3):
        est = _estimate(budget, HaarDirichletMeasure(n=n), 1, 100_000)
        rep = convergence_report(est, np.eye(n) / n)
        ok = ok and rep.max_z <= 5
        worst = max(worst, rep.max_z)
    return _gate("mc.m1", ok, "single-power means converge to the fully mixed state", max_z=worst)


def case_mc_m2(budget: Budget, n: int, default: int, max_delta: float = math.inf) -> Report:
    est = _estimate(budget, HaarDirichletMeasure(n=n), 2, default)
    rep = convergence_report(est, haar_mean(n, 2, 0).mean_float())
    return _gate(
        f"mc.n{n}m2",
        rep.max_z <= 5 and rep.max_abs_delta <= max_delta,
        f"{est.n_samples} samples vs exact mean",
        max_z=rep.max_z,
        max_abs_delta=rep.max_abs_delta,
    )


def case_mc_determinism(budget: Budget) -> Report:
    # one worker against the run's own count (2 if that is 1), so the run keeps its pool
    workers = max(budget.workers, 2)
    spec = HaarDirichletMeasure(n=2)
    a, b, c = (_estimate(budget, spec, 2, 20_000, workers=w) for w in (1, 1, workers))
    ok = (
        np.array_equal(a.mean, b.mean)
        and np.array_equal(a.stderr, b.stderr)
        and np.array_equal(a.mean, c.mean)
        and np.array_equal(a.stderr, c.stderr)
    )
    return _gate("mc.determinism", ok, f"bitwise identical across runs and at 1 and {workers} workers")


#: identification tolerance for matching Monte Carlo cluster eigenvalues to
#: their closed forms; the exact two-family gaps all exceed 10x this value
EIGENVALUE_ID_TOL = 5e-5


def case_eigenspaces_bloch(budget: Budget) -> Report:
    """Spherically symmetric families share eigenspaces, not eigenvalues."""
    ok = True
    worst_dist = 0.0
    notes = []
    for m in (2, 3, 4):
        est = _estimate(budget, BlochBallMeasure(u=-2.0), m, 1_000_000)
        vals, vecs = hermitian_eig(est.mean, tol=max(1e-10, 10 * est.stderr_max))
        dec = cluster_spectrum(vals, vecs, cluster_tol=10 * est.stderr_max)
        oracle = haar_mean(2, m, 0)
        spec = oracle.spectrum()
        if dec.multiplicities != tuple(k for _, k in spec):
            ok = False
            notes.append(f"m={m}: multiplicities {dec.multiplicities}")
            continue
        # eigenspaces coincide across the two families
        vals_o, vecs_o = hermitian_eig(oracle.mean_float())
        dec_o = cluster_spectrum(vals_o, vecs_o, 1e-12)
        for cl, cl_o in zip(dec.clusters, dec_o.clusters):
            d = subspace_distance(cl.basis, cl_o.basis)
            worst_dist = max(worst_dist, d)
            ok = ok and d <= 0.05
        if m == 4:
            # eigenvalues themselves differ between the families
            ks_vals = sorted(
                (float(families.bloch_family_eigenvalue_exact(4, d, -2)), d) for d in range(3)
            )
            for cl, (ks_val, d), (zv, _) in zip(dec.clusters, ks_vals, spec):
                gap = abs(ks_val - float(zv))
                ok = ok and abs(cl.value - ks_val) <= EIGENVALUE_ID_TOL
                ok = ok and abs(cl.value - ks_val) < abs(cl.value - float(zv))
                ok = ok and gap > 10 * EIGENVALUE_ID_TOL
    detail = "shared invariant eigenspaces; m=4 eigenvalues separate the families"
    if notes:
        detail += "; " + "; ".join(notes)
    return _gate("eigenspaces.bloch", ok, detail, max_abs_delta=worst_dist)


# ---------------------------------------------------------------------------
# report-only cases
# ---------------------------------------------------------------------------


def case_report_n3m2_pi(budget: Budget) -> Report:
    """Monte Carlo (exact Haar) vs the published 9x9 matrix including 1/pi parts.

    Unitary invariance forces the exact mean into the permutation span, which
    has zeros where the fixture carries rational/pi entries; at high sample
    counts the Monte Carlo mean resolves this and rejects the 1/pi entries.
    """
    fix = fixtures.get_fixture("n3m2")
    est = _estimate(budget, HaarDirichletMeasure(n=3), 2, 200_000)
    rep_fixture = convergence_report(est, substitute_v(fix.matrix, math.pi))
    rep_oracle = convergence_report(est, haar_mean(3, 2, 0).mean_float())
    pi_cells = int((fix.matrix.spart != 0).sum())
    notes = (
        f"vs fixture (pi terms kept): max_z={rep_fixture.max_z:.2f}, "
        f"{rep_fixture.n_entries_over_5} of {pi_cells} pi-cells rejected at z>5; "
        f"vs invariant mean: max_z={rep_oracle.max_z:.2f}; the sampled measure "
        "is exactly Haar, so the 1/pi structure is a property of the published "
        "angular parameterization, not of the invariant average"
    )
    return _report(
        "report.n3m2.pi",
        True,
        notes,
        max_z=rep_fixture.max_z,
        max_abs_delta=rep_fixture.max_abs_delta,
    )


def case_report_n4m2_split(budget: Budget) -> Report:
    fix = fixtures.get_fixture("n4m2")
    oracle = haar_mean(4, 2, 0)
    spec_o = oracle.spectrum()  # [(1/20, 6), (7/100, 10)]
    fix_spec = sorted((ev.r, mult) for ev, mult in fix.spectrum)
    sextet_match = fix_spec[0] == spec_o[0]
    sym_sector = [(v, k) for v, k in fix_spec[1:]]
    sym_total = sum(v * k for v, k in sym_sector)
    delta = oracle.mean - fix.matrix.rpart
    max_dev = max(abs(float(x)) for x in delta.ravel())
    notes = (
        f"antisymmetric sextet 1/20 matches exactly: {sextet_match}; published "
        f"symmetric sector splits the invariant tenfold eigenvalue {spec_o[1][0]} "
        f"into {len(sym_sector)} values with exact weighted sum {sym_total} "
        f"(= 10 x 7/100: {sym_total == spec_o[1][0] * 10}); "
        f"max entry deviation from the invariant mean {max_dev:.3e}"
    )
    return _report("report.n4m2.split", sextet_match, notes, max_abs_delta=max_dev)


def case_report_n12_limit(budget: Budget) -> Report:
    fix = fixtures.get_fixture("n12.232.eigs")
    spec_232 = composite_haar_mean(Scenario(factors=(2, 3, 2), power=2)).spectrum()
    spec_322 = composite_haar_mean(Scenario(factors=(3, 2, 2), power=2)).spectrum()
    orderings_agree = spec_232 == spec_322
    published = sorted((F(v), k) for v, k in fix.limit_spectrum)
    match = spec_232 == published
    notes = (
        f"factorization prediction {spec_232} vs published limit list "
        f"{published}: match={match}; both subsystem orderings agree: "
        f"{orderings_agree}; the published 144-dim limit multiplicities are "
        "inconsistent with the product-measure factorization that the 36-dim "
        "scenario obeys -- documented, not adjudicated"
    )
    return _report("report.n12.limit", orderings_agree, notes)


def case_report_n3m4_diag(budget: Budget) -> Report:
    fix = fixtures.get_fixture("n3m4.partial")
    mean = haar_mean(3, 4, 0).mean
    counts: dict[Fraction, int] = {}
    for i in range(81):
        counts[mean[i, i]] = counts.get(mean[i, i], 0) + 1
    published = {v: k for v, k in fix.diag_counts}
    diag_match = counts == published
    pi_cells = [(i, j) for (i, j) in zip(*np.nonzero(fix.matrix.spart))]
    oracle_zero = all(mean[i, j] == 0 for i, j in pi_cells)
    notes = (
        f"published diagonal value/count table matches the exact mean: {diag_match}; "
        f"the published 1/pi cells sit where the invariant mean is exactly zero: "
        f"{oracle_zero}"
    )
    return _report("report.n3m4.diag", diag_match, notes)


def case_report_n4m3(budget: Budget) -> Report:
    formulas = fixtures.n4m3_entry_formulas()
    mean0 = haar_mean(4, 3, 0).mean
    mean_h = haar_mean(4, 3, F(1, 2)).mean
    lines = []
    for (i, j), (formula, flagged) in sorted(formulas.items()):
        if flagged:
            lines.append(f"({i},{j}) flagged (garbled numerator), excluded")
            continue
        for q, mean in ((F(0), mean0), (F(1, 2), mean_h)):
            pub = formula(q)
            ora = mean[i - 1, j - 1]
            lines.append(f"({i},{j}) q={q}: published {pub} vs invariant {ora} match={pub == ora}")
    return _report("report.n4m3", True, "; ".join(lines))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

CASES = {
    "n2m2.exact": case_n2m2_exact,
    "n2.spectra": case_n2_spectra,
    "n5m2.diag": case_n5m2_diag,
    "n3m2.limit": partial(_limit_case, case="n3m2.limit", fixture_id="n3m2", n=3, m=2),
    "n3m3.limit": partial(_limit_case, case="n3m3.limit", fixture_id="n3m3.partial", n=3, m=3),
    "n6m2.limit": case_n6m2_limit,
    "n6m2.full": case_n6m2_full,
    "n12.232.vs.322": case_n12_232_vs_322,
    "dirichlet.n2m2": partial(case_dirichlet, which="n2m2"),
    "dirichlet.n2m3": partial(case_dirichlet, which="n2m3"),
    "dirichlet.n3m2": partial(case_dirichlet, which="n3m2"),
    "dirichlet.n4m2": partial(case_dirichlet, which="n4m2"),
    "ks.tables": case_ks_tables,
    "bloch.vs.zhsl": case_bloch_vs_zhsl,
    "monotone": case_monotone,
    "marginal": case_marginal,
    "vectors.n3m2": case_vectors_n3m2,
    "vectors.n2m3": case_vectors_n2m3,
    "vectors.n3m3": case_vectors_n3m3,
    "poly.n3m3": case_poly_n3m3,
    "mc.m1": case_mc_m1,
    "mc.n2m2": partial(case_mc_m2, n=2, default=1_000_000, max_delta=3e-3),
    "mc.n3m2": partial(case_mc_m2, n=3, default=200_000),
    "mc.determinism": case_mc_determinism,
    "eigenspaces.bloch": case_eigenspaces_bloch,
    "report.n3m2.pi": case_report_n3m2_pi,
    "report.n4m2.split": case_report_n4m2_split,
    "report.n12.limit": case_report_n12_limit,
    "report.n3m4.diag": case_report_n3m4_diag,
    "report.n4m3": case_report_n4m3,
}

#: the sampling cases' budgets under verify --all, unless overridden
_QUICK_SAMPLES = {
    "mc.m1": 50_000,
    "mc.n2m2": 200_000,
    "mc.n3m2": 100_000,
    "mc.determinism": 20_000,
    "eigenspaces.bloch": 150_000,
    "report.n3m2.pi": 100_000,
}


def run_case(case_id: str, budget: Budget | None = None) -> Report:
    if case_id not in CASES:
        raise ValueError(f"unknown case {case_id!r}; known: {sorted(CASES)}")
    t0 = time.perf_counter()
    report = CASES[case_id](budget or Budget())
    return replace(report, seconds=time.perf_counter() - t0)


def run_all(budget: Budget | None = None, quick: bool = True) -> list[Report]:
    """Run every case; with quick=True the sampling cases use trimmed budgets.

    Quick budgets keep `verify --all` interactive; the acceptance suite runs
    the sampling cases at their full published budgets.
    """
    budget = budget or Budget()
    reports = []
    for case_id in CASES:
        b = budget
        if quick and budget.samples is None and case_id in _QUICK_SAMPLES:
            b = replace(budget, samples=_QUICK_SAMPLES[case_id])
        reports.append(run_case(case_id, b))
    return reports

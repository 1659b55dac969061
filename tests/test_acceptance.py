"""Acceptance suite: one test per release gate, each printing a PASS/FAIL
line with its measured runtime.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

The travel-bound recovery-rate gate (criterion 5b) is known not to hold
with the shipped path catalog; see the README's known-red note.  It is
asserted as stated rather than loosened.
"""

import math
import time

import numpy as np
import pytest

from odflow import (
    ConeProblem,
    StandardLP,
    TrialConfig,
    build_dynamic_system,
    build_static_incidence,
    estimate_l1,
    estimate_l2,
    get_fixture,
    grid_path_count,
    grid_paths_max_turns,
    grid_turn_fraction,
    run_noisy_cdf,
    run_recovery_sweep,
    run_vmt_sweep,
    solve_cone,
    solve_lp,
)
from odflow.cli import main as cli_main
from odflow.fixtures import SIX_LINKS_A, SUPPORT_3SPARSE, SUPPORT_4SPARSE
from conftest import FOURZONE_MATRIX, TRIANGLE_DYNAMIC_COLUMNS, TRIANGLE_MATRIX
from oracles import brute_force_grid_paths, grid_rows, lp_oracle


def report(name: str, ok: bool, detail: str, started: float, budget: float):
    elapsed = time.monotonic() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its runtime budget"
    return ok


def four_sparse_truth(rng):
    # Flow magnitudes are a free choice; they are drawn with bounded ratios
    # because the l2 baseline's *relative* error dips below the 0.1 gate
    # when one OD flow is more than about 25x smaller than the others
    # (its misallocated mass stops mattering to the norm).
    x = np.zeros(14)
    f1, f2, f3 = rng.uniform(10.0, 100.0, size=3)
    x[1], x[7] = f1, f2
    x[10], x[13] = 0.25 * f3, 0.75 * f3
    return x


def test_criterion_1_matrix_fixtures():
    started = time.monotonic()
    fig1 = get_fixture("fig1")
    fig2 = get_fixture("fig2")
    ms1 = build_static_incidence(
        fig1.table, [l.id for l in fig1.network.links], fig1.network
    )
    ok = np.array_equal(ms1.matrix, TRIANGLE_MATRIX)
    ms2 = build_static_incidence(
        fig2.table, [l.id for l in fig2.network.links], fig2.network
    )
    ok &= np.array_equal(ms2.matrix, FOURZONE_MATRIX)
    dyn = build_dynamic_system(
        fig1.table, fig1.network, grid_rows([l.id for l in fig1.network.links], [0])
    )
    ok &= dyn.matrix.shape == (4, 10)
    ok &= set(dyn.col_labels) == set(TRIANGLE_DYNAMIC_COLUMNS)
    for j, label in enumerate(dyn.col_labels):
        ok &= list(dyn.matrix[:, j]) == TRIANGLE_DYNAMIC_COLUMNS[label]
    assert report(
        "criterion 1 (matrix fixtures)", ok,
        "4x7, 10x14 exact; 4x10 dynamic pattern up to column order",
        started, budget=1.0,
    )


def test_criterion_2_six_count_recovery():
    started = time.monotonic()
    fig2 = get_fixture("fig2")
    ms = build_static_incidence(fig2.table, SIX_LINKS_A, fig2.network)
    rng = np.random.default_rng(20_240_001)
    l1_hits = l2_fails = 0
    trials = 100
    for _ in range(trials):
        x = four_sparse_truth(rng)
        y = ms.matrix @ x
        nrm = float(np.linalg.norm(x))
        r1 = estimate_l1(ms, y)
        if float(np.linalg.norm(r1.allocation.x - x)) <= 1e-6 * nrm:
            l1_hits += 1
        r2 = estimate_l2(ms, y)
        if float(np.linalg.norm(r2.allocation.x - x)) > 0.1 * nrm:
            l2_fails += 1
    ok = l1_hits == trials and l2_fails == trials
    assert report(
        "criterion 2 (six-count recovery)", ok,
        f"l1 exact {l1_hits}/{trials}, l2 inexact {l2_fails}/{trials}",
        started, budget=5.0,
    )


def test_criterion_3_sweep_properties():
    started = time.monotonic()
    trials = 500
    cfg = TrialConfig(fixture="fig2", trials=trials, seed=31_416)
    fixed = run_recovery_sweep(
        cfg, m_grid=range(4, 11), supports=[SUPPORT_3SPARSE, SUPPORT_4SPARSE]
    )
    random_s = run_recovery_sweep(
        cfg, m_grid=range(5, 11), supports=[3, 4, 5]
    )
    all_points = fixed.points + random_s.points

    nesting_ok = all(
        p.rate_total >= p.rate_od >= p.rate_path for p in all_points
    )

    def series(report_, label):
        pts = sorted(
            (p for p in report_.points if p.support_label == label),
            key=lambda p: p.m,
        )
        return pts

    monotone_ok = True
    for rep in (fixed, random_s):
        labels = {p.support_label for p in rep.points}
        for label in labels:
            pts = series(rep, label)
            for a, b in zip(pts, pts[1:]):
                band = 3 * (a.stderr("path_alloc") + b.stderr("path_alloc"))
                if b.rate_path < a.rate_path - band:
                    monotone_ok = False

    def dominance(rep, label3, label4):
        three = {p.m: p for p in series(rep, label3)}
        four = {p.m: p for p in series(rep, label4)}
        for m in set(three) & set(four):
            band = 3 * (three[m].stderr("path_alloc") + four[m].stderr("path_alloc"))
            if three[m].rate_path < four[m].rate_path - band:
                return False
        return True

    dominance_ok = dominance(
        fixed, "fixed" + str(SUPPORT_3SPARSE), "fixed" + str(SUPPORT_4SPARSE)
    ) and dominance(random_s, "S=3", "S=4")

    full_rates = [
        p.rate_path
        for p in fixed.points
        if p.m == 10
    ]
    full_ok = all(rate >= 0.95 for rate in full_rates)

    ok = nesting_ok and monotone_ok and dominance_ok and full_ok
    assert report(
        "criterion 3 (sweep properties)", ok,
        f"nesting={nesting_ok} monotone={monotone_ok} "
        f"dominance={dominance_ok} full-measurement rates={full_rates}",
        started, budget=120.0,
    )


def test_criterion_4_noisy_comparison():
    started = time.monotonic()
    trials = 1000
    quantiles = (0.25, 0.5, 0.75)
    outcomes = []
    for support, nu in ((SUPPORT_3SPARSE, 0.1), (SUPPORT_4SPARSE, 0.02)):
        cfg = TrialConfig(fixture="fig2", trials=trials, seed=27_182)
        rep = run_noisy_cdf(cfg, support, 10, nu)   # delta defaults to nu * sqrt(m)
        med_ok = rep.quantile("l1", 0.5) < rep.quantile("l2", 0.5)
        dom_ok = all(
            rep.quantile("l1", q) <= rep.quantile("l2", q) for q in quantiles
        )
        outcomes.append((med_ok, dom_ok, rep.infeasible_trials,
                         rep.quantile("l1", 0.5), rep.quantile("l2", 0.5)))
    ok = all(m and d for m, d, *_ in outcomes)
    detail = "; ".join(
        f"median l1={m1:.4g} vs l2={m2:.4g} (skipped {inf})"
        for _, _, inf, m1, m2 in outcomes
    )
    assert report(
        "criterion 4 (noisy comparison)", ok, detail, started, budget=300.0
    )


@pytest.fixture(scope="module")
def vmt_report():
    cfg = TrialConfig(fixture="nguyen", trials=500, seed=16_180)
    return run_vmt_sweep(cfg, m_grid=[18, 22, 26], recovery_tol=0.001)


def test_criterion_5a_travel_bound_sandwich(vmt_report):
    started = time.monotonic()
    violations = sum(p.sandwich_violations for p in vmt_report.points)
    ok = violations == 0
    assert report(
        "criterion 5a (travel-bound sandwich)", ok,
        f"violations={violations} over {[p.m for p in vmt_report.points]}",
        started, budget=300.0,
    )


def test_criterion_5b_recovery_rate_window(vmt_report):
    """Known not to hold for the shipped 66-path catalog; asserted as
    stated.  Every enumerated stand-in for the unpublished route list puts
    the M=22 recovery rate far below the target window (see the README's
    known-red note)."""
    started = time.monotonic()
    point = next(p for p in vmt_report.points if p.m == 22)
    ok = 0.65 <= point.rate_min <= 0.95 and 0.65 <= point.rate_max <= 0.95
    assert report(
        "criterion 5b (recovery-rate window at M=22)", ok,
        f"rate_min={point.rate_min:.3f} rate_max={point.rate_max:.3f} "
        f"unbounded={point.unbounded_count}/{point.trials}",
        started, budget=300.0,
    )


def test_criterion_5c_failure_ratio_window(vmt_report):
    started = time.monotonic()
    point = next(p for p in vmt_report.points if p.m == 22)
    ok = 0.9 <= point.mean_ratio_min <= 1.1 and 0.9 <= point.mean_ratio_max <= 1.1
    ordered = all(
        (math.isnan(p.mean_ratio_min) or p.mean_ratio_min <= 1.0 + 1e-9)
        and (math.isnan(p.mean_ratio_max) or p.mean_ratio_max >= 1.0 - 1e-9)
        for p in vmt_report.points
    )
    ok = ok and ordered
    assert report(
        "criterion 5c (failure-ratio window at M=22)", ok,
        f"mean_ratio_min={point.mean_ratio_min:.4f} "
        f"mean_ratio_max={point.mean_ratio_max:.4f} ordered={ordered}",
        started, budget=300.0,
    )


def test_criterion_6_solver_cross_checks():
    started = time.monotonic()
    rng = np.random.default_rng(60_221)
    lp_ok = 0
    for _ in range(200):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(4, 13))
        while True:
            A = (rng.random((m, n)) < 0.5).astype(float)
            if A.any():
                break
        x0 = np.where(rng.random(n) < 0.4, rng.uniform(0.0, 5.0, n), 0.0)
        lp = StandardLP(c=rng.uniform(0.1, 2.0, n), A=A, b=A @ x0)
        got = solve_lp(lp)
        want = lp_oracle(lp)
        if got.status == want.status == "optimal" and abs(
            got.objective - want.objective
        ) <= 1e-9:
            lp_ok += 1
        elif got.status == want.status != "optimal":
            lp_ok += 1

    cone_ok = 0
    for _ in range(50):
        m, n = int(rng.integers(2, 6)), int(rng.integers(4, 10))
        while True:
            A = (rng.random((m, n)) < 0.5).astype(float)
            if A.any():
                break
        x0 = np.where(rng.random(n) < 0.4, rng.uniform(0.0, 5.0, n), 0.0)
        b = A @ x0
        got = solve_cone(ConeProblem(A=A, y=b, delta=0.0, objective="l1"))
        want = solve_lp(StandardLP(c=np.ones(n), A=A, b=b))
        if got.status == want.status == "optimal" and abs(
            got.objective - want.objective
        ) <= 1e-6:
            cone_ok += 1
    ok = lp_ok == 200 and cone_ok == 50
    assert report(
        "criterion 6 (solver cross-checks)", ok,
        f"lp vs oracle {lp_ok}/200, splitting vs lp {cone_ok}/50",
        started, budget=60.0,
    )


def test_criterion_7_grid_sparsity():
    started = time.monotonic()
    ok = grid_path_count(50) == 126_410_606_437_752
    ok &= all(grid_paths_max_turns(n, 1) == 2 for n in (2, 10, 28, 50))
    ok &= grid_turn_fraction(0.1, 50) < 1e-7
    ok &= grid_turn_fraction(0.2, 50) <= 1e-4
    for n in (2, 4, 6, 8, 10):
        for turns in range(n):
            ok &= grid_paths_max_turns(n, turns) == brute_force_grid_paths(n, turns)
    assert report(
        "criterion 7 (grid sparsity demo)", ok,
        f"count(50)={grid_path_count(50)}, "
        f"fraction(0.1,50)={grid_turn_fraction(0.1, 50):.3e}",
        started, budget=10.0,
    )


def test_criterion_8_manifest_determinism(tmp_path):
    started = time.monotonic()
    ok = True
    outputs = []

    sweep_out = tmp_path / "sweep.csv"
    rc = cli_main([
        "sweep", "--fixture", "fig2", "--supports", "4,8,12",
        "--m-grid", "8:10", "--trials", "50", "--seed", "424242",
        "--output", str(sweep_out),
    ])
    ok &= rc == 0
    outputs.append(sweep_out)

    cdf_out = tmp_path / "cdf.csv"
    rc = cli_main([
        "noisy-cdf", "--fixture", "fig2", "--support", "4,8,12",
        "--nu", "0.1", "--m", "10", "--trials", "25", "--seed", "7",
        "--output", str(cdf_out),
    ])
    ok &= rc == 0
    outputs.append(cdf_out)

    vmt_out = tmp_path / "vmt.csv"
    rc = cli_main([
        "vmt-sweep", "--fixture", "nguyen", "--m-grid", "30,38",
        "--trials", "25", "--seed", "9", "--output", str(vmt_out),
    ])
    ok &= rc == 0
    outputs.append(vmt_out)

    fig2 = get_fixture("fig2")
    ms = build_static_incidence(fig2.table, SIX_LINKS_A, fig2.network)
    counts = tmp_path / "counts.csv"
    y = ms.matrix @ four_sparse_truth(np.random.default_rng(0))
    counts.write_text(
        "link_id,count\n"
        + "".join(f"{l},{c}\n" for l, c in zip(SIX_LINKS_A, y))
    )
    est_out = tmp_path / "result.json"
    rc = cli_main([
        "estimate", "--network", "fig2", "--paths", "fig2",
        "--measurements", str(counts), "--method", "l1",
        "--output", str(est_out),
    ])
    ok &= rc == 0
    outputs.append(est_out)

    for out in outputs:
        rerun_dir = tmp_path / f"rerun_{out.stem}"
        rc = cli_main([
            "rerun", str(out) + ".manifest.json", "--output-dir", str(rerun_dir),
        ])
        ok &= rc == 0
        ok &= (rerun_dir / out.name).read_bytes() == out.read_bytes()
    assert report(
        "criterion 8 (manifest determinism)", ok,
        f"{len(outputs)} outputs byte-identical on rerun",
        started, budget=120.0,
    )

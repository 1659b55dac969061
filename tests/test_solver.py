import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog, lsq_linear, nnls

from odflow import (
    IterationLimitError,
    add_noise,
    build_dynamic_system,
    build_static_incidence,
    estimate_l1,
    get_fixture,
    path_lengths,
    sample_allocation,
    sample_measurements,
    sample_support,
    substream,
)
from odflow import solver
from odflow.cli import main
from odflow.solver import (
    ConeProblem,
    StandardLP,
    _l1_piece,
    _piece_root,
    _ridge_seed,
    lp_phase1,
    lp_phase2,
    solve_cone,
    solve_lp,
    solve_lp_padded,
)
from odflow.experiments import _STACK_TRIALS
from odflow.fixtures import SUPPORT_3SPARSE
from oracles import (
    ProblemTooLargeError,
    grid_rows,
    l2_ball_oracle,
    lp_oracle,
    phase1_oracle,
    pivot_loop_oracle,
    solve_lp_stack,
)


def random_feasible_lp(rng, m=None, n=None, density=0.5, sense="min"):
    """Binary system with a known nonnegative solution, positive costs."""
    m = m or int(rng.integers(2, 7))
    n = n or int(rng.integers(4, 13))
    while True:
        A = (rng.random((m, n)) < density).astype(float)
        if A.any():
            break
    x0 = np.where(rng.random(n) < 0.4, rng.uniform(0.0, 5.0, n), 0.0)
    b = A @ x0
    c = rng.uniform(0.1, 2.0, n)
    return StandardLP(c=c, A=A, b=b, sense=sense), x0


class TestSolveLp:
    def test_one_dimensional_vertex(self):
        sol = solve_lp(StandardLP(c=[1.0, 1.0], A=[[1.0, 1.0]], b=[1.0]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0, abs=1e-12)
        assert sorted(sol.x) == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_infeasible_sign_conflict(self):
        sol = solve_lp(StandardLP(c=[1.0], A=[[1.0]], b=[-1.0]))
        assert sol.status == "infeasible"

    def test_unbounded_certificate(self):
        sol = solve_lp(StandardLP(c=[-1.0, 0.0], A=[[0.0, 1.0]], b=[1.0]))
        assert sol.status == "unbounded"
        assert sol.unbounded_index == 0

    def test_max_sense(self):
        sol = solve_lp(StandardLP(c=[1.0, 2.0], A=[[1.0, 1.0]], b=[3.0], sense="max"))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(6.0, abs=1e-9)

    def test_redundant_rows_handled(self):
        # duplicated constraint rows exercise the redundancy dropper
        A = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        b = np.array([2.0, 2.0, 3.0])
        sol = solve_lp(StandardLP(c=np.ones(3), A=A, b=b))
        assert sol.status == "optimal"
        assert np.max(np.abs(A @ sol.x - b)) <= 1e-9

    def test_rank_deficient_wide_system(self):
        rng = np.random.default_rng(11)
        base = (rng.random((3, 10)) < 0.5).astype(float)
        A = np.vstack([base, base[0] + base[1], base[1] + base[2]])
        x0 = np.where(rng.random(10) < 0.5, rng.uniform(0, 5, 10), 0.0)
        b = A @ x0
        sol = solve_lp(StandardLP(c=np.ones(10), A=A, b=b))
        assert sol.status == "optimal"
        assert np.max(np.abs(A @ sol.x - b)) <= 1e-8
        assert sol.objective <= x0.sum() + 1e-9

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            lp, _ = random_feasible_lp(rng)
            got = solve_lp(lp)
            want = lp_oracle(lp)
            assert got.status == want.status
            if got.status == "optimal":
                assert got.objective == pytest.approx(want.objective, abs=1e-9)
        # Dense Gaussian systems, where roundoff may change the pivot path
        # but not the status or the optimum.
        for _ in range(100):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(m + 1, 13))
            A = rng.standard_normal((m, n))
            x0 = np.where(rng.random(n) < 0.6, rng.uniform(0.0, 5.0, n), 0.0)
            lp = StandardLP(c=rng.uniform(0.1, 2.0, n), A=A, b=A @ x0)
            got = solve_lp(lp)
            want = lp_oracle(lp)
            assert got.status == want.status == "optimal"
            assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-9)

    def test_objective_dominates_feasible_point(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            lp, x0 = random_feasible_lp(rng)
            sol = solve_lp(lp)
            assert sol.status == "optimal"
            assert sol.objective <= float(lp.c @ x0) + 1e-9

    def test_reduced_cost_certificate(self):
        rng = np.random.default_rng(4321)
        for _ in range(50):
            lp, _ = random_feasible_lp(rng)
            sol = solve_lp(lp)
            assert sol.status == "optimal" and sol.basis is not None
            A = np.asarray(lp.A, dtype=float)
            c = np.asarray(lp.c, dtype=float)
            rows = len(sol.basis)
            # the solver may have dropped redundant rows; recompute duals on
            # an independent full-rank row subset
            if rows < A.shape[0]:
                keep = []
                for i in range(A.shape[0]):
                    trial = keep + [i]
                    if np.linalg.matrix_rank(A[trial]) == len(trial):
                        keep.append(i)
                    if len(keep) == rows:
                        break
                A = A[keep]
            y = np.linalg.solve(A[:, sol.basis].T, c[list(sol.basis)])
            reduced = c - A.T @ y
            assert reduced.min() >= -1e-7

    def test_feasibility_at_optimum(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            lp, _ = random_feasible_lp(rng)
            sol = solve_lp(lp)
            assert sol.residual_eq <= 1e-9
            assert sol.x.min() >= -1e-9

    def test_degenerate_ties_agree_with_oracle_objective(self):
        A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        b = np.array([1.0, 1.0])
        c = np.ones(3)
        got = solve_lp(StandardLP(c=c, A=A, b=b))
        want = lp_oracle(StandardLP(c=c, A=A, b=b))
        assert got.objective == pytest.approx(want.objective, abs=1e-12)

    def test_all_rows_redundant(self):
        sol = solve_lp(StandardLP(c=[1.0, 2.0], A=[[0.0, 0.0]], b=[0.0]))
        assert sol.status == "optimal"
        assert sol.objective == 0.0
        sol = solve_lp(StandardLP(c=[-1.0, 2.0], A=[[0.0, 0.0]], b=[0.0]))
        assert sol.status == "unbounded"

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_lp(StandardLP(c=[1.0], A=[[1.0, 2.0]], b=[1.0]))

    def test_unknown_sense_rejected(self):
        with pytest.raises(ValueError):
            solve_lp(StandardLP(c=[1.0], A=[[1.0]], b=[1.0], sense="best"))

    @pytest.mark.parametrize("field,value", [
        ("A", [[1.0, np.nan], [0.0, 1.0]]),
        ("A", [[1.0, np.inf], [0.0, 1.0]]),
        ("b", [1.0, np.nan]),
        ("b", [-np.inf, 1.0]),
        ("c", [1.0, np.nan]),
        ("c", [np.inf, 1.0]),
    ])
    def test_non_finite_input_rejected(self, field, value):
        args = dict(c=[1.0, 1.0], A=np.eye(2), b=[1.0, 1.0])
        args[field] = value
        for sense in ("min", "max"):
            with pytest.raises(ValueError):
                solve_lp(StandardLP(sense=sense, **args))

    def test_infeasibility_relative_to_counts(self):
        # two copies of one row: a gap of 1 in 1e6 is inconsistent, a gap
        # at the 13th significant digit is roundoff
        A = [[1.0, 1.0], [1.0, 1.0]]
        sol = solve_lp(StandardLP(c=[1.0, 1.0], A=A, b=[1e6, 1e6 + 1.0]))
        assert sol.status == "infeasible"
        sol = solve_lp(StandardLP(c=[1.0, 1.0], A=A, b=[1e6, 1e6 * (1 + 1e-13)]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1e6, rel=1e-12)


class TestLpPhases:
    def test_phase1_leaves_no_block_behind(self, fig2, block_growth):
        # a basis tuple built from a generator is sized for 10 and shrunk,
        # and CPython keeps each freed one on its free list of 7-tuples
        ms = build_static_incidence(fig2.table, list(fig2.network.link_ids)[:7], fig2.network)
        x = np.zeros(14)
        x[list(SUPPORT_3SPARSE)] = 10.0, 20.0, 30.0
        y = ms.matrix @ x
        assert len(lp_phase1(ms.matrix, y).basis) == 7
        assert block_growth(lambda: lp_phase1(ms.matrix, y)) < 100

    def test_shared_phase1_matches_full_solves(self):
        # phase 2 must leave the shared phase-1 state untouched, so every
        # objective optimized from it matches a fresh solve
        rng = np.random.default_rng(808)
        for _ in range(60):
            lp, _ = random_feasible_lp(rng)
            start = lp_phase1(lp.A, lp.b)
            for c in (lp.c, -lp.c, rng.uniform(0.0, 2.0, len(lp.c))):
                for sense in ("min", "max"):
                    got = lp_phase2(start, c, sense)
                    want = solve_lp(StandardLP(c=c, A=lp.A, b=lp.b, sense=sense))
                    assert got.status == want.status
                    assert got.iterations == want.iterations
                    assert got.basis == want.basis
                    assert got.unbounded_index == want.unbounded_index
                    assert np.array_equal(got.x, want.x)

    def test_phase1_failure_carried_to_every_objective(self):
        start = lp_phase1([[1.0, 1.0]], [-1.0])
        assert start.status == "infeasible"
        for sense in ("min", "max"):
            sol = lp_phase2(start, [1.0, 2.0], sense)
            assert sol.status == "infeasible"
            assert sol.iterations == start.iterations

    def test_redundant_rows_dropped_once(self):
        A = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        start = lp_phase1(A, [2.0, 2.0, 3.0])
        assert start.status == "optimal"
        assert len(start.rows) == len(start.basis) == 2
        assert start.A_kept.shape == (2, 3)

    def test_long_solve_basis_pinned(self, nguyen):
        # A long solve, 62 pivots of rank-1 updates to one tableau per
        # phase, ends on the basis of a solver that factored the basis
        # afresh at every pivot.
        ms = build_static_incidence(
            nguyen.table, list(nguyen.network.link_ids), nguyen.network
        )
        rng = np.random.default_rng(2024)
        x = np.zeros(ms.n_cols)
        for group in nguyen.table.paths_by_od:
            x[group[rng.integers(len(group))]] = rng.uniform(1.0, 100.0)
        start = lp_phase1(ms.matrix, ms.matrix @ x)
        # the incidence has rank 24: phase 1 drops 14 of its 38 rows
        assert start.rows == (
            0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 14, 15, 16, 19, 20, 21, 22, 24,
            25, 27, 30, 33, 36,
        )
        sol = lp_phase2(start, np.ones(ms.n_cols))
        assert sol.status == "optimal"
        assert sol.iterations == 62
        assert sol.basis == (
            18, 11, 63, 62, 15, 65, 57, 2, 14, 0, 1, 59, 10, 55, 28, 38, 39,
            47, 40, 36, 19, 32, 13, 44,
        )
        assert sol.objective == pytest.approx(320.02626652010343, rel=1e-12)


    # sha256 of repr(records): one (status, basis, iterations,
    # unbounded_index) record per fig2 system, and the min and max records
    # per nguyen system.
    PINNED_PATH = "44d94774f056ffab12cb896070a8884b7726d6285c59bbb1cf8e14f2324ffbbc"

    def test_pivot_path_pinned(self, fig2, nguyen):
        # Every basis, pivot count and unbounded certificate of 140 sweep
        # systems, so that a change to the pivot arithmetic that changes a
        # single pivot shows.
        def record(sol):
            return (sol.status, sol.basis, sol.iterations, sol.unbounded_index)

        def incidence(bundle):
            net = bundle.network
            return build_static_incidence(bundle.table, net.link_ids, net)

        records = []
        full = incidence(fig2)
        links = full.row_labels
        for t in range(100):
            rng = substream(11, t)
            support = (4, 8, 12) if t % 2 == 0 else (1, 7, 10, 13)
            x = sample_allocation(fig2.table, support, rng)
            ms = full.subsystem(sample_measurements(links, 4 + t % 7, rng))
            lp = StandardLP(c=np.ones(ms.n_cols), A=ms.matrix, b=ms.matrix @ x)
            records.append(record(solve_lp(lp)))

        full = incidence(nguyen)
        links = full.row_labels
        lengths = path_lengths(nguyen.network, nguyen.table)
        for t in range(40):
            rng = substream(12, t)
            x = np.zeros(nguyen.table.n_paths)
            for group in nguyen.table.paths_by_od:
                x[group[rng.integers(len(group))]] = rng.uniform(1.0, 100.0)
            ms = full.subsystem(sample_measurements(links, (18, 26, 38)[t % 3], rng))
            start = lp_phase1(ms.matrix, ms.matrix @ x)
            records.append(tuple(
                record(lp_phase2(start, lengths, sense)) for sense in ("min", "max")
            ))
        digest = hashlib.sha256(repr(records).encode()).hexdigest()
        assert digest == self.PINNED_PATH


def assert_same_solution(got, want):
    assert got.status == want.status
    assert got.basis == want.basis
    assert got.iterations == want.iterations
    assert got.unbounded_index == want.unbounded_index
    assert got.x.tobytes() == want.x.tobytes()
    for field in ("objective", "residual_eq", "residual_cone"):
        assert np.float64(getattr(got, field)).tobytes() == (
            np.float64(getattr(want, field)).tobytes()), field


def nguyen_counts(nguyen, rng):
    """One random path per OD pair with a uniform flow, as the vmt sweep
    draws them."""
    x = np.zeros(nguyen.table.n_paths)
    for group in nguyen.table.paths_by_od:
        x[group[rng.integers(len(group))]] = rng.uniform(1.0, 100.0)
    return x


def cleanup_system(nguyen):
    """``(A, b)`` of a nguyen system whose phase-1 cleanup pivots one
    artificial out and drops another's row as redundant."""
    net = nguyen.network
    full = build_static_incidence(nguyen.table, net.link_ids, net)
    rng = substream(21, 238)
    x = nguyen_counts(nguyen, rng)
    m = int(rng.integers(8, 39))
    assert m == 13
    ms = full.subsystem(sample_measurements(full.row_labels, m, rng))
    return ms.matrix, ms.matrix @ x


def sweep_chunk(fig2):
    """The l1 programs of one chunk of a recovery sweep: _STACK_TRIALS
    trials of random support, each at every M of 3..10."""
    net = fig2.network
    full = build_static_incidence(fig2.table, net.link_ids, net)
    links = full.row_labels
    problems = []
    for t in range(_STACK_TRIALS):
        rng = substream(17, t)
        x = sample_allocation(fig2.table, sample_support(fig2.table, 2 + t % 5, rng), rng)
        perm = rng.permutation(len(links))
        for m in range(3, 11):
            ms = full.subsystem(tuple(links[i] for i in sorted(perm[:m])))
            problems.append(StandardLP(c=np.ones(ms.n_cols), A=ms.matrix, b=ms.matrix @ x))
    return problems


def padded(problems):
    """``(A, b, rows)`` of the programs as zero-padded arrays."""
    rows = [len(p.b) for p in problems]
    A = np.zeros((len(problems), max(rows), len(problems[0].c)))
    b = np.zeros(A.shape[:2])
    for k, p in enumerate(problems):
        A[k, :rows[k]], b[k, :rows[k]] = p.A, p.b
    return A, b, np.array(rows)


class TestSolveLpStack:
    """The stacked simplex against one solve_lp per program."""

    def test_matches_single_solves(self, nguyen):
        net = nguyen.network
        full = build_static_incidence(nguyen.table, net.link_ids, net)
        links = full.row_labels
        lengths = path_lengths(net, nguyen.table)
        ones = np.ones(full.n_cols)
        # the long solve of test_long_solve_basis_pinned
        x = nguyen_counts(nguyen, np.random.default_rng(2024))
        problems = [StandardLP(c=ones, A=full.matrix, b=full.matrix @ x)]
        rng = substream(13, 0)
        for m in (18, 26):
            ms = full.subsystem(sample_measurements(links, m, rng))
            A, b = ms.matrix, ms.matrix @ nguyen_counts(nguyen, rng)
            problems += [StandardLP(c=lengths, A=A, b=b, sense=s) for s in ("min", "max")]
        # a duplicated row, and a negative count no flow can meet
        problems.append(StandardLP(c=ones, A=np.vstack([A, A[:1]]), b=np.append(b, b[0])))
        problems.append(StandardLP(c=ones, A=A, b=np.where(np.arange(b.size) == 3, -1.0, b)))
        A, b = cleanup_system(nguyen)
        problems += [StandardLP(c=lengths, A=A, b=b, sense=s) for s in ("min", "max")]

        want = [solve_lp(p) for p in problems]
        assert {"optimal", "infeasible", "unbounded"} == {w.status for w in want}
        assert len(want[5].basis) == len(want[3].basis)  # the copy is dropped
        got = solve_lp_stack(problems)
        assert len(got) == len(problems)
        for g, w in zip(got, want):
            assert_same_solution(g, w)
        # phase 1 ends on the same tableau, basis and kept rows, cleanup
        # included
        status, iters, (live, tableau, basis, size, system) = solver._phase1_stack(
            *padded(problems))
        starts = [lp_phase1(p.A, p.b) for p in problems]
        assert list(status) == [s.status for s in starts]
        assert list(iters) == [s.iterations for s in starts]
        assert list(live) == [k for k, s in enumerate(starts) if s.status == "optimal"]
        for pos, k in enumerate(live):
            want, s = starts[k], size[pos]
            assert tuple(basis[pos, :s]) == want.basis
            assert tableau[pos, :s].tobytes() == want.tableau.tobytes()
            assert system[pos, :s, :-1].tobytes() == want.A_kept.tobytes()
            assert system[pos, :s, -1].tobytes() == want.b_kept.tobytes()

    def test_long_dynamic_solves(self, nguyen):
        # Time-expanded nguyen systems, every link counted at times 2..6
        # (190 x 578), whose phase 1 takes 150 or more rank-1 updates of one
        # tableau: the tableau stays a fresh solve of its basis to roundoff,
        # and the stack takes the single solves' pivots.
        ids = list(nguyen.network.link_ids)
        A = build_dynamic_system(nguyen.table, nguyen.network, grid_rows(ids, range(2, 7))).matrix
        ones = np.ones(A.shape[1])
        problems, want = [], []
        for seed in range(2):
            rng = np.random.default_rng(seed)
            x = np.zeros(A.shape[1])
            x[rng.choice(A.shape[1], 80, replace=False)] = rng.uniform(1.0, 50.0, 80)
            start = lp_phase1(A, A @ x)
            assert start.status == "optimal" and start.iterations >= 150
            fresh = np.linalg.solve(start.A_kept[:, list(start.basis)],
                                    np.column_stack([start.A_kept, start.b_kept]))
            assert np.abs(start.tableau - fresh).max() <= 1e-12 * np.abs(fresh).max()
            problems.append(StandardLP(c=ones, A=A, b=A @ x))
            want.append(lp_phase2(start, ones))  # solve_lp's answer
        for g, w in zip(solve_lp_stack(problems), want):
            assert_same_solution(g, w)

    def test_matches_single_solves_on_sweep_systems(self, fig2):
        # every M of a recovery sweep's trials in one stack of 4 to 10 rows
        net = fig2.network
        full = build_static_incidence(fig2.table, net.link_ids, net)
        links = full.row_labels
        problems = []
        for t in range(20):
            rng = substream(11, t)
            x = sample_allocation(fig2.table, (4, 8, 12) if t % 2 else (1, 7, 10, 13), rng)
            perm = rng.permutation(len(links))
            for m in range(4, 11):
                ms = full.subsystem(tuple(links[i] for i in sorted(perm[:m])))
                problems.append(StandardLP(c=np.ones(ms.n_cols), A=ms.matrix,
                                           b=ms.matrix @ x))
        for g, p in zip(solve_lp_stack(problems), problems):
            assert_same_solution(g, solve_lp(p))

    def test_cleanup_pivots_one_artificial_and_drops_one_row(self, nguyen, monkeypatch):
        # phase 1 leaves two artificials in the basis of this system: the
        # cleanup pivots one out and drops the other's row as redundant
        A, b = cleanup_system(nguyen)
        pivots = []
        pivot = solver._pivot
        monkeypatch.setattr(solver, "_pivot", lambda T, r, j: pivots.append(r) or pivot(T, r, j))
        start = lp_phase1(A, b)
        assert start.status == "optimal"
        assert len(pivots) == start.iterations + 1  # the loop's pivots, then one cleanup
        assert len(start.rows) == A.shape[0] - 1

    def test_full_sweep_chunk(self, fig2):
        # one chunk of a recovery sweep, every field of every answer
        problems = sweep_chunk(fig2)
        assert len(problems) == 256
        for g, p in zip(solve_lp_stack(problems), problems):
            assert_same_solution(g, solve_lp(p))

    def test_infeasibility_relative_to_counts(self):
        # the verdict scales with ||b||_1, as in TestSolveLp
        A = [[1.0, 1.0], [1.0, 1.0]]
        problems = [StandardLP(c=[1.0, 1.0], A=A, b=[1e6, 1e6 + 1.0]),
                    StandardLP(c=[1.0, 1.0], A=A, b=[1e6, 1e6 * (1 + 1e-13)])]
        got = solve_lp_stack(problems)
        assert [sol.status for sol in got] == ["infeasible", "optimal"]
        for g, p in zip(got, problems):
            assert_same_solution(g, solve_lp(p))

    def test_systems_without_rows(self):
        # no constraint: optimal at zero when c >= 0, else unbounded on the
        # first negative cost
        problems = [StandardLP(c=[1.0, 0.0], A=np.zeros((0, 2)), b=[]),
                    StandardLP(c=[1.0, -2.0], A=np.zeros((0, 2)), b=[])]
        want = [solve_lp(p) for p in problems]
        assert [w.status for w in want] == ["optimal", "unbounded"]
        assert want[1].unbounded_index == 1
        for g, w in zip(solve_lp_stack(problems), want):
            assert_same_solution(g, w)

    def test_padding_rows_ignored(self, fig2):
        # rows past each program's count may hold anything finite
        net = fig2.network
        full = build_static_incidence(fig2.table, net.link_ids, net)
        x = sample_allocation(fig2.table, (1, 7, 10, 13), substream(3, 0))
        A = np.stack([full.matrix[:6], full.matrix[2:8]])
        b = A @ x
        b[0, 4:] += 7.0  # program 0 has 4 rows, so its last two are padding
        A_zero, b_zero = A.copy(), b.copy()
        A_zero[0, 4:], b_zero[0, 4:] = 0.0, 0.0
        clean = solve_lp_padded(np.ones(full.n_cols), A_zero, b_zero, [4, 6])
        dirty = solve_lp_padded(np.ones(full.n_cols), A, b, [4, 6])
        for field in ("x", "status", "iterations", "basis"):
            assert np.array_equal(getattr(clean, field), getattr(dirty, field)), field

    @pytest.mark.parametrize("rows,message", [
        ([3, 7], "row counts"), ([-1, 2], "row counts"), ([2], "dimensions"),
        ([1.5, 2], "must be integers"),  # not truncated to one row
    ])
    def test_padded_input_checks(self, rows, message):
        with pytest.raises(ValueError, match=message):
            solve_lp_padded(np.ones(3), np.ones((2, 4, 3)), np.ones((2, 4)), rows)

    @pytest.mark.parametrize("case,message", [
        ("column counts", "one column count"), ("count length", "dimensions"),
        ("A", "finite"), ("b", "finite"), ("c", "finite"), ("sense", "sense"),
        ("empty", "empty"),
    ])
    def test_input_checks(self, case, message):
        good = StandardLP(c=[1.0, 1.0], A=np.eye(2), b=[1.0, 1.0])
        bad = {
            "column counts": StandardLP(c=[1.0], A=[[1.0]], b=[1.0]),
            "count length": StandardLP(c=[1.0, 1.0], A=np.eye(2), b=[1.0]),
            "A": StandardLP(c=[1.0, 1.0], A=[[1.0, np.nan], [0.0, 1.0]], b=[1.0, 1.0]),
            "b": StandardLP(c=[1.0, 1.0], A=np.eye(2), b=[1.0, np.inf]),
            "c": StandardLP(c=[1.0, -np.inf], A=np.eye(2), b=[1.0, 1.0]),
            "sense": StandardLP(c=[1.0, 1.0], A=np.eye(2), b=[1.0, 1.0], sense="best"),
        }
        problems = [] if case == "empty" else [good, bad[case]]
        with pytest.raises(ValueError, match=message):
            solve_lp_stack(problems)


class TestRowSum:
    """Every sum the two simplex engines must round alike adds rows in
    order (``solver._row_sum``), so that the zero rows that pad a program
    in a stack change no bit of it."""

    def test_column_added_in_row_order(self):
        # numpy's pairwise sum of this column is 1e16 + 6; row by row each
        # 1.0 is lost to rounding, as in a left-to-right sum
        col = np.array([1e16] + [1.0] * 9)
        want = 0.0
        for v in col.tolist():
            want += v
        assert solver._row_sum(col[:, None]).tobytes() == np.float64(want).tobytes()
        # and in a stack, with zero rows below
        stack = np.zeros((2, 20, 1))
        stack[0, :10, 0], stack[1, 5:15, 0] = col, col
        assert solver._row_sum(stack).tobytes() == np.full((2, 1), want).tobytes()

    def test_zero_padding_changes_no_field(self):
        # One count of 1e16 among counts of one, so that a pairwise
        # ||b||_1 moves with the rows around it, and two rows that ask one
        # flow to be 0 and delta at once, so that phase 1 leaves delta in
        # an artificial: 1e7 + 0.01 passes the verdict (1e-9 ||b||_1) and
        # five ulps more fails it.  Each program sits 8 or more zero rows
        # deep in the stack.
        problems = []
        for counts in ([1.0, 1e16] + [1.0] * 5, [1e16] + [1.0] * 9):
            for delta in (1e7 + 0.01, 10000000.01000001):
                m = len(counts) + 2
                A = np.zeros((m, 11))
                A[np.arange(m - 2), np.arange(m - 2)] = 1.0
                A[-2:, -1] = 1.0
                problems.append(StandardLP(c=np.ones(11), A=A, b=counts + [0.0, delta]))
        want = [solve_lp(p) for p in problems]
        assert [w.status for w in want] == ["optimal", "infeasible"] * 2
        rows = [len(p.b) for p in problems]
        b = np.zeros((len(problems), max(rows) + 8))
        A = np.zeros(b.shape + (11,))
        for k, p in enumerate(problems):
            A[k, :rows[k]], b[k, :rows[k]] = p.A, p.b
        got = solve_lp_padded(np.ones(11), A, b, rows)
        for k, w in enumerate(want):
            assert (got.status[k], got.iterations[k]) == (w.status, w.iterations)
            assert got.x[k].tobytes() == w.x.tobytes()
            if w.basis is not None:
                assert tuple(got.basis[k, :got.basis_size[k]]) == w.basis

    def test_phase2_cost_rows_of_a_sweep_chunk(self, fig2, monkeypatch):
        # phase 2's first cost row and objective, formed for the whole
        # stack at once, have the bytes _phase2_tableau gives each program;
        # the weights of a reweighted l1 round, not ones, so that each
        # product c_i T_ij rounds
        problems = sweep_chunk(fig2)
        status, _, (live, tableau, basis, size, system) = solver._phase1_stack(
            *padded(problems))
        firsts = []
        pivot_stack = solver._pivot_stack
        monkeypatch.setattr(solver, "_pivot_stack",
                            lambda T, basis: firsts.append(T.copy()) or pivot_stack(T, basis))
        cost = np.random.default_rng(5).uniform(0.5, 2.0, (live.size, fig2.table.n_paths))
        solver._phase2_stack(cost, tableau, basis, size, system)
        (T,) = firsts
        assert len({int(s) for s in size}) > 1  # programs of several basis sizes
        for pos, k in enumerate(live):
            start = lp_phase1(problems[k].A, problems[k].b)
            want = solver._phase2_tableau(start.tableau, cost[pos], cost[pos][list(start.basis)])
            assert T[pos, -1].tobytes() == want[-1].tobytes()


def phase_start_systems(kind, fig2, nguyen):
    """``(A, b)`` systems of one kind, each meeting counts of a flow."""
    if kind == "cleanup":
        return [cleanup_system(nguyen)]
    if kind == "nguyen-dynamic":
        ids = list(nguyen.network.link_ids)
        A = build_dynamic_system(nguyen.table, nguyen.network, grid_rows(ids, range(2, 5))).matrix
        rng = np.random.default_rng(7)
        x = np.zeros(A.shape[1])
        x[rng.choice(A.shape[1], 40, replace=False)] = rng.uniform(1.0, 50.0, 40)
        return [(A, A @ x)]
    bundle = fig2 if kind == "fig2" else nguyen
    net = bundle.network
    full = build_static_incidence(bundle.table, net.link_ids, net)
    systems = []
    for t in range(12):
        rng = substream(47, t)
        if kind == "fig2":
            x = sample_allocation(bundle.table, sample_support(bundle.table, 2 + t % 5, rng), rng)
            m = 3 + t % 8
        else:
            x, m = nguyen_counts(nguyen, rng), (18, 26, 38)[t % 3]
        ms = full.subsystem(sample_measurements(full.row_labels, m, rng))
        systems.append((ms.matrix, ms.matrix @ x))
    return systems


class TestPhaseStarts:
    """Both engines build phase 2's first cost row by one builder,
    ``solver._phase2_tableau``, which writes no reduced cost of its own: it
    relies on every basic column of phase 1's final tableau being an exact
    unit vector, so that a basic column's reduced cost comes out zero."""

    @pytest.mark.parametrize("kind", ["fig2", "nguyen", "nguyen-dynamic", "cleanup"])
    def test_basic_columns_are_unit_vectors(self, kind, fig2, nguyen, monkeypatch):
        systems = phase_start_systems(kind, fig2, nguyen)
        n = systems[0][0].shape[1]
        rng = np.random.default_rng(3)
        # path-length-like costs with zeros, whose negation under max is -0
        costs = [np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.5, 2.0, n))
                 for _ in systems]
        firsts = []
        loop, stack = solver._pivot_loop, solver._pivot_stack
        monkeypatch.setattr(solver, "_pivot_loop",
                            lambda T, basis: firsts.append(T.copy()) or loop(T, basis))
        monkeypatch.setattr(solver, "_pivot_stack",
                            lambda T, basis: firsts.append(T.copy()) or stack(T, basis))

        for (A, b), c in zip(systems, costs):
            start = lp_phase1(A, b)
            assert start.status == "optimal"
            basis = list(start.basis)
            assert np.array_equal(start.tableau[:, basis], np.eye(len(basis)))
            for sense in ("min", "max"):
                firsts.clear()
                lp_phase2(start, c, sense)
                assert not firsts[0][-1, basis].any()

        # the stack, two zero rows below its longest system
        rows = [len(b) for _, b in systems]
        A = np.zeros((len(systems), max(rows) + 2, n))
        b = np.zeros(A.shape[:2])
        for k, (A_k, b_k) in enumerate(systems):
            A[k, :rows[k]], b[k, :rows[k]] = A_k, b_k
        _, _, (live, tableau, basis, size, system) = solver._phase1_stack(A, b, np.array(rows))
        assert live.size == len(systems)
        for pos, s in enumerate(size.tolist()):
            assert np.array_equal(tableau[pos, :s][:, basis[pos, :s]], np.eye(s))
        for sign in (1.0, -1.0):  # min, and max as the min of the negation
            firsts.clear()
            solver._phase2_stack(sign * np.stack(costs), tableau, basis.copy(), size, system)
            (T,) = firsts
            for pos, s in enumerate(size.tolist()):
                assert not T[pos, -1, basis[pos, :s]].any()


class TestPivotProduct:
    """Both simplex engines form each pivot's rank-1 product by one rule:
    every entry is the IEEE product, and a zero product is +0."""

    # Pivot on (0, 1) or (2, 0).  Column 1 holds negative entries, a +0
    # and a -0; row 0 holds zeros of both signs; -0 entries lie in every
    # row, some where the old update flipped them to +0.
    T = np.array([
        [2.0, 4.0, 0.0, -0.0, -3.0, 1.0],
        [-0.0, -1.5, -0.0, -0.0, 7.0, 2.0],
        [5.0, 0.0, -0.0, 1.0, -0.0, -0.0],
        [-0.0, -0.0, -0.0, 3.0, 0.0, 0.0],
        [1.0, -2.5, 0.0, 0.3, -0.0, -4.0],
    ])
    PIVOTS = [(0, 1), (2, 0)]

    @staticmethod
    def old_update(T, r, j):
        T = T.copy()
        prow = T[r] / T[r, j]
        T -= np.multiply.outer(T[:, j], prow)
        T[r] = prow
        return T

    def single(self, r, j):
        T = self.T.copy()
        solver._pivot(T, r, j)
        return T

    def test_engines_give_the_same_bytes(self):
        stack = np.stack([self.T] * len(self.PIVOTS))
        r, j = (np.array(v) for v in zip(*self.PIVOTS))
        at = np.arange(len(stack))
        solver._pivot_each(stack, r, j, stack[at, :, j], at)
        for got, (r, j) in zip(stack, self.PIVOTS):
            assert got.tobytes() == self.single(r, j).tobytes()

    @pytest.mark.parametrize("r,j", PIVOTS)
    def test_values_of_the_old_update(self, r, j):
        got, old = self.single(r, j), self.old_update(self.T, r, j)
        assert np.array_equal(got, old)
        assert got.tobytes() != old.tobytes()  # a -0 the old update flipped

    @pytest.mark.parametrize("r,j", PIVOTS)
    def test_rows_off_the_entering_column_unchanged(self, r, j):
        got = self.single(r, j)
        zero = np.flatnonzero(self.T[:, j] == 0.0)
        assert zero.size >= 2
        for i in zero:
            assert got[i].tobytes() == self.T[i].tobytes()


class TestNoColumns:
    """Programs with no columns: the LP is optimal at the empty point when
    its counts are zero and infeasible otherwise, and the ball is
    infeasible unless it holds the zero image."""

    def test_lp(self):
        problems = [StandardLP(c=np.zeros(0), A=np.zeros((len(b), 0)), b=b)
                    for b in ([0.0, 0.0], [0.0, -1.0], [], [-0.0])]
        want = [solve_lp(p) for p in problems]
        assert [w.status for w in want] == ["optimal", "infeasible", "optimal", "optimal"]
        for w in (want[0], want[2], want[3]):
            assert (w.x.shape, w.basis, w.objective, w.iterations) == ((0,), (), 0.0, 0)
        assert lp_phase1(problems[0].A, problems[0].b).rows == ()
        for g, w in zip(solve_lp_stack(problems), want):
            assert_same_solution(g, w)

    def test_cone_in_a_subprocess(self):
        # scipy's nnls aborts the interpreter on an (m, 0) matrix, so a
        # regression must fail this test, not end the session
        code = (
            "import numpy as np\n"
            "from odflow.solver import ConeProblem, _CountedNnls, solve_cone\n"
            "for objective, delta in (('l1', 0.5), ('l2', 0.5), ('l1', 0.0), ('l2', 0.0)):\n"
            "    sol = solve_cone(ConeProblem(A=np.zeros((2, 0)), y=np.array([3.0, 4.0]),\n"
            "                                 delta=delta, objective=objective))\n"
            "    print(sol.status, sol.x.shape, sol.residual_cone)\n"
            "for E in (np.zeros((2, 0)), np.zeros((0, 3))):\n"
            "    x, dist = _CountedNnls()(E, np.ones(E.shape[0]))\n"
            "    print(x.tolist(), dist)\n"
        )
        root = Path(__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-c", code], cwd=root,
                              env=dict(os.environ, PYTHONPATH="src"),
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        *cones, wide, tall = done.stdout.splitlines()
        assert len(cones) == 4
        for line, delta in zip(cones, (0.5, 0.5, 0.0, 0.0)):
            status, shape, residual = line.rsplit(" ", 2)
            # y itself certifies it: ||y - A z|| = ||y|| = 5 for every z
            assert (status, shape) == ("infeasible", "(0,)")
            assert float(residual) == pytest.approx(5.0 - delta)
        assert wide == f"[] {math.sqrt(2.0)}"
        assert tall == "[0.0, 0.0, 0.0] 0.0"


class TestListScanParity:
    """Bland's rule by array scans (the entering column, phase 1's cleanup
    column) against the same rule read from Python lists
    (``oracles.pivot_loop_oracle``, ``oracles.phase1_oracle``): the same
    pivots, bases and kept rows, and the same tableau bytes."""

    @staticmethod
    def assert_same_phases(A, b, costs):
        """Phase 1 of ``A x = b``, then phase 2 for each cost row from it;
        returns phase 1's outcome."""
        got, want = lp_phase1(A, b), phase1_oracle(A, b)
        assert (got.status, got.iterations, got.basis, got.rows) == (
            want.status, want.iterations, want.basis, want.rows)
        if got.status != "optimal":
            return got
        assert got.tableau.tobytes() == want.tableau.tobytes()
        for cost in costs:
            basis = list(got.basis)
            T = solver._phase2_tableau(got.tableau, cost, cost[basis])
            ref_basis, ref_T = list(basis), T.copy()
            assert solver._pivot_loop(T, basis) == pivot_loop_oracle(ref_T, ref_basis)
            assert basis == ref_basis
            assert T.tobytes() == ref_T.tobytes()
        return got

    def test_fig2(self, fig2):
        net = fig2.network
        full = build_static_incidence(fig2.table, net.link_ids, net)
        lengths = path_lengths(net, fig2.table)
        costs = (np.ones(full.n_cols), lengths, -lengths)
        for t in range(60):
            rng = substream(41, t)
            x = sample_allocation(fig2.table, sample_support(fig2.table, 2 + t % 5, rng), rng)
            ms = full.subsystem(sample_measurements(full.row_labels, 3 + t % 8, rng))
            self.assert_same_phases(ms.matrix, ms.matrix @ x, costs)

    def test_nguyen_static(self, nguyen):
        # every fourth system counts all 38 links, of rank 24, so phase 1
        # drops 14 rows; the cleanup system pivots an artificial out
        net = nguyen.network
        full = build_static_incidence(nguyen.table, net.link_ids, net)
        lengths = path_lengths(net, nguyen.table)
        costs = (np.ones(full.n_cols), lengths, -lengths)
        dropped = 0
        for t in range(24):
            rng = substream(43, t)
            x = nguyen_counts(nguyen, rng)
            ms = full.subsystem(sample_measurements(full.row_labels, (18, 26, 32, 38)[t % 4], rng))
            start = self.assert_same_phases(ms.matrix, ms.matrix @ x, costs)
            assert start.status == "optimal"
            dropped += ms.n_rows - len(start.rows)
            if ms.n_rows == 38:
                assert len(start.rows) == 24
        assert dropped >= 6 * 14
        start = self.assert_same_phases(*cleanup_system(nguyen), costs)
        assert len(start.rows) == 12

    def test_fig2_dynamic(self, fig2):
        # (link, time) rows at count times 0-3, all 40 or a random subset
        net = fig2.network
        A = build_dynamic_system(fig2.table, net, grid_rows(net.link_ids, range(4))).matrix
        for seed in range(12):
            rng = np.random.default_rng(seed)
            x = np.zeros(A.shape[1])
            x[rng.choice(A.shape[1], 6, replace=False)] = rng.uniform(1.0, 50.0, 6)
            rows = np.sort(rng.choice(40, 40 if seed % 3 == 0 else 24, replace=False))
            costs = (np.ones(A.shape[1]), rng.uniform(-1.0, 1.0, A.shape[1]))
            start = self.assert_same_phases(A[rows], A[rows] @ x, costs)
            assert start.status == "optimal"


class TestPivotCap:
    """The simplex gives up after ``_MAX_PIVOTS`` pivots in a phase; the
    all-links fig2 l1 program needs 15 in phase 1."""

    CAP = 3

    @pytest.fixture()
    def capped(self, monkeypatch, fig2):
        monkeypatch.setattr(solver, "_MAX_PIVOTS", self.CAP)
        links = list(fig2.network.link_ids)
        ms = build_static_incidence(fig2.table, links, fig2.network)
        x = np.zeros(ms.n_cols)
        x[1], x[7], x[10], x[13] = 10.0, 20.0, 10.0, 30.0
        return ms, links, ms.matrix @ x

    def test_solve_lp_reports_iteration_limit(self, capped):
        ms, _, y = capped
        sol = solve_lp(StandardLP(c=np.ones(ms.n_cols), A=ms.matrix, b=y))
        assert sol.status == "iteration-limit"
        assert sol.iterations == self.CAP

    def test_stack_reports_iteration_limit(self, capped):
        ms, _, y = capped
        problems = [StandardLP(c=np.ones(ms.n_cols), A=ms.matrix, b=y),
                    StandardLP(c=np.ones(ms.n_cols), A=ms.matrix[:1], b=y[:1])]
        got = solve_lp_stack(problems)
        assert [sol.status for sol in got] == ["iteration-limit", "optimal"]
        for g, p in zip(got, problems):
            assert_same_solution(g, solve_lp(p))

    def test_estimate_l1_raises(self, capped):
        ms, _, y = capped
        with pytest.raises(IterationLimitError):
            estimate_l1(ms, y)

    def test_cli_exit_code(self, capped, tmp_path):
        _, links, y = capped
        counts = tmp_path / "counts.csv"
        counts.write_text("link_id,count\n" + "".join(
            f"{lid},{c}\n" for lid, c in zip(links, y)
        ))
        rc = main([
            "estimate", "--network", "fig2", "--paths", "fig2",
            "--measurements", str(counts), "--method", "l1",
            "--output", str(tmp_path / "r.json"),
        ])
        assert rc == 5


class TestLpOracle:
    def test_guard(self):
        with pytest.raises(ProblemTooLargeError):
            lp_oracle(StandardLP(c=np.ones(17), A=np.ones((1, 17)), b=[1.0]))
        with pytest.raises(ProblemTooLargeError):
            lp_oracle(StandardLP(c=np.ones(4), A=np.ones((9, 4)), b=np.ones(9)))

    def test_infeasible(self):
        sol = lp_oracle(StandardLP(c=[1.0], A=[[1.0]], b=[-1.0]))
        assert sol.status == "infeasible"

    def test_zero_matrix(self):
        sol = lp_oracle(StandardLP(c=[1.0], A=[[0.0]], b=[0.0]))
        assert sol.status == "optimal" and sol.objective == 0.0
        sol = lp_oracle(StandardLP(c=[1.0], A=[[0.0]], b=[1.0]))
        assert sol.status == "infeasible"

    def test_known_vertex(self):
        sol = lp_oracle(StandardLP(c=[2.0, 1.0], A=[[1.0, 1.0]], b=[4.0]))
        assert sol.objective == pytest.approx(4.0)
        assert sol.x == pytest.approx([0.0, 4.0])


class TestSolveCone:
    def test_zero_feasible_gives_zero(self):
        A = np.eye(3)
        y = np.array([0.1, 0.2, -0.1])
        sol = solve_cone(ConeProblem(A=A, y=y, delta=1.0, objective="l1"))
        assert sol.status == "optimal"
        assert np.max(np.abs(sol.x)) <= 1e-6

    def test_equality_case_matches_lp(self):
        rng = np.random.default_rng(371)
        for _ in range(25):
            m, n = int(rng.integers(2, 6)), int(rng.integers(4, 10))
            lp, _ = random_feasible_lp(rng, m=m, n=n)
            want = solve_lp(StandardLP(c=np.ones(n), A=lp.A, b=lp.b))
            got = solve_cone(ConeProblem(A=lp.A, y=lp.b, delta=0.0, objective="l1"))
            assert got.status == "optimal"
            assert got.objective == pytest.approx(want.objective, abs=1e-6)
            assert got.residual_cone <= 1e-6

    def test_l2_unique_minimizer_repeatable(self):
        A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        y = np.array([2.0, 3.0])
        first = solve_cone(ConeProblem(A=A, y=y, delta=0.0, objective="l2"))
        second = solve_cone(ConeProblem(A=A, y=y, delta=0.0, objective="l2"))
        assert first.status == "optimal"
        assert np.allclose(first.x, second.x, atol=1e-10)

    def test_l2_symmetric_split(self):
        sol = solve_cone(ConeProblem(
            A=np.array([[1.0, 1.0]]), y=np.array([2.0]), delta=0.0, objective="l2"
        ))
        assert sol.status == "optimal"
        assert sol.x == pytest.approx([1.0, 1.0], abs=1e-6)

    def test_infeasible_ball_detected(self):
        sol = solve_cone(ConeProblem(
            A=np.array([[1.0]]), y=np.array([-5.0]), delta=1.0, objective="l1"
        ))
        assert sol.status == "infeasible"

    def test_feasibility_of_optimum(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            lp, x0 = random_feasible_lp(rng, m=4, n=8)
            delta = 0.5
            sol = solve_cone(ConeProblem(A=lp.A, y=lp.b, delta=delta, objective="l1"))
            assert sol.status == "optimal"
            assert sol.x.min() >= 0.0
            assert np.linalg.norm(lp.b - lp.A @ sol.x) <= delta + 1e-6

    def test_l1_noisy_on_noiseless_counts(self):
        # counts inside the cone of A: the lasso path starts at the NNLS
        # point, where the lasso's dual is a degenerate least-distance program
        bundle = get_fixture("fig2")
        net = bundle.network
        A = build_static_incidence(bundle.table, list(net.link_ids), net).matrix
        x0 = np.zeros(A.shape[1])
        x0[[1, 8, 11]] = [20.0, 50.0, 80.0]
        y = A @ x0
        sol = solve_cone(ConeProblem(A=A, y=y, delta=0.5, objective="l1"))
        assert sol.status == "optimal"
        assert np.linalg.norm(y - A @ sol.x) == pytest.approx(0.5, rel=1e-9)
        assert sol.x.min() >= 0.0
        assert sol.objective < x0.sum()

    def test_l1_ball_touching_image(self):
        # the ball meets the image {A x : x >= 0} in the one point (2, 0), so
        # the feasible set is {x >= 0 : x1 + x2 = 2}, on which the weights
        # favour the second column
        sol = solve_cone(ConeProblem(
            A=np.array([[1.0, 1.0], [0.0, 0.0]]), y=np.array([2.0, 1.0]),
            delta=1.0, weights=np.array([2.0, 1.0]), objective="l1",
        ))
        assert sol.status == "optimal"
        assert sol.x == pytest.approx([0.0, 2.0], abs=1e-12)
        assert sol.objective == pytest.approx(2.0, rel=1e-12)

    def test_weighted_objective(self):
        # weight strongly against the first column; mass should move away
        A = np.array([[1.0, 1.0]])
        y = np.array([2.0])
        sol = solve_cone(ConeProblem(
            A=A, y=y, delta=0.0, weights=np.array([100.0, 1.0]), objective="l1"
        ))
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(0.0, abs=1e-6)
        assert sol.x[1] == pytest.approx(2.0, abs=1e-6)

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            solve_cone(ConeProblem(
                A=np.eye(2), y=np.ones(2), weights=np.array([1.0, 0.0])
            ))

    def test_weights_on_l2_rejected(self):
        # the Euclidean norm takes no weights; they used to be dropped
        # without a word
        with pytest.raises(ValueError, match="weights"):
            solve_cone(ConeProblem(
                A=np.array([[1.0, 1.0]]), y=np.array([2.0]), delta=0.5,
                weights=np.array([100.0, 1.0]), objective="l2",
            ))

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            solve_cone(ConeProblem(A=np.eye(2), y=np.ones(2), delta=-0.1))

    @pytest.mark.parametrize("field,value", [
        ("A", np.array([[1.0, np.nan], [0.0, 1.0]])),
        ("A", np.array([[1.0, np.inf], [0.0, 1.0]])),
        ("y", np.array([1.0, np.nan])),
        ("y", np.array([-np.inf, 1.0])),
        ("delta", np.nan),
        ("delta", np.inf),
        ("weights", np.array([1.0, np.nan])),
        ("weights", np.array([1.0, np.inf])),
    ])
    def test_non_finite_input_rejected(self, field, value):
        args = dict(A=np.eye(2), y=np.ones(2), delta=0.5)
        args[field] = value
        for objective in ("l1", "l2"):
            with pytest.raises(ValueError):
                solve_cone(ConeProblem(objective=objective, **args))


def noisy_instance(rng):
    """Binary system, noisy counts, and a radius strictly between the
    distance from the counts to the nonnegative image and the count norm."""
    while True:
        lp, x0 = random_feasible_lp(rng, m=int(rng.integers(2, 7)),
                                    n=int(rng.integers(4, 11)))
        A = np.asarray(lp.A, dtype=float)
        y = A @ x0 + rng.normal(0.0, 0.3, A.shape[0])
        dist = nnls(A, y)[1]
        norm_y = float(np.linalg.norm(y))
        if norm_y > dist + 1e-3:
            return A, y, dist + rng.uniform(0.05, 0.95) * (norm_y - dist)


def on_support(x):
    return x > 1e-9 * max(1.0, float(x.max()))


def assert_l1_kkt(A, y, delta, sol, lam=1.0):
    """The optimality conditions of the l1 ball with weights ``lam`` (all
    one by default): the residual on the sphere and ``A'r/lam <= mu``, with
    equality on the support, for one multiplier ``mu > 0``."""
    assert sol.status == "optimal"
    x = sol.x
    assert x.min() >= 0.0
    r = y - A @ x
    assert np.linalg.norm(r) == pytest.approx(delta, rel=1e-9)
    ratio = (A.T @ r) / lam
    support = on_support(x)
    assert support.any()
    mu = float(np.median(ratio[support]))
    assert mu > 0.0
    assert ratio[support] == pytest.approx(np.full(support.sum(), mu), rel=1e-7)
    assert np.all(ratio <= mu * (1.0 + 1e-7))


def assert_l2_kkt(A, y, delta, sol):
    """The optimality conditions of the l2 ball: the residual on the sphere
    and ``x = max(0, nu A'r)`` for one multiplier ``nu > 0``.  At
    ``delta = 0``: ``A x = y`` and ``x = max(0, A'mu)`` for some ``mu``,
    which a linear program finds."""
    assert sol.status == "optimal"
    x = sol.x
    r = y - A @ x
    support = on_support(x)
    assert support.any()
    if delta == 0.0:
        assert np.linalg.norm(r) <= 1e-9 * np.linalg.norm(y)
        off = ~support
        fit = linprog(np.zeros(A.shape[0]), A_eq=A[:, support].T, b_eq=x[support],
                      A_ub=A[:, off].T, b_ub=np.full(off.sum(), 1e-9 * float(x.max())),
                      bounds=(None, None))
        assert fit.status == 0
        return
    assert np.linalg.norm(r) == pytest.approx(delta, rel=1e-9)
    grad = A.T @ r
    nu = float(np.median(x[support] / grad[support]))
    assert nu > 0.0
    assert x == pytest.approx(
        np.maximum(0.0, nu * grad), rel=1e-7, abs=1e-9 * float(x.max())
    )


class TestConeCertificates:
    """Optimality and infeasibility certificates of the cone solver,
    checked from first principles on random small instances."""

    def test_l1_noisy_kkt(self):
        rng = np.random.default_rng(505)
        for _ in range(40):
            A, y, delta = noisy_instance(rng)
            lam = rng.uniform(0.5, 2.0, A.shape[1])
            sol = solve_cone(ConeProblem(
                A=A, y=y, delta=delta, weights=lam, objective="l1"
            ))
            assert_l1_kkt(A, y, delta, sol, lam)
            assert sol.objective == pytest.approx(float(lam @ sol.x), rel=1e-12)

    def test_l2_noisy_kkt(self):
        rng = np.random.default_rng(606)
        for _ in range(40):
            A, y, delta = noisy_instance(rng)
            sol = solve_cone(ConeProblem(A=A, y=y, delta=delta, objective="l2"))
            assert_l2_kkt(A, y, delta, sol)

    def test_infeasible_only_with_nnls_certificate(self):
        rng = np.random.default_rng(707)
        verdicts = {"optimal": 0, "infeasible": 0}
        for _ in range(60):
            m, n = int(rng.integers(2, 7)), int(rng.integers(2, 9))
            A = (rng.random((m, n)) < 0.5).astype(float)
            y = rng.normal(0.0, 2.0, m)
            dist = nnls(A, y)[1]
            if dist < 1e-6:
                continue
            delta = float(rng.uniform(0.0, 1.5)) * dist
            for objective in ("l1", "l2"):
                sol = solve_cone(ConeProblem(
                    A=A, y=y, delta=delta, objective=objective
                ))
                assert sol.status in verdicts
                assert (sol.status == "infeasible") == (dist > delta)
                verdicts[sol.status] += 1
        assert min(verdicts.values()) > 0


class TestInfeasibleCertificate:
    """A ball is reported infeasible only with a certificate: the NNLS
    residual ``r`` with ``A'r <= 0`` and ``r'y > delta ||r||``."""

    # y = A (3, 4, 0) lies in the nonnegative image: every ball about it is feasible
    A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    y = np.array([3.0, 4.0])

    @pytest.fixture()
    def short_nnls(self, monkeypatch):
        # the first NNLS solve stops at x = 0, as if out of iterations
        calls = []

        def stub(E, f):
            calls.append(1)
            if len(calls) > 1:
                return nnls(E, f)
            return np.zeros(E.shape[1]), float(np.linalg.norm(f))

        monkeypatch.setattr(solver, "nnls", stub)

    @pytest.mark.parametrize("objective", ["l1", "l2"])
    def test_stopped_short_nnls_finished_by_bvls(self, short_nnls, objective):
        sol = solve_cone(ConeProblem(A=self.A, y=self.y, delta=1.0, objective=objective))
        check = assert_l1_kkt if objective == "l1" else assert_l2_kkt
        check(self.A, self.y, 1.0, sol)

    def test_uncertified_verdict_is_iteration_limit(self, short_nnls, monkeypatch):
        class StoppedShort:  # BVLS stops at x = 0 too
            status, message, x = 1, "", np.zeros(3)

        monkeypatch.setattr(solver, "lsq_linear", lambda *args, **kwargs: StoppedShort)
        sol = solve_cone(ConeProblem(A=self.A, y=self.y, delta=1.0, objective="l1"))
        assert sol.status == "iteration-limit"
        assert sol.iterations == 2

    def test_certified_verdict_kept(self, short_nnls):
        # x = 0 is the NNLS point of -y: r = -y, and A'r < 0 certifies
        y = -self.y
        sol = solve_cone(ConeProblem(A=self.A, y=y, delta=1.0, objective="l1"))
        assert sol.status == "infeasible"
        assert sol.iterations == 1


class TestNnlsDoor:
    """Every NNLS answer of the cone solver passes one KKT check: an answer
    that stops short is solved again by BVLS, counted as one more solve."""

    @pytest.mark.parametrize("site,objective,call", [
        ("feasibility", "l1", 1),
        ("ridge", "l2", 2),
        ("lasso", "l1", 2),
        ("min-norm", "l2", 2),
    ])
    def test_short_answer_is_finished(self, fig2, monkeypatch, site, objective, call):
        if site == "min-norm":
            # delta = 0: the least-norm point's least-distance program
            links = list(fig2.network.link_ids)[:8]
            A = build_static_incidence(fig2.table, links, fig2.network).matrix
            x = np.zeros(A.shape[1])
            x[[4, 8, 12]] = [30.0, 50.0, 70.0]
            y, delta = A @ x, 0.0
        else:
            # the ball search makes one penalized solve: the ridge that opens
            # the l2 search, or the lasso after the first l1 support piece
            # fails its certificate
            A, y, delta = noisy_instance(np.random.default_rng(1))
        problem = ConeProblem(A=A, y=y, delta=delta, objective=objective)
        want = solve_cone(problem).iterations
        calls = []

        def stub(E, f):  # the chosen call stops at x = 0
            calls.append("nnls")
            if calls.count("nnls") == call:
                return np.zeros(E.shape[1]), float(np.linalg.norm(f))
            return nnls(E, f)

        def bvls(*args, **kwargs):
            calls.append("bvls")
            return lsq_linear(*args, **kwargs)

        monkeypatch.setattr(solver, "nnls", stub)
        monkeypatch.setattr(solver, "lsq_linear", bvls)
        sol = solve_cone(problem)
        check = assert_l1_kkt if objective == "l1" else assert_l2_kkt
        check(A, y, delta, sol)
        assert calls.count("bvls") == 1
        assert sol.iterations == want + 1


def noisy_cdf_instances(fixture, support, noise_sd, m, seed, trials):
    """``(A, y, delta)`` of each trial of ``run_noisy_cdf``'s scheme."""
    bundle = get_fixture(fixture)
    pt, net = bundle.table, bundle.network
    out = []
    for t in range(trials):
        rng = substream(seed, t)
        x_true = sample_allocation(pt, support, rng)
        measured = sample_measurements(list(net.link_ids), m, rng)
        A = build_static_incidence(pt, measured, net).matrix
        y = add_noise(A @ x_true, noise_sd, rng)
        out.append((A, y, noise_sd * np.sqrt(m)))
    return out


@pytest.fixture(scope="module")
def fig2_noisy():
    return (noisy_cdf_instances("fig2", (4, 8, 12), 0.1, 10, 17, 100)
            + noisy_cdf_instances("fig2", (1, 7, 10, 13), 0.02, 10, 17, 100))


class TestL2Ball:
    """The exact l2 ball solve: secular-equation roots on support pieces,
    certified by the KKT conditions, with NNLS solves as the fallback."""

    def test_matches_bisection_oracle(self, fig2_noisy):
        instances = fig2_noisy + noisy_cdf_instances(
            "nguyen", (0, 10, 20, 30, 40, 50, 60), 1.0, 22, 17, 30
        )
        compared = 0
        for A, y, delta in instances:
            sol = solve_cone(ConeProblem(A=A, y=y, delta=delta, objective="l2"))
            feasible = nnls(A, y)[1] <= delta
            assert sol.status == ("optimal" if feasible else "infeasible")
            if feasible:
                want = l2_ball_oracle(A, y, delta)
                assert np.linalg.norm(sol.x - want) <= 1e-9 * np.linalg.norm(want)
                compared += 1
        assert compared >= 200

    def test_few_nnls_solves(self, fig2_noisy):
        # iterations counts the feasibility NNLS plus the fallback solves
        counts = [
            solve_cone(ConeProblem(A=A, y=y, delta=delta, objective="l2")).iterations
            for A, y, delta in fig2_noisy
        ]
        assert np.median(counts) <= 3

    def test_first_support_fails_certificate(self):
        # nnls picks the first of the two equal columns; the optimum splits
        sol = solve_cone(ConeProblem(
            A=np.array([[1.0, 1.0]]), y=np.array([2.0]), delta=0.5, objective="l2"
        ))
        assert sol.status == "optimal"
        assert sol.x == pytest.approx([0.75, 0.75], rel=1e-12)
        assert sol.iterations == 2  # the feasibility check and one ridge solve

    def test_repeated_support_bisects(self):
        # two pieces here have their roots at each other's ends of the
        # bracket; solving them again would trade places for ever
        A, y, delta = noisy_cdf_instances("fig2", (4, 8, 12), 0.1, 10, 9, 113)[112]
        sol = solve_cone(ConeProblem(A=A, y=y, delta=delta, objective="l2"))
        assert sol.status == "optimal"
        want = l2_ball_oracle(A, y, delta)
        assert np.linalg.norm(sol.x - want) <= 1e-9 * np.linalg.norm(want)

    def test_piece_without_root(self):
        A_S = np.array([[1.0], [0.0]])
        y = np.array([0.6, 0.8])  # 0.8 of it lies outside the range of A_S
        assert _piece_root(A_S, y, 0.5, 0.0, np.inf) is None
        nu, r = _piece_root(A_S, y, 0.9, 0.0, np.inf)
        assert nu == pytest.approx(0.6 / np.sqrt(0.81 - 0.64) - 1.0, rel=1e-12)
        assert r == pytest.approx([0.6 / (1.0 + nu), 0.8], rel=1e-12)
        assert _piece_root(A_S, y, 0.9, 0.0, 0.4) is None  # root beyond hi

    def test_ball_touching_image(self):
        # the counts lie exactly delta from the image {A x : x >= 0}, which
        # the ball meets in one point
        A = np.array([[1.0, 1.0], [0.0, 0.0]])
        sol = solve_cone(ConeProblem(
            A=A, y=np.array([2.0, 1.0]), delta=1.0, objective="l2"
        ))
        assert sol.status == "optimal"
        assert sol.x == pytest.approx([1.0, 1.0], rel=1e-9)


class TestL1Ball:
    """The exact l1 ball solve: closed-form roots on support pieces of the
    lasso path, certified by the KKT conditions, with NNLS solves as the
    fallback."""

    def test_kkt_conditions(self, fig2_noisy):
        instances = fig2_noisy + noisy_cdf_instances(
            "nguyen", (0, 10, 20, 30, 40, 50, 60), 1.0, 22, 17, 30
        )
        checked = 0
        for A, y, delta in instances:
            sol = solve_cone(ConeProblem(A=A, y=y, delta=delta, objective="l1"))
            if nnls(A, y)[1] > delta:
                assert sol.status == "infeasible"
                continue
            assert_l1_kkt(A, y, delta, sol)
            checked += 1
        assert checked >= 200

    def test_few_nnls_solves(self, fig2_noisy):
        # iterations counts the feasibility NNLS plus the fallback solves
        counts = [
            solve_cone(ConeProblem(A=A, y=y, delta=delta, objective="l1")).iterations
            for A, y, delta in fig2_noisy
        ]
        assert np.median(counts) <= 3

    @pytest.mark.parametrize("support,noise_sd,trial", [
        # the optimum's root sits on a breakpoint of the path: the piece
        # before it has the same root and fails its certificate
        ((4, 8, 12), 0.1, 415),
        # as above, and roundoff puts the optimum's root just beyond the
        # upper end of the bracket, so every root must be certified
        ((1, 7, 10, 13), 0.02, 4),
        # the optimum's own piece certifies only with a slack scaled by the
        # roundoff in A'r; scaled by the multiplier, it fails
        ((4, 8, 12), 0.1, 84),
    ])
    def test_regression_trials(self, support, noise_sd, trial):
        A, y, delta = noisy_cdf_instances(
            "fig2", support, noise_sd, 10, 5, trial + 1
        )[trial]
        sol = solve_cone(ConeProblem(A=A, y=y, delta=delta, objective="l1"))
        assert_l1_kkt(A, y, delta, sol)

    def test_piece_root(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([0.6, 0.8])  # 0.8 of it lies outside the range of A[:, 0]
        lam = np.ones(2)
        first = np.array([True, False])
        assert _l1_piece(A, y, lam, 0.5, first) == (None, None)
        # on the first column x = 0.6 - mu leaves the residual (mu, 0.8),
        # so ||r|| = 0.9 at mu = sqrt(0.81 - 0.64), nu = 1/mu
        mu = np.sqrt(0.81 - 0.64)
        nu, x = _l1_piece(A[:, :1], y, lam[:1], 0.9, np.array([True]))
        assert nu == pytest.approx(1.0 / mu, rel=1e-12)
        assert x == pytest.approx([0.6 - mu], rel=1e-12)
        # with the second column present A'r = 0.8 > mu there: no certificate
        nu, x = _l1_piece(A, y, lam, 0.9, first)
        assert nu == pytest.approx(1.0 / mu, rel=1e-12)
        assert x is None
        # two equal columns have no lasso point of their own
        assert _l1_piece(np.array([[1.0, 1.0], [0.0, 0.0]]), y, lam, 0.9,
                         np.array([True, True])) == (None, None)


def nguyen_dynamic_instance(nguyen, seed):
    """Noiseless counts on a time-expanded nguyen system, 25 of 38 links
    measured at times 3 and 4 (50 x 297), from four random columns."""
    rng = np.random.default_rng(seed)
    ids = list(nguyen.network.link_ids)
    links = sorted(rng.choice(ids, 25, replace=False), key=ids.index)
    A = build_dynamic_system(nguyen.table, nguyen.network, grid_rows(links, (3, 4))).matrix
    x = np.zeros(A.shape[1])
    x[rng.choice(A.shape[1], 4, replace=False)] = rng.uniform(1.0, 50.0, 4)
    return A, A @ x


class TestDynamicBall:
    """Ridge points on large rank-deficient stacks, where scipy's NNLS can
    return a point that misses its KKT conditions; a multiplier search on
    such points does not settle."""

    @pytest.mark.parametrize("seed", [2, 14, 38])
    def test_l2_optimal(self, nguyen, seed):
        A, y = nguyen_dynamic_instance(nguyen, seed)
        sol = solve_cone(ConeProblem(A=A, y=y, delta=0.7, objective="l2"))
        assert_l2_kkt(A, y, 0.7, sol)

    @pytest.mark.parametrize("seed", [2, 14, 38])
    def test_l1_optimal(self, nguyen, seed):
        A, y = nguyen_dynamic_instance(nguyen, seed)
        sol = solve_cone(ConeProblem(A=A, y=y, delta=0.7, objective="l1"))
        assert_l1_kkt(A, y, 0.7, sol)


class TestRidgeSeed:
    """The l2 ball search opens with a ridge solve at the multiplier where
    the ridge path, expanded to first order at the NNLS point, meets the
    sphere; without that multiplier it opens with the piece on the NNLS
    support, as the unseeded search does."""

    # x_ls = (0.48, 0.18) on both columns, residual (0, 0, 0.8)
    A = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    y = np.array([0.48, 0.36, 0.8])

    def test_closed_form(self):
        x_ls, dist = nnls(self.A, self.y)
        assert x_ls == pytest.approx([0.48, 0.18], rel=1e-12)
        assert dist == pytest.approx(0.8, rel=1e-12)
        # ridge residuals y_i / (1 + nu a_i²) are (0.48, 0.36/4)/nu to
        # first order, on the sphere of radius 0.9 with the 0.8 left over
        want = np.sqrt((0.48**2 + 0.09**2) / (0.81 - 0.64))
        assert _ridge_seed(self.A, x_ls, dist, 0.9, 0.0, np.inf) == pytest.approx(
            want, rel=1e-12)
        assert _ridge_seed(self.A, x_ls, dist, 0.9, 1.01 * want, np.inf) is None
        assert _ridge_seed(self.A, x_ls, dist, 0.9, 0.0, 0.99 * want) is None

    @pytest.fixture()
    def seeds(self, monkeypatch):
        got = []

        def spy(*args):
            got.append(_ridge_seed(*args))
            return got[-1]

        monkeypatch.setattr(solver, "_ridge_seed", spy)
        return got

    def test_singular_support_searches_from_it(self, seeds, monkeypatch):
        # x_ls = (0.5, 0.5) is an NNLS point of the unit counts on two equal
        # columns; their Gram matrix is singular, so the piece on both opens
        answers = [(np.array([0.5, 0.5]), 0.0)]
        monkeypatch.setattr(solver, "nnls", lambda E, f: answers.pop() if answers
                            else nnls(E, f))
        sol = solve_cone(ConeProblem(
            A=np.array([[1.0, 1.0]]), y=np.array([2.0]), delta=0.5, objective="l2"
        ))
        assert seeds == [None]
        assert sol.status == "optimal"
        assert sol.x == pytest.approx([0.75, 0.75], rel=1e-12)
        assert sol.iterations == 1  # the first piece is certified

    def test_seed_outside_bracket(self, seeds):
        # a radius far from the image puts the first-order multiplier past hi
        rng = np.random.default_rng(606)
        for _ in range(40):
            A, y, delta = noisy_instance(rng)
            assert_l2_kkt(A, y, delta, solve_cone(
                ConeProblem(A=A, y=y, delta=delta, objective="l2")))
        assert 0 < seeds.count(None) < len(seeds)

    def test_same_answer_as_unseeded(self, fig2_noisy, nguyen, monkeypatch):
        instances = (fig2_noisy
                     + noisy_cdf_instances("fig2", (4, 8, 12), 0.1, 10, 29, 150)
                     + noisy_cdf_instances("fig2", (1, 7, 10, 13), 0.02, 10, 29, 150)
                     + noisy_cdf_instances("nguyen", (0, 10, 20, 30, 40, 50, 60),
                                           1.0, 22, 29, 30)
                     + [(*nguyen_dynamic_instance(nguyen, seed), 0.7)
                        for seed in (2, 14, 38)])
        problems = [ConeProblem(A=A, y=y, delta=delta, objective="l2")
                    for A, y, delta in instances]
        seeded = [solve_cone(p) for p in problems]
        monkeypatch.setattr(solver, "_ridge_seed", lambda *args: None)
        optimal = 0
        for p, got in zip(problems, seeded):
            want = solve_cone(p)
            assert got.status == want.status
            if got.status == "optimal":
                assert_l2_kkt(p.A, p.y, p.delta, got)
                assert np.linalg.norm(got.x - want.x) <= 1e-12 * np.linalg.norm(want.x)
                optimal += 1
        assert optimal >= 500

    def test_one_piece_per_interior_solve(self, fig2_noisy, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return l2_piece(*args)

        l2_piece = solver._l2_piece
        monkeypatch.setattr(solver, "_l2_piece", counted)
        pieces = []
        for A, y, delta in fig2_noisy:
            if not nnls(A, y)[1] < delta < np.linalg.norm(y):
                continue
            calls.clear()
            sol = solve_cone(ConeProblem(A=A, y=y, delta=delta, objective="l2"))
            assert sol.status == "optimal"
            pieces.append(len(calls))
        assert len(pieces) >= 150
        assert np.median(pieces) <= 1

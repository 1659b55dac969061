"""Independent reference computations for the test suite.

Everything here deliberately avoids the production matrix builders and
solvers: counts come from walking vehicles over the network, and optima
come from exhaustive enumeration or, for the l2 ball, from plain bisection
over NNLS solves.  The one exception is :func:`solve_lp_stack`, which is
no reference but the parity helper: it runs the stacked simplex on a list
of programs, so that each answer can be compared with ``solve_lp``'s.
:func:`pivot_loop_oracle` and :func:`phase1_oracle` are the simplex's
Bland scans read entry by entry from Python lists, the reference for the
solver's array scans; they share its rank-1 update.
:func:`allocation_oracle` is the allocation sampler as it walked every OD
pair of the table, the reference for the one that walks only the pairs
its support touches.
:func:`zero_count_presolve` is the estimators' presolve read row by row,
the reference for the one phase-1 door's array form.  :func:`zero_floor`
is the zero rule of every reported flow read entry by entry, the reference
for ``accept_points``' one select.
:func:`json_text_oracle` is the JSON text ``fileio.dump_json`` must write,
from ``json``'s own encoder.  :func:`grid_rows` is no reference either: it
spells the paper's links x times grid as the rows a dynamic system is built
from.
"""

from __future__ import annotations

import json
import math
from itertools import combinations
from typing import Sequence

import numpy as np
from scipy.optimize import nnls

from odflow.fileio import _fmt
from odflow.solver import (
    _CLEANUP_TOL,
    _MAX_PIVOTS,
    _PIVOT_TOL,
    _RATIO_TIE_TOL,
    _TOL_FEAS,
    STATUS_INFEASIBLE,
    STATUS_ITERATION_LIMIT,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    FeasibleBasis,
    Solution,
    StandardLP,
    _lp_cost,
    _lp_system,
    _pivot,
    solve_lp_padded,
)


class ProblemTooLargeError(ValueError):
    """The brute-force oracle refuses instances beyond its guard."""


def lp_oracle(p: StandardLP) -> Solution:
    """Enumerate basic solutions; exact up to linear-solve roundoff.

    Guarded to tiny instances: every full-rank column subset of size
    rank(A) is solved exactly and the best feasible basic solution wins.
    Assumes the optimum is attained at a vertex (bounded problem).
    """
    A = np.atleast_2d(np.asarray(p.A, dtype=float))
    b = np.asarray(p.b, dtype=float).ravel()
    c = np.asarray(p.c, dtype=float).ravel()
    m, n = A.shape
    if n > 16 or m > 8:
        raise ProblemTooLargeError(f"oracle guard exceeded: {m}x{n}")
    if p.sense not in ("min", "max"):
        raise ValueError(f"unknown sense {p.sense!r}")
    better = (lambda a, b: a < b) if p.sense == "min" else (lambda a, b: a > b)

    rank = int(np.linalg.matrix_rank(A, tol=1e-10)) if A.size else 0
    scale = max(1.0, float(np.max(np.abs(b))) if b.size else 0.0)
    best_obj = None
    best_x = None
    if rank == 0:
        if float(np.max(np.abs(b), initial=0.0)) <= 1e-9 * scale:
            best_obj, best_x = 0.0, np.zeros(n)
    else:
        for subset in combinations(range(n), rank):
            cols = A[:, subset]
            xs, _, col_rank, _ = np.linalg.lstsq(cols, b, rcond=None)
            if col_rank < rank:
                continue
            if float(np.max(np.abs(cols @ xs - b))) > 1e-9 * scale:
                continue
            if xs.size and float(xs.min()) < -1e-9 * scale:
                continue
            obj = float(c[list(subset)] @ xs)
            if best_obj is None or better(obj, best_obj):
                x = np.zeros(n)
                x[list(subset)] = xs
                best_obj, best_x = obj, x
    if best_x is None:
        return Solution(x=np.zeros(n), status=STATUS_INFEASIBLE, objective=math.nan)
    return Solution(
        x=best_x,
        status=STATUS_OPTIMAL,
        objective=best_obj,
        residual_eq=float(np.max(np.abs(A @ best_x - b))),
    )


def solve_lp_stack(problems: Sequence[StandardLP]) -> list[Solution]:
    """:func:`solve_lp` on many programs of one column count at once.

    Entry ``i`` is ``solve_lp(problems[i])``, field for field and to the
    byte: the programs are padded into one stack and solved by
    :func:`solve_lp_padded`, a maximized objective as the minimum of its
    negation, and each objective and residual is formed from the
    program's point as :func:`lp_phase2` forms it.  Inputs are checked as
    :func:`solve_lp` checks them, all before the first pivot.
    """
    if not problems:
        raise ValueError("empty LP stack")
    systems, costs = [], []
    for p in problems:
        A, b = _lp_system(p.A, p.b)
        c = _lp_cost(p.c, A.shape[1], p.sense)
        costs.append(c if p.sense == "min" else -c)
        systems.append((A, b, c))
    if len({A.shape[1] for A, _, _ in systems}) > 1:
        raise ValueError("stacked programs must have one column count")

    rows = [A.shape[0] for A, _, _ in systems]
    A_pad = np.zeros((len(systems), max(rows), systems[0][0].shape[1]))
    b_pad = np.zeros(A_pad.shape[:2])
    for k, (A, b, _) in enumerate(systems):
        A_pad[k, :rows[k]], b_pad[k, :rows[k]] = A, b
    sol = solve_lp_padded(np.array(costs), A_pad, b_pad, rows)
    out = []
    for k, (p, (A, b, c)) in enumerate(zip(problems, systems)):
        status, x = sol.status[k], sol.x[k].copy()
        has_basis = status in (STATUS_OPTIMAL, STATUS_UNBOUNDED)
        if status == STATUS_OPTIMAL:
            objective = float(c @ x)
        elif status == STATUS_UNBOUNDED:
            objective = -math.inf if p.sense == "min" else math.inf
        else:
            objective = math.nan
        out.append(Solution(
            x=x,
            status=status,
            objective=objective,
            residual_eq=float(np.max(np.abs(A @ x - b), initial=0.0)) if has_basis else 0.0,
            iterations=int(sol.iterations[k]),
            basis=tuple(sol.basis[k, :sol.basis_size[k]].tolist()) if has_basis else None,
            unbounded_index=int(sol.unbounded_index[k]) if sol.unbounded_index[k] >= 0 else None,
        ))
    return out


def pivot_loop_oracle(T, basis):
    """``solver._pivot_loop`` with every Bland scan over Python lists: the
    entering column is the first reduced cost below ``-_TOL_FEAS`` in the
    cost row's list, found by a generator."""
    m, n = T.shape[0] - 1, T.shape[1] - 1
    for it in range(_MAX_PIVOTS):
        j = next((k for k, r in enumerate(T[m, :n].tolist()) if r < -_TOL_FEAS), None)
        if j is None:
            return STATUS_OPTIMAL, it, None
        x_b = T[:m, n].tolist()
        ratios = {
            i: max(x_b[i], 0.0) / d
            for i, d in enumerate(T[:m, j].tolist())
            if d > _PIVOT_TOL
        }
        if not ratios:
            return STATUS_UNBOUNDED, it + 1, j
        rmin = min(ratios.values())
        cut = rmin + _RATIO_TIE_TOL * (1.0 + rmin)
        leave = min((i for i, q in ratios.items() if q <= cut), key=basis.__getitem__)
        _pivot(T, leave, j)
        basis[leave] = j
    return STATUS_ITERATION_LIMIT, _MAX_PIVOTS, None


def phase1_oracle(A, b) -> FeasibleBasis:
    """``solver.lp_phase1`` on :func:`pivot_loop_oracle`, whose cleanup
    takes each leftover artificial's replacement by a list scan of its row
    that tests ``k not in basis``."""
    A, b = _lp_system(A, b)
    m, n = A.shape
    sign = np.where(b < 0, -1.0, 1.0)
    A_work, b_work = A * sign[:, None], b * sign
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n], T[:m, -1] = A_work, b_work
    T[m] = -T[:m].sum(axis=0)
    T[:m, n:-1] = np.eye(m)
    basis = list(range(n, n + m))
    status, iters, _ = pivot_loop_oracle(T, basis)
    if status == STATUS_ITERATION_LIMIT:
        return FeasibleBasis(A=A, b=b, status=status, iterations=iters)
    artificial = [pos for pos, k in enumerate(basis) if k >= n]
    if artificial:
        x_b = T[:m, -1].tolist()
        left = sum(x_b[pos] for pos in artificial)
        if left > _TOL_FEAS * max(1.0, float(np.abs(b).sum())):
            return FeasibleBasis(A=A, b=b, status=STATUS_INFEASIBLE, iterations=iters)
    redundant = set()
    for pos in artificial:
        j = next((k for k, v in enumerate(T[pos, :n].tolist())
                  if abs(v) > _CLEANUP_TOL and k not in basis), None)
        if j is None:
            redundant.add(basis[pos] - n)
        else:
            _pivot(T, pos, j)
            basis[pos] = j
    rows = [i for i in range(m) if i not in redundant]
    kept = [pos for pos, k in enumerate(basis) if k < n]
    tableau = T[kept, :n + 1]
    tableau[:, n] = T[kept, -1]
    return FeasibleBasis(A=A, b=b, status=STATUS_OPTIMAL, iterations=iters,
                         rows=tuple(rows), basis=tuple(basis[pos] for pos in kept),
                         A_kept=A_work[rows], b_kept=b_work[rows], tableau=tableau)


def zero_count_presolve(A, y):
    """``(rows, cols)``: the row and column indices of ``A x = y, x >= 0``
    kept by the zero-count presolve, read row by row.  A row goes when its
    count is zero and no entry is negative, and with it every column with
    a positive entry there, which every feasible point holds at zero."""
    A, y = np.asarray(A, dtype=float), np.asarray(y, dtype=float)
    rows, dropped = [], set()
    for i, row in enumerate(A.tolist()):
        if y[i] == 0 and min(row, default=0.0) >= 0:
            dropped.update(j for j, a in enumerate(row) if a > 0)
        else:
            rows.append(i)
    cols = [j for j in range(A.shape[1]) if j not in dropped]
    return np.array(rows, dtype=int), np.array(cols, dtype=int)


def zero_floor(x) -> np.ndarray:
    """A solver point as the estimators report it, read entry by entry:
    every entry at or below 1e-8 times the larger of 1 and the point's
    largest entry is 0.0, and every other entry is kept as it is."""
    entries = np.asarray(x, dtype=float).tolist()
    floor = 1e-8 * max([1.0] + entries)
    return np.array([0.0 if v <= floor else v for v in entries])


def allocation_oracle(pt, support, rng, flow_range=(1.0, 100.0)) -> np.ndarray:
    """``experiments.sample_allocation`` by a walk over every OD pair of the
    table, in order, each pair's touched paths read from a mask of the
    support: one uniform flow, then one standard exponential per touched
    path, for each pair the support touches."""
    x = np.zeros(pt.n_paths)
    in_support = np.zeros(pt.n_paths, dtype=bool)
    in_support[list(support)] = True
    for group in pt.paths_by_od:
        group = np.array(group, dtype=np.intp)
        touched = group[in_support[group]]
        if touched.size:
            flow = rng.uniform(*flow_range)
            share = rng.standard_exponential(touched.size)
            x[touched] = flow * (share * (1.0 / sum(share.tolist())))
    return x


def l2_ball_oracle(A, y, delta) -> np.ndarray:
    """``min ||x||  s.t.  ||A x - y|| <= delta, x >= 0`` by bisection on the
    multiplier of its penalized program.

    For a multiplier ``mu`` the point ``argmin_{x >= 0} ||x||² + mu·||A x - y||²``
    is one NNLS solve on ``[sqrt(mu) A; I]``, and its residual falls as
    ``mu`` grows.  A tenfold search brackets the ``mu`` where the residual
    reaches ``delta``; bisection then closes the bracket to adjacent
    floating-point numbers, and the point at its upper (feasible) end is
    returned.  Assumes a feasible ball that excludes zero.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    n = A.shape[1]

    def penalized(mu):
        root = math.sqrt(mu)
        return nnls(np.vstack([root * A, np.eye(n)]),
                    np.concatenate([root * y, np.zeros(n)]))[0]

    def outside(x):
        return np.linalg.norm(A @ x - y) > delta

    lo, hi = 0.0, 1.0
    x_hi = penalized(hi)
    while outside(x_hi):
        lo, hi = hi, 10.0 * hi
        x_hi = penalized(hi)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        x = penalized(mid)
        if outside(x):
            lo = mid
        else:
            hi, x_hi = mid, x
    return x_hi


def simulate_static_counts(net, table, measured_links, x):
    """Walk x[n] vehicles down each path and tally crossings per link."""
    counts = {lid: 0.0 for lid in measured_links}
    for n, path in enumerate(table.paths):
        if x[n] == 0:
            continue
        for lid in path.links:
            if lid in counts:
                counts[lid] += x[n]
    return np.array([counts[lid] for lid in measured_links])


def static_incidence_oracle(table, measured_links):
    """The static incidence matrix entry by entry: 1 where the path crosses
    the measured link."""
    return np.array([[1.0 if lid in p.links else 0.0 for p in table.paths]
                     for lid in measured_links])


def simulate_dynamic_counts(net, table, row_labels, col_labels, x):
    """Tally vehicles per (link, count time) from per-departure flows.

    A vehicle that departs on path n at time d enters each link of the
    path after the travel times of the links before it, and is counted on
    that link at its entry time.
    """
    counts = {lbl: 0.0 for lbl in row_labels}
    for j, (n, dep) in enumerate(col_labels):
        if x[j] == 0:
            continue
        clock = dep
        for lid in table.paths[n].links:
            key = (lid, clock)
            if key in counts:
                counts[key] += x[j]
            clock += net.link_by_id[lid].travel_time
    return np.array([counts[lbl] for lbl in row_labels])


def grid_rows(links, times) -> list:
    """The (link, count time) rows of the links x times grid, link-major."""
    return [(lid, t) for lid in links for t in times]


def brute_force_grid_paths(n, max_turns):
    """Count monotone grid paths with at most ``max_turns`` heading changes
    by enumerating every move sequence."""
    from itertools import combinations

    side = n // 2
    total = 0
    for east_positions in combinations(range(n), side):
        seq = ["N"] * n
        for p in east_positions:
            seq[p] = "E"
        turns = sum(1 for a, b in zip(seq, seq[1:]) if a != b)
        if turns <= max_turns:
            total += 1
    return total


def _round12(obj):
    """Recursively coerce floats to their 12-significant-digit value."""
    if isinstance(obj, float):
        return float(_fmt(obj)) if obj == obj and abs(obj) != float("inf") else obj
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def json_text_oracle(data) -> str:
    """The text ``fileio.dump_json`` writes, by ``json``'s own encoder over
    a rounded copy of ``data``."""
    return json.dumps(_round12(data), indent=2, sort_keys=True) + "\n"

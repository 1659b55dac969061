"""Independent reconstruction of the workloads' inputs, and the references
the benchmark checks odflow's outputs against.

Nothing here calls odflow's sampling, network or solver code.  Trial
inputs are rebuilt from the documented scheme (a Philox4x64 generator
keyed by the sweep seed and jumped ``p * trials + t`` times, then the
draws in the order ``odflow.experiments`` describes), incidence matrices
from the path catalog, optimum values with HiGHS (``scipy.optimize.linprog``)
and ball distances with bounded-variable least squares
(``scipy.optimize.lsq_linear``).  Only the fixture data (network and path
catalog) comes from odflow.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog, lsq_linear


def trial_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed).jumped(index))


def od_groups(table) -> list[list[int]]:
    """Path positions of each OD pair, in the table's OD order."""
    pos = {od: k for k, od in enumerate(table.od_pairs)}
    groups: list[list[int]] = [[] for _ in table.od_pairs]
    for n, p in enumerate(table.paths):
        groups[pos[p.od]].append(n)
    return groups


def incidence(table, measured) -> np.ndarray:
    """Rows: measured links in the given order; columns: catalogued paths."""
    return np.array([[1.0 if lid in p.links else 0.0 for p in table.paths]
                     for lid in measured])


def path_lengths(net, table) -> np.ndarray:
    length = {ln.id: ln.length for ln in net.links}
    return np.array([sum(length[lid] for lid in p.links) for p in table.paths])


def link_delays(net, path) -> dict:
    """Travel time accumulated before each link of the path."""
    tt = {ln.id: ln.travel_time for ln in net.links}
    out, d = {}, 0
    for lid in path.links:
        out[lid] = d
        d += tt[lid]
    return out


def dynamic_columns(net, table, links, times) -> list[tuple[int, int]]:
    """Every (path, departure) pair some (link, count time) row observes."""
    cols = set()
    for n, p in enumerate(table.paths):
        for lid, d in link_delays(net, p).items():
            if lid in links:
                cols.update((n, t - d) for t in times)
    return sorted(cols)


def dynamic_matrix(net, table, rows, cols) -> np.ndarray:
    """Entry 1 when a departure on the path is crossing the link at the
    row's count time."""
    delays = [link_delays(net, p) for p in table.paths]
    A = np.zeros((len(rows), len(cols)))
    for i, (lid, t) in enumerate(rows):
        for j, (n, dep) in enumerate(cols):
            if delays[n].get(lid) == t - dep:
                A[i, j] = 1.0
    return A


def allocation(groups, n_paths, support, rng, flow_range) -> np.ndarray:
    """One uniform flow per touched OD pair, split by a flat Dirichlet draw."""
    x = np.zeros(n_paths)
    chosen = set(support)
    for group in groups:
        touched = [n for n in group if n in chosen]
        if touched:
            flow = rng.uniform(*flow_range)
            x[touched] = flow * rng.dirichlet(np.ones(len(touched)))
    return x


def measured_prefix(link_ids, perm, m) -> tuple:
    return tuple(link_ids[i] for i in sorted(perm[:m]))


def recovery_trial(groups, n_paths, n_links, spec, flow_range, seed, index):
    """(x_true, link permutation) of one recovery-sweep trial."""
    rng = trial_rng(seed, index)
    if isinstance(spec, int):
        support = sorted(int(i) for i in rng.choice(n_paths, size=spec, replace=False))
    else:
        support = spec
    x = allocation(groups, n_paths, support, rng, flow_range)
    return x, rng.permutation(n_links)


def noisy_trial(groups, table, link_ids, support, m, nu, flow_range, seed, index):
    """(x_true, measured links, A, y) of one noisy trial: exact counts plus
    N(0, nu²) noise."""
    rng = trial_rng(seed, index)
    x = allocation(groups, table.n_paths, support, rng, flow_range)
    measured = measured_prefix(link_ids, rng.permutation(len(link_ids)), m)
    A = incidence(table, measured)
    y = A @ x
    return x, measured, A, y + nu * rng.standard_normal(y.shape)


def vmt_trial(groups, table, link_ids, m, flow_range, seed, index):
    """(x_true, A) of one travel-bound trial: one random path per OD pair."""
    rng = trial_rng(seed, index)
    x = np.zeros(table.n_paths)
    for group in groups:
        n = group[rng.integers(len(group))]
        x[n] = rng.uniform(*flow_range)
    measured = measured_prefix(link_ids, rng.permutation(len(link_ids)), m)
    return x, incidence(table, measured)


def unbounded_structurally(A) -> bool:
    """Whether ``max v'x s.t. A x = y, x >= 0`` is unbounded, for a 0/1
    matrix, positive lengths ``v`` and a feasible ``y``.

    A ray ``d >= 0`` with ``A d = 0`` can only use columns of zeros, since
    every entry is nonnegative; with positive lengths any such column
    raises the objective without limit.
    """
    return bool((~np.asarray(A, dtype=bool).any(axis=0)).any())


def highs_optimum(c, A, b, sense="min") -> float:
    """Optimum value of ``min/max c'x s.t. A x = b, x >= 0`` by HiGHS;
    ``inf`` when a maximum is unbounded, ``nan`` when infeasible."""
    sign = 1.0 if sense == "min" else -1.0
    res = linprog(sign * np.asarray(c, dtype=float), A_eq=A, b_eq=b,
                  bounds=(0, None), method="highs")
    if res.status == 3:
        return sign * math.inf
    if res.status != 0:
        return math.nan
    return sign * float(res.fun)


def ball_distance(A, y) -> float:
    """Distance from ``y`` to ``{A x : x >= 0}``."""
    res = lsq_linear(A, y, bounds=(0, np.inf), method="bvls", tol=1e-14)
    return float(np.linalg.norm(A @ res.x - y))


def _support(x) -> np.ndarray:
    return x > 1e-9 * max(1.0, float(x.max(initial=0.0)))


def kkt_l2_ball(A, y, x, delta, rtol=1e-7) -> str | None:
    """``argmin ||x|| s.t. ||A x - y|| <= delta, x >= 0`` with the ball
    active: ``x = max(0, nu·A'(y - A x))`` for one ``nu > 0``."""
    r = y - A @ x
    if abs(np.linalg.norm(r) - delta) > rtol * delta:
        return f"l2 residual {np.linalg.norm(r):.12g} is not delta {delta:.12g}"
    grad = A.T @ r
    on = _support(x)
    if x.min() < 0 or not on.any():
        return "l2 point is negative or zero"
    nu = float(np.median(x[on] / grad[on]))
    scale = float(x.max())
    if not nu > 0 or np.max(np.abs(x - np.maximum(0.0, nu * grad))) > rtol * scale:
        return "l2 point is not max(0, nu A'(y - Ax))"
    return None


def kkt_l1_ball(A, y, x, delta, rtol=1e-7) -> str | None:
    """``argmin sum(x) s.t. ||A x - y|| <= delta, x >= 0`` with the ball
    active: ``A'(y - A x)`` is at most ``mu`` and equals it on the support."""
    r = y - A @ x
    if abs(np.linalg.norm(r) - delta) > rtol * delta:
        return f"l1 residual {np.linalg.norm(r):.12g} is not delta {delta:.12g}"
    g = A.T @ r
    on = _support(x)
    if x.min() < 0 or not on.any():
        return "l1 point is negative or zero"
    mu = float(np.median(g[on]))
    if not mu > 0 or np.max(np.abs(g[on] - mu)) > rtol * mu or g.max() > mu * (1 + rtol):
        return "l1 point fails its multiplier conditions"
    return None


def kkt_l2_equality(A, y, x, tol) -> str | None:
    """``argmin ||x|| s.t. A x = y, x >= 0``: some ``w`` has ``A'w = x`` on
    the support and ``A'w <= 0`` off it, found as an LP feasibility problem
    with slack ``tol`` (outputs are printed to 12 digits)."""
    on = _support(x)
    At = A.T
    A_ub = np.vstack([At[on], -At[on], At[~on]])
    b_ub = np.concatenate([x[on] + tol, -x[on] + tol, np.full((~on).sum(), tol)])
    res = linprog(np.zeros(A.shape[0]), A_ub=A_ub, b_ub=b_ub,
                  bounds=(None, None), method="highs")
    if res.status != 0:
        return "no multiplier certifies the l2 point"
    return None

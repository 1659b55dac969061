"""Flow-recovery programs layered over the measurement systems.

Every estimator takes a :class:`~odflow.network.MeasurementSystem` and a
count vector and returns an :class:`EstimationResult` whose allocation is
already decoded into OD flows and path splits.  The programs:

* ``estimate_l1``          min sum(x)        s.t. A x = y, x >= 0
* ``estimate_l2``          min ||x||_2       s.t. A x = y, x >= 0
* ``estimate_l1_noisy``    min sum(x)        s.t. ||y - A x||_2 <= delta, x >= 0
* ``estimate_l2_noisy``    min ||x||_2       s.t. ||y - A x||_2 <= delta, x >= 0
* ``estimate_weighted_l1`` min sum(lam*x)    s.t. A x = y, x >= 0
* ``reweighted_l1``        iterated weighted program, weights 1/(x+eps)
* ``vmt_bounds``           min/max sum(v*x)  s.t. A x = y, x >= 0

Because x >= 0, sum(x) equals the l1 norm, so the l1 programs are plain
linear programs.  Each noiseless one enters through one phase-1 door,
:func:`_feasible_start`, which checks the counts and presolves them: a
zero count on a row with no negative entry forces every column with a
positive entry in that row to zero, since a sum of nonnegative terms is
zero only when each term is (Andersen & Andersen 1995, "Presolving in
linear programming").  The door drops each such row and each column it
forces out, so the simplex runs on the kept rows and columns and finds
the same feasible set on them; its answers come back at full size, zero
on the dropped columns (:meth:`_Start.solve`).  The test ``y_i == 0`` is
exact, and every incidence this library builds is nonnegative, so on
noiseless sparse counts the programs shrink; noisy counts go to the cone
solver and are not presolved.  Every estimator leaves through
:func:`accept_points`, and a point it rejects raises the error of its
status.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .network import (
    MeasurementSystem,
    PathTable,
    decode_allocation,
    split_column_labels,
)
from .solver import (
    ConeProblem,
    FeasibleBasis,
    Solution,
    STATUS_INFEASIBLE,
    STATUS_ITERATION_LIMIT,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    lp_phase1,
    lp_phase2,
    solve_cone,
)

# Entries below this (relative) floor are treated as structural zeros when
# reporting sparsity; solvers leave residual dust at the 1e-10 scale.
SPARSITY_EPS_SCALE = 1e-8

# Largest negative excursion tolerated from a solver before it is a bug.
_NEG_CLIP_TOL = 1e-6


def _check_integer(name: str, value, error: type[ValueError] = ValueError) -> None:
    # A float count would pass a range check and fail late, in ``range``,
    # or be truncated; a bool would run as 0 or 1.
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} {value!r} is not an integer")


class EstimationError(RuntimeError):
    """Base class for estimator failures; carries the raw solver output."""

    def __init__(self, message: str, solution: Solution | None = None):
        super().__init__(message)
        self.solution = solution


class InfeasibleError(EstimationError):
    """No nonnegative allocation satisfies the measurement constraints."""


class UnboundedError(EstimationError):
    """The program has no finite optimum (some path evades every counter)."""

    def __init__(self, message: str, solution: Solution | None = None,
                 path_label=None):
        super().__init__(message, solution)
        self.path_label = path_label


class IterationLimitError(EstimationError):
    """A solver hit its iteration cap (simplex pivots or NNLS solves)."""


@dataclass(frozen=True)
class Allocation:
    """Nonnegative per-column flow vector tied to its measurement labels.

    For static systems the labels are path indices; for dynamic systems
    they are (path index, departure time) pairs.
    """

    x: np.ndarray
    table: PathTable
    labels: tuple

    def __post_init__(self):
        self.x.flags.writeable = False

    def sparsity(self) -> int:
        eps = SPARSITY_EPS_SCALE * max(1.0, float(np.max(self.x, initial=0.0)))
        return int(np.count_nonzero(self.x > eps))

    def per_path_totals(self) -> np.ndarray:
        """Sum over departure slots, giving one flow per catalogued path."""
        paths, _ = split_column_labels(self.labels)
        return np.bincount(paths, weights=self.x, minlength=self.table.n_paths)


@dataclass(frozen=True)
class WeightMatrix:
    """Positive per-entry weights of the weighted-l1 objective."""

    lam: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        if lam.ndim != 1 or lam.size == 0 or not (
            np.isfinite(lam).all() and lam.min() > 0
        ):
            raise ValueError("weights must be a finite positive vector")
        object.__setattr__(self, "lam", lam)


@dataclass(frozen=True)
class EstimationResult:
    """Recovered allocation with its decoded flows and solve diagnostics."""

    allocation: Allocation
    od_flows: tuple[float, ...]
    splits: dict[int, float]
    status: str
    objective: float
    residual_eq: float
    residual_cone: float
    iterations: int
    method: str
    objective_trace: tuple[float, ...] = ()


def _check_counts(ms: MeasurementSystem, y, *, nonnegative: bool) -> np.ndarray:
    y = np.asarray(y, dtype=float).ravel()
    if y.shape != (ms.n_rows,):
        raise ValueError(
            f"count vector length {y.size} does not match {ms.n_rows} rows"
        )
    if not np.isfinite(y).all():
        raise ValueError("counts must be finite")
    if nonnegative and y.size and y.min() < 0:
        raise ValueError("counts must be nonnegative")
    return y


@dataclass(frozen=True)
class _Start:
    """Phase 1 of a presolved count program: ``phase1`` is the feasible
    basis of the kept rows on the columns ``cols`` (full column indices,
    ascending) of a program with ``n`` columns."""

    phase1: FeasibleBasis
    cols: np.ndarray
    n: int

    def solve(self, c, sense: str = "min") -> Solution:
        """:func:`lp_phase2` of ``c'x`` on the kept columns, its point,
        basis and unbounded column mapped back to the full program.  The
        objective, residual and pivot count are the presolved program's:
        each dropped row holds exactly at a point that is zero on every
        column it crosses."""
        cols = self.cols
        sol = lp_phase2(self.phase1, np.asarray(c, dtype=float)[cols], sense)
        x = np.zeros(self.n)
        x[cols] = sol.x
        return replace(
            sol,
            x=x,
            basis=None if sol.basis is None else tuple(cols[list(sol.basis)].tolist()),
            unbounded_index=(None if sol.unbounded_index is None
                             else int(cols[sol.unbounded_index])),
        )


def _feasible_start(ms: MeasurementSystem, y) -> _Start:
    """Phase 1 on checked noiseless counts: the one start of every program
    over ``{x >= 0 : A x = y}``.

    Presolves first.  A zero count on a row whose entries are all
    nonnegative makes every column with a positive entry in that row zero
    at each feasible point; the row is dropped with those columns, and
    phase 1 runs on the rest.  The dropped rows hold at every point that
    is zero on the dropped columns, so the feasible set on the kept
    columns is the same, and a kept positive count whose every column is
    dropped is infeasible, as it is in the full program.  A zero-count
    row with a negative entry is kept whole.
    """
    y = _check_counts(ms, y, nonnegative=True)
    A = ms.matrix
    zero = (y == 0) & ~(A < 0).any(axis=1)
    keep = ~zero
    cols = np.flatnonzero(~(A[zero] > 0).any(axis=0))
    # ``np.ix_`` keeps the kept rows C-ordered, as ``ms.matrix`` is, so
    # residual products run as on the full program
    return _Start(lp_phase1(A[np.ix_(keep, cols)], y[keep]), cols, ms.n_cols)


def accept_points(status, x) -> tuple[np.ndarray, np.ndarray]:
    """``(ok, x)``: whether an estimator accepts each solver point, and the
    points clipped at zero.

    A point is accepted when its status is optimal and no entry lies below
    ``-_NEG_CLIP_TOL``; the solver's roundoff dust above that bound is
    clipped.  ``status`` holds one status per row of ``x``, or one status
    for a single point.
    """
    x = np.asarray(x, dtype=float)
    low = x.min(axis=-1, initial=np.inf)
    ok = (np.asarray(status) == STATUS_OPTIMAL) & ~(low < -_NEG_CLIP_TOL)
    return ok, np.clip(x, 0.0, None)


def _accepted(ms: MeasurementSystem, sol: Solution, method: str) -> Allocation:
    """The allocation of an accepted solver point; raises for any other."""
    ok, x = accept_points(sol.status, sol.x)
    if ok:
        return Allocation(x=x, table=ms.table, labels=ms.col_labels)
    if sol.status == STATUS_INFEASIBLE:
        raise InfeasibleError(
            f"{method}: no nonnegative allocation explains the counts", sol
        )
    if sol.status == STATUS_ITERATION_LIMIT:
        raise IterationLimitError(f"{method}: iteration limit reached", sol)
    if sol.status == STATUS_UNBOUNDED:
        raise UnboundedError(f"{method}: unbounded program", sol)
    raise EstimationError(
        f"{method}: solver returned a significantly negative entry "
        f"({np.min(sol.x):.3e})", sol
    )


def _finish(ms: MeasurementSystem, sol: Solution, method: str,
            trace: tuple[float, ...] = ()) -> EstimationResult:
    alloc = _accepted(ms, sol, method)
    decoded = decode_allocation(alloc.per_path_totals(), ms.table)
    return EstimationResult(
        allocation=alloc,
        od_flows=decoded.od_flows,
        splits=decoded.splits,
        status=sol.status,
        objective=sol.objective,
        residual_eq=sol.residual_eq,
        residual_cone=sol.residual_cone,
        iterations=sol.iterations,
        method=method,
        objective_trace=trace,
    )


def estimate_l1(ms: MeasurementSystem, y) -> EstimationResult:
    """Sparsest-looking allocation: minimize total flow subject to the counts."""
    return _finish(ms, _feasible_start(ms, y).solve(np.ones(ms.n_cols)), "l1")


def estimate_weighted_l1(ms: MeasurementSystem, y,
                         weights: WeightMatrix) -> EstimationResult:
    """Weighted variant: entries with larger weights are penalized harder."""
    if weights.lam.shape != (ms.n_cols,):
        raise ValueError("weight vector length does not match column count")
    return _finish(ms, _feasible_start(ms, y).solve(weights.lam), "weighted-l1")


def estimate_l2(ms: MeasurementSystem, y) -> EstimationResult:
    """Minimum-Euclidean-norm allocation; the classical dense baseline."""
    y = _check_counts(ms, y, nonnegative=True)
    cone = ConeProblem(A=ms.matrix, y=y, delta=0.0, objective="l2")
    return _finish(ms, solve_cone(cone), "l2")


def estimate_l1_noisy(ms: MeasurementSystem, y, delta: float) -> EstimationResult:
    """Noise-aware l1 program: counts only have to hold within a ball."""
    y = _check_counts(ms, y, nonnegative=False)
    cone = ConeProblem(A=ms.matrix, y=y, delta=delta, objective="l1")
    return _finish(ms, solve_cone(cone), "l1-noisy")


def estimate_l2_noisy(ms: MeasurementSystem, y, delta: float) -> EstimationResult:
    """Noise-aware minimum-norm program."""
    y = _check_counts(ms, y, nonnegative=False)
    cone = ConeProblem(A=ms.matrix, y=y, delta=delta, objective="l2")
    return _finish(ms, solve_cone(cone), "l2-noisy")


def reweighted_l1(ms: MeasurementSystem, y, iters: int = 4,
                  epsilon: float | None = None) -> EstimationResult:
    """Iterated weighted-l1: each round reweights by 1/(previous flow + eps).

    Entries that came back large are penalized less on the next round,
    sharpening sparse solutions without prior support knowledge.
    ``iters`` counts solves in total, so ``iters=1`` is exactly the plain
    l1 program.  ``epsilon`` defaults to 1e-3 times the largest entry of
    the first solve.  The result carries the total-flow value of every
    round in ``objective_trace``.
    """
    _check_integer("iters", iters)
    if iters < 1:
        raise ValueError("iters must be at least 1")
    # NaN passes ``epsilon <= 0`` and fails inside phase 2; inf zeroes
    # every later weight.
    if epsilon is not None and not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon {epsilon} must be finite and positive")
    # Every round has the same feasible set, so one phase 1 serves them all.
    start = _feasible_start(ms, y)
    result = _finish(ms, start.solve(np.ones(ms.n_cols)), "l1")
    trace = [float(np.sum(result.allocation.x))]
    if epsilon is None:
        peak = float(np.max(result.allocation.x, initial=0.0))
        epsilon = max(1e-3 * peak, 1e-12)
    for _ in range(iters - 1):
        lam = 1.0 / (result.allocation.x + epsilon)
        result = _finish(ms, start.solve(lam), "weighted-l1")
        trace.append(float(np.sum(result.allocation.x)))
    return replace(result, method="reweighted-l1", objective_trace=tuple(trace))


@dataclass(frozen=True)
class VmtBounds:
    """Certified travel bounds over all allocations consistent with the counts.

    ``vmt_lower <= v'x_true <= vmt_upper`` for any true allocation that
    produced the counts, where v holds the per-column path lengths.
    """

    x_min: Allocation
    x_max: Allocation
    vmt_lower: float
    vmt_upper: float


def uncovered_column(ms: MeasurementSystem, path_lengths) -> int | None:
    """The first column with positive length that crosses no measured row,
    or None.

    Raising such a column's flow leaves the counts unchanged and adds to
    the travel total, so a feasible maximizing program over it is
    unbounded.  Conversely, when every column of positive length crosses a
    measured row of a nonnegative incidence (all the incidences this
    library builds), each such flow is capped by a count and the maximum is
    finite.  It is the column on which the simplex would certify the
    maximum unbounded: Bland's rule enters the first improving column, and
    this one stays improving, with a zero tableau column, until it enters.
    """
    hit = (np.asarray(path_lengths) > 0) & ~ms.matrix.any(axis=0)
    return int(hit.argmax()) if hit.any() else None


def vmt_bounds(ms: MeasurementSystem, y, path_lengths) -> VmtBounds:
    """Bound total vehicle-distance (or vehicle count with unit lengths).

    Solves the minimizing and maximizing linear programs over the feasible
    set, both from one phase 1, and accepts their points as the estimators
    do (:func:`accept_points`).  The maximum is unbounded when a column of
    positive length crosses no measured row (:func:`uncovered_column`);
    once the minimum has shown the counts feasible, that is raised as an
    :class:`UnboundedError` naming the column, without solving the
    maximum, so callers can treat it as a failed trial.
    """
    v = np.asarray(path_lengths, dtype=float).ravel()
    if v.shape != (ms.n_cols,):
        raise ValueError("path_lengths length does not match column count")
    if v.size and not (np.isfinite(v).all() and v.min() >= 0):
        raise ValueError("path lengths must be finite and nonnegative")

    start = _feasible_start(ms, y)
    lo = start.solve(v, "min")
    x_min = _accepted(ms, lo, "vmt-min")
    j = uncovered_column(ms, v)
    if j is not None:
        label = ms.col_labels[j]
        raise UnboundedError(
            f"vmt-max: unbounded; column {label!r} crosses no measured link",
            path_label=label,
        )
    hi = start.solve(v, "max")
    return VmtBounds(
        x_min=x_min,
        x_max=_accepted(ms, hi, "vmt-max"),
        vmt_lower=float(lo.objective),
        vmt_upper=float(hi.objective),
    )

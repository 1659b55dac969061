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
linear programs.
"""

from __future__ import annotations

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
    Solution,
    StandardLP,
    STATUS_INFEASIBLE,
    STATUS_ITERATION_LIMIT,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    lp_phase1,
    lp_phase2,
    solve_cone,
    solve_lp,
)

# Entries below this (relative) floor are treated as structural zeros when
# reporting sparsity; solvers leave residual dust at the 1e-10 scale.
SPARSITY_EPS_SCALE = 1e-8

# Largest negative excursion tolerated from a solver before it is a bug.
_NEG_CLIP_TOL = 1e-6


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


def _raise_for_status(sol: Solution, method: str) -> None:
    if sol.status == STATUS_INFEASIBLE:
        raise InfeasibleError(
            f"{method}: no nonnegative allocation explains the counts", sol
        )
    if sol.status == STATUS_ITERATION_LIMIT:
        raise IterationLimitError(f"{method}: iteration limit reached", sol)
    if sol.status == STATUS_UNBOUNDED:
        raise UnboundedError(f"{method}: unbounded program", sol)


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


def _finish(ms: MeasurementSystem, sol: Solution, method: str,
            trace: tuple[float, ...] = ()) -> EstimationResult:
    ok, x = accept_points(sol.status, sol.x)
    if not ok:
        _raise_for_status(sol, method)
        raise EstimationError(
            f"{method}: solver returned a significantly negative entry "
            f"({np.min(sol.x):.3e})", sol
        )
    alloc = Allocation(x=x, table=ms.table, labels=ms.col_labels)
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
    y = _check_counts(ms, y, nonnegative=True)
    lp = StandardLP(c=np.ones(ms.n_cols), A=ms.matrix, b=y, sense="min")
    return _finish(ms, solve_lp(lp), "l1")


def estimate_weighted_l1(ms: MeasurementSystem, y,
                         weights: WeightMatrix) -> EstimationResult:
    """Weighted variant: entries with larger weights are penalized harder."""
    y = _check_counts(ms, y, nonnegative=True)
    if weights.lam.shape != (ms.n_cols,):
        raise ValueError("weight vector length does not match column count")
    lp = StandardLP(c=weights.lam, A=ms.matrix, b=y, sense="min")
    return _finish(ms, solve_lp(lp), "weighted-l1")


def estimate_l2(ms: MeasurementSystem, y) -> EstimationResult:
    """Minimum-Euclidean-norm allocation; the classical dense baseline."""
    y = _check_counts(ms, y, nonnegative=True)
    cone = ConeProblem(A=ms.matrix, y=y, delta=0.0, objective="l2")
    return _finish(ms, solve_cone(cone), "l2")


def estimate_l1_noisy(ms: MeasurementSystem, y, delta: float) -> EstimationResult:
    """Noise-aware l1 program: counts only have to hold within a ball."""
    y = _check_counts(ms, y, nonnegative=False)
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    cone = ConeProblem(A=ms.matrix, y=y, delta=delta, objective="l1")
    return _finish(ms, solve_cone(cone), "l1-noisy")


def estimate_l2_noisy(ms: MeasurementSystem, y, delta: float) -> EstimationResult:
    """Noise-aware minimum-norm program."""
    y = _check_counts(ms, y, nonnegative=False)
    if delta < 0:
        raise ValueError("delta must be nonnegative")
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
    if iters < 1:
        raise ValueError("iters must be at least 1")
    if epsilon is not None and epsilon <= 0:
        raise ValueError("epsilon must be positive")
    y = _check_counts(ms, y, nonnegative=True)
    # Every round has the same feasible set, so one phase 1 serves them all.
    start = lp_phase1(ms.matrix, y)
    result = _finish(ms, lp_phase2(start, np.ones(ms.n_cols), "min"), "l1")
    trace = [float(np.sum(result.allocation.x))]
    if epsilon is None:
        peak = float(np.max(result.allocation.x, initial=0.0))
        epsilon = max(1e-3 * peak, 1e-12)
    for _ in range(iters - 1):
        lam = 1.0 / (result.allocation.x + epsilon)
        result = _finish(ms, lp_phase2(start, lam, "min"), "weighted-l1")
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


def vmt_bounds(ms: MeasurementSystem, y, path_lengths) -> VmtBounds:
    """Bound total vehicle-distance (or vehicle count with unit lengths).

    Solves the minimizing and maximizing linear programs over the feasible
    set, both from one phase 1.  The maximum is unbounded when some column
    crosses no measured row; that is surfaced, not clipped, so callers can
    treat it as a failed trial.
    """
    y = _check_counts(ms, y, nonnegative=True)
    v = np.asarray(path_lengths, dtype=float).ravel()
    if v.shape != (ms.n_cols,):
        raise ValueError("path_lengths length does not match column count")
    if v.size and not (np.isfinite(v).all() and v.min() >= 0):
        raise ValueError("path lengths must be finite and nonnegative")

    start = lp_phase1(ms.matrix, y)
    lo = lp_phase2(start, v, "min")
    _raise_for_status(lo, "vmt-min")
    hi = lp_phase2(start, v, "max")
    if hi.status == STATUS_UNBOUNDED:
        label = (
            ms.col_labels[hi.unbounded_index]
            if hi.unbounded_index is not None
            else None
        )
        raise UnboundedError(
            f"vmt-max: unbounded; column {label!r} crosses no measured link",
            hi,
            path_label=label,
        )
    _raise_for_status(hi, "vmt-max")

    def _alloc(sol: Solution) -> Allocation:
        x = np.clip(np.asarray(sol.x, dtype=float), 0.0, None)
        return Allocation(x=x, table=ms.table, labels=ms.col_labels)

    return VmtBounds(
        x_min=_alloc(lo),
        x_max=_alloc(hi),
        vmt_lower=float(lo.objective),
        vmt_upper=float(hi.objective),
    )

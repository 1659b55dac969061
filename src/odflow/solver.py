"""Dense exact solvers for small flow-recovery programs.

Two engines:

* :func:`solve_lp`: two-phase tableau simplex for
  ``min/max c'x  s.t.  A x = b, x >= 0``.  Every pivot follows Bland's
  rule (Bland 1977), so the solver terminates and returns the same basic
  optimum for the same input, every time; it has no options.  The two
  phases are separate steps: :func:`lp_phase1` finds a feasible basis of
  ``A x = b`` once, and :func:`lp_phase2` optimizes any number of
  objectives from it.  A phase pivots a dense tableau, ``[B^-1 A | B^-1 b]``
  over the reduced costs, by one rank-1 update per pivot, whose product
  is one BLAS call: each entry is the IEEE product, and a zero product is
  +0, never -0, so a row whose entering-column entry is zero comes back
  unchanged, bit for bit.  Bland's rule scans arrays where it reads a
  whole row, and Python lists where it
  reads a few entries: the entering column is the first improving entry
  of the cost row, and phase 1's cleanup column the first free entry of
  an artificial's row, each found by one numpy comparison and
  ``argmax``, while the ratio test reads the entering column and
  ``B^-1 b`` as lists, which beats numpy calls at these sizes.  Phase 1
  starts from the identity basis of its artificials, whose tableau needs
  no factorization, and phase 2 starts from phase 1's final tableau, so
  each phase pivots one tableau from its start to its end and the
  tableau is never factored.  The tableau only steers pivot choices:
  every returned point is a fresh solve with its basis.  A phase gives up
  after ``_MAX_PIVOTS`` pivots.
  :func:`solve_lp_padded` runs the same simplex on many programs of one
  column count at once, for the Monte Carlo sweeps that solve thousands
  of them: their tableaus, padded with zero rows, form one array, and
  each pivot step applies Bland's rule to every program by numpy calls
  over the whole stack.  Both engines start each phase from one builder
  (:func:`_phase1_tableau`, :func:`_phase2_tableau`) of one system or a
  stack, and phase 1's verdict and cleanup and the basic points are numpy
  calls over the stack too, so no per-program Python runs between phases.  Every sum the two
  engines share (phase 1's cost row and ``||b||_1``, phase 2's first cost
  row and objective) adds rows in order (:func:`_row_sum`), which zero
  padding leaves as it is, so the stack forms each for all its programs
  at once.  Each pivot's product follows one rule in both engines, a
  BLAS product in :func:`_pivot` and ``np.einsum`` over the stack in
  :func:`_pivot_each`, so a stacked tableau keeps the single solve's
  bytes, signs of zero included.  Only the basic points are solved in one
  batch per basis size, as LAPACK's LU is not pad-invariant.  Each
  program takes the pivots
  that :func:`solve_lp` gives it, and the stack returns each program's
  status, point and pivot record (basis, pivot count, unbounded index)
  as :func:`solve_lp` returns them; its objective and residual follow
  from the point.
* :func:`solve_cone`: exact solver for
  ``min f(x)  s.t.  ||y - A x||_2 <= delta, x >= 0`` with f either a
  positively weighted sum of entries or the Euclidean norm.  It is built
  on Lawson-Hanson nonnegative least squares (``scipy.optimize.nnls``),
  whose every answer passes one KKT check or is solved again by BVLS:
  one NNLS solve decides feasibility, and an infeasible verdict needs its
  residual as a certificate.  The ball's multiplier is a root
  on each support piece of the penalized path: of a secular equation for
  the Euclidean norm (the trust-region equation of Moré & Sorensen 1983),
  in closed form for the weighted sum.  A KKT check certifies the piece,
  and an NNLS solve of the penalized program supplies the next piece when
  it fails, so most solves take one or two NNLS calls.  The Euclidean
  search opens with such a solve at a closed-form multiplier taken from
  the NNLS point, so its first piece is usually the last.

Problems here are desk scale (tens of rows/columns); everything is dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

_PIVOT_TOL = 1e-10
_RATIO_TIE_TOL = 1e-12
# Feasibility and optimality tolerance: what phase 1 may leave in its
# artificials (relative to max(1, ||b||_1)), the reduced cost below which a
# column improves, and the distance (relative to the count norm) from the
# counts to the nonnegative image that the delta = 0 cone program accepts.
_TOL_FEAS = 1e-9
# Simplex pivots per phase before the solve reports iteration-limit.
_MAX_PIVOTS = 50_000
# Phase 1's cleanup pivots a leftover artificial out on the first nonbasic
# original column whose entry in its row exceeds this in magnitude.
_CLEANUP_TOL = 1e-9

# Newton's method on an l2 piece stops once its step falls below this
# fraction of the multiplier.
_ROOT_RTOL = 4 * np.finfo(float).eps
# NNLS solves the ball search may spend after its feasibility check.
_MAX_BALL_SOLVES = 100
# Newton steps allowed for one support piece's multiplier; from its start
# the iteration converges quadratically and needs far fewer.
_MAX_NEWTON_STEPS = 100
# The KKT checks allow this much on the wrong side, relative to the largest
# entry of A'r (l2 certificate) or to the roundoff in A'r (l1 certificate,
# NNLS answers), so that a root on a breakpoint of the path, where one
# entry of x or of A'r is zero, still certifies.
_KKT_SLACK = 1e-12
# The equality-constrained l2 program relaxes x >= 0 by this much (counts
# at unit norm), so that a feasible set that is a single point does not
# look empty after roundoff.
_LDP_SLACK = 1e-12

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_ITERATION_LIMIT = "iteration-limit"


@dataclass(frozen=True)
class StandardLP:
    """``min/max c'x  s.t.  A x = b, x >= 0``."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    sense: str = "min"


@dataclass(frozen=True)
class ConeProblem:
    """``min f(x)  s.t.  ||y - A x||_2 <= delta, x >= 0``.

    ``objective`` is ``"l1"`` (weighted sum of entries, weights default to
    one) or ``"l2"`` (Euclidean norm, no weights).  ``delta = 0``
    degenerates to the equality-constrained program.
    """

    A: np.ndarray
    y: np.ndarray
    delta: float = 0.0
    weights: np.ndarray | None = None
    objective: str = "l1"


@dataclass(frozen=True)
class Solution:
    """Solver output.

    ``residual_eq`` is the max-norm equality violation (LP),
    ``residual_cone`` the amount by which the measurement ball is exceeded
    (cone solver).  ``basis`` is the final simplex basis when available,
    ``unbounded_index`` the entering variable that certified unboundedness.
    """

    x: np.ndarray
    status: str
    objective: float
    residual_eq: float = 0.0
    residual_cone: float = 0.0
    iterations: int = 0
    basis: tuple[int, ...] | None = None
    unbounded_index: int | None = None


@dataclass(frozen=True)
class FeasibleBasis:
    """Phase-1 outcome for one system ``A x = b, x >= 0``.

    ``status`` is optimal when a feasible basis was found, else infeasible
    or iteration-limit.  ``rows`` are the constraint rows kept after
    redundant ones were dropped, and ``A_kept``/``b_kept`` those rows, each
    multiplied by the sign that makes its count nonnegative.  ``basis``
    indexes columns of ``A_kept`` and is feasible for it, and ``tableau``
    is phase 1's final ``[B^-1 A_kept | B^-1 b_kept]``, one row per entry
    of ``basis``, from which phase 2 starts: reached by rank-1 updates from
    the artificials' identity basis, never factored.  ``iterations`` counts phase-1
    pivots.  ``A`` and ``b`` are the system as given, for residuals.  One
    instance serves any number of :func:`lp_phase2` calls.
    """

    A: np.ndarray
    b: np.ndarray
    status: str
    iterations: int
    rows: tuple[int, ...] = ()
    basis: tuple[int, ...] = ()
    A_kept: np.ndarray | None = None
    b_kept: np.ndarray | None = None
    tableau: np.ndarray | None = None


def _pivot(T, r, j):
    """Pivot the tableau in place on row ``r`` and column ``j``: one rank-1
    update.  ``prow[j]`` is exactly one, so basic columns stay exact unit
    vectors and their reduced costs exactly zero.

    The product is one BLAS call (a matrix product of inner length one)
    and the subtraction one numpy operation.  Each entry of the product
    is the one IEEE product ``np.multiply.outer`` forms, but a zero comes
    out as +0, never -0, so a row whose entering-column entry is zero
    comes back unchanged, bit for bit.  :func:`_pivot_each` forms the
    same product for the stack, so the two engines round alike."""
    prow = T[r] / T[r, j]
    T -= np.dot(T[:, j, None], prow[None, :])
    T[r] = prow


def _pivot_loop(T, basis):
    """Run simplex pivots from ``basis`` (a list of column indices, updated
    in place) and its ``(m+1) x (n+1)`` tableau ``T``: ``[B^-1 A | B^-1 b]``
    over the reduced costs (zero on basic columns) and minus the objective.

    Returns ``(status, iterations, unbounded_entering_index)``.  Bland's
    rule enters the first column whose reduced cost is below
    ``-_TOL_FEAS``: one comparison and ``argmax`` over a view of the cost
    row, as turning the row, whose every entry may be read, into a Python
    list costs more.  It leaves by the ratio test over the entering column
    and ``B^-1 b``, read as Python lists: few of their entries are
    positive, and a numpy ratio test, with its several calls per pivot,
    was slower.  Each pivot is one rank-1 update of ``T`` in place, from
    the phase's start to its end; their roundoff stays far below the pivot
    tolerances at these sizes, and no returned point is read from ``T``.
    """
    m, n = T.shape[0] - 1, T.shape[1] - 1
    if not n:  # no column can enter
        return STATUS_OPTIMAL, 0, None
    cost = T[m, :n]  # a view: each pivot updates it in place
    for it in range(_MAX_PIVOTS):
        # Enter the improving column of smallest index.
        improving = cost < -_TOL_FEAS
        j = int(improving.argmax())
        if not improving[j]:
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
        # Leave the tied row whose basic variable has the smallest index.
        leave = min((i for i, q in ratios.items() if q <= cut), key=basis.__getitem__)
        _pivot(T, leave, j)
        basis[leave] = j
    return STATUS_ITERATION_LIMIT, _MAX_PIVOTS, None


def _row_sum(M):
    """The sum of the rows of ``M``, or of each matrix in a stack of them,
    added in row order (a cumulative sum down the row axis,
    ``np.add.accumulate``), so that zero rows appended below leave the sum
    as it is (but for the sign of a zero sum, which no comparison sees).
    ``M.sum(axis=-2)`` may add by pairs, depending on the memory layout,
    and a BLAS product in an order that depends on the length: both
    engines form every sum they must round alike here."""
    if not M.shape[-2]:
        return np.zeros(M.shape[:-2] + M.shape[-1:])
    return np.add.accumulate(M, axis=-2)[..., -1, :]


def _pivot_each(T, r, j, col, at):
    """:func:`_pivot` on every tableau of a stack, tableau ``i`` on row
    ``r[i]`` and column ``j[i]``; ``col`` holds those columns, ``T[i, :,
    j[i]]``, as they were before the pivot, and ``at`` is
    ``np.arange(len(T))``.

    The products are formed by ``np.einsum``, which, like the BLAS product
    of :func:`_pivot`, gives each entry's IEEE product with every zero as
    +0; numpy's broadcast product keeps the sign of a zero product, which
    would leave the stack's tableaus a sign of zero apart from the single
    solve's."""
    prow = T[at, r] / col[at, r][:, None]
    T -= np.einsum("ki,kj->kij", col, prow)
    T[at, r] = prow


def _pivot_stack(T, basis):
    """:func:`_pivot_loop` on a stack of systems at once.

    ``T`` is ``K x (R+1) x (N+1)``, one tableau per system padded to ``R``
    rows and ``N`` columns, its cost row last and its right-hand side in
    the last column; ``basis`` is the ``K x R`` integer array of their
    bases.  A padding row is zero in every column that can enter, so it
    never wins a ratio test, and a padding column keeps a zero reduced
    cost, so it never enters.  Each step applies Bland's rule, with the
    same expressions and tolerances as :func:`_pivot_loop`, to every
    system still active by numpy calls over the stack, so each system
    takes the pivots and the arithmetic it would take alone.  A system
    leaves the stack once it is optimal or unbounded.

    Updates ``T`` and ``basis`` to each system's exit and returns the
    arrays of statuses, pivot counts and unbounded entering indices (-1
    for none).
    """
    K, R, N = T.shape[0], T.shape[1] - 1, T.shape[2] - 1
    unbounded = np.full(K, -1)
    if not N:  # no column can enter
        return np.full(K, STATUS_OPTIMAL, dtype=object), np.zeros(K, dtype=int), unbounded
    status = np.full(K, STATUS_ITERATION_LIMIT, dtype=object)
    iters = np.full(K, _MAX_PIVOTS)
    ids, Tc, Bc = np.arange(K), T, basis  # the active systems
    at = np.arange(K)  # their positions in Tc and Bc
    never = np.iinfo(basis.dtype).max  # a basis entry no tied row has
    for it in range(_MAX_PIVOTS):
        improving = Tc[:, R, :N] < -_TOL_FEAS
        j = improving.argmax(axis=1)
        col = Tc[at, :, j]  # the entering columns, cost row last
        ok = col[:, :R] > _PIVOT_TOL
        stay = improving[at, j] & ok.any(axis=1)
        if not stay.all():
            optimal = ~improving[at, j]
            stuck = ~(stay | optimal)
            status[ids[optimal]], iters[ids[optimal]] = STATUS_OPTIMAL, it
            status[ids[stuck]], iters[ids[stuck]] = STATUS_UNBOUNDED, it + 1
            unbounded[ids[stuck]] = j[stuck]
            done = ~stay
            out = ids[done]
            T[out] = Tc[done]
            basis[out] = Bc[done]
            if not stay.any():
                break
            ids, Tc, Bc, j, col, ok = ids[stay], Tc[stay], Bc[stay], j[stay], col[stay], ok[stay]
            at = np.arange(ids.size)

        ratio = np.divide(np.maximum(Tc[:, :R, N], 0.0), col[:, :R],
                          out=np.full(ok.shape, np.inf), where=ok)
        rmin = ratio.min(axis=1)
        cut = rmin + _RATIO_TIE_TOL * (1.0 + rmin)
        # Leave the tied row whose basic variable has the smallest index.
        leave = np.where(ratio <= cut[:, None], Bc, never).argmin(axis=1)
        _pivot_each(Tc, leave, j, col, at)
        Bc[at, leave] = j
    return status, iters, unbounded


def _basic_point(A, b, basis, n):
    """The basic solution of ``basis`` from a fresh factorization, so that
    no roundoff of the rank-1 updates reaches a returned point."""
    x = np.zeros(n)
    x[basis] = np.linalg.solve(A[:, basis], b)
    return x


def _lp_system(A, b):
    """Validated ``(A, b)`` of ``A x = b, x >= 0``."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    if b.shape != (A.shape[0],):
        raise ValueError("inconsistent LP dimensions")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("A and b must be finite")
    return A, b


def _lp_cost(c, n, sense):
    """Validated objective vector of a program with ``n`` columns."""
    c = np.asarray(c, dtype=float).ravel()
    if c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    if not np.isfinite(c).all():
        raise ValueError("c must be finite")
    if sense not in ("min", "max"):
        raise ValueError(f"unknown sense {sense!r}")
    return c


def _phase1_tableau(A, b, sign):
    """Phase 1's first tableau of ``A x = b``, or of each system of a stack
    (``... x m x n``), with ``A_work``, ``b_work`` and ``||b||_1``: each row
    times its ``sign``, which makes its count nonnegative (or zeros a
    padding row).  The artificials' basis is the identity, so the tableau,
    ``[A_work | I | b_work]`` over minus the column sums (:func:`_row_sum`)
    and zero on the artificials, needs no factorization."""
    m, n = A.shape[-2:]
    A_work, b_work = A * sign[..., None], b * sign
    b_sum = _row_sum(b_work[..., None])[..., 0]
    T = np.zeros(A.shape[:-2] + (m + 1, n + m + 1))
    T[..., :m, :n], T[..., :m, -1] = A_work, b_work
    T[..., m, :n], T[..., m, -1] = -_row_sum(A_work), -b_sum
    T[..., :m, n:-1] = np.eye(m)
    return T, A_work, b_work, b_sum


def lp_phase1(A, b) -> FeasibleBasis:
    """Phase 1 of the simplex: a feasible basis of ``A x = b, x >= 0``.

    Minimizes the sum of one artificial variable per row.  The system is
    infeasible when more than ``_TOL_FEAS * max(1, ||b||_1)`` is left
    in them, a bound that scales with the counts so that counts rounded to
    a fixed number of significant digits are not rejected.
    """
    A, b = _lp_system(A, b)
    m, n = A.shape
    T, A_work, b_work, b_sum = _phase1_tableau(A, b, np.where(b < 0, -1.0, 1.0))
    basis = list(range(n, n + m))
    status, iters, _ = _pivot_loop(T, basis)
    if status == STATUS_ITERATION_LIMIT:
        return FeasibleBasis(A=A, b=b, status=status, iterations=iters)
    artificial = [pos for pos, k in enumerate(basis) if k >= n]
    if artificial:
        left = float(_row_sum(T[artificial, -1:])[0])
        if left > _TOL_FEAS * max(1.0, float(b_sum)):
            return FeasibleBasis(A=A, b=b, status=STATUS_INFEASIBLE, iterations=iters)

    # Pivot leftover artificial variables out of the basis, each on the
    # first nonbasic original column with an entry in its row, found in a
    # mask of those columns.  When no original column can replace one, the
    # artificial's own constraint row is implied by the others (its
    # multiplier row annihilates the original columns), so that row is
    # dropped together with the artificial.  Without original columns
    # every leftover artificial's row goes.
    redundant = set()
    if not n:
        redundant, artificial = set(range(m)), []
    free = np.ones(n, dtype=bool)  # the nonbasic original columns
    free[[k for k in basis if k < n]] = False
    for pos in artificial:
        cand = (np.abs(T[pos, :n]) > _CLEANUP_TOL) & free
        j = int(cand.argmax())
        if not cand[j]:
            redundant.add(basis[pos] - n)
        else:
            _pivot(T, pos, j)
            basis[pos] = j
            free[j] = False
    rows = [i for i in range(m) if i not in redundant]
    kept = [pos for pos, k in enumerate(basis) if k < n]
    tableau = T[kept, :n + 1]  # the original columns, then the right-hand side
    tableau[:, n] = T[kept, -1]
    return FeasibleBasis(
        A=A,
        b=b,
        status=STATUS_OPTIMAL,
        iterations=iters,
        rows=tuple(rows),
        # From a list: a tuple built from a generator is shrunk to size, and
        # CPython parks each freed one on its size's free list for good.
        basis=tuple([basis[pos] for pos in kept]),
        A_kept=A_work[rows],
        b_kept=b_work[rows],
        tableau=tableau,
    )


def _phase2_tableau(tableau, cost, cost_basic):
    """Phase 2's first tableau from phase 1's final rows ``tableau`` of one
    system or of each system of a stack, without a factorization: those
    rows over the reduced costs ``cost - c_B' tableau`` (``cost_basic`` is
    ``c_B``; a zero padding row adds nothing to :func:`_row_sum`) and minus
    the objective.  Each pivot (:func:`_pivot`, :func:`_pivot_each`) keeps a
    basic column an exact unit vector, so its reduced cost comes out
    ``cost_j - cost_j``, zero."""
    k, n = tableau.shape[-2], tableau.shape[-1] - 1
    T = np.empty(tableau.shape[:-2] + (k + 1, n + 1))
    T[..., :k, :] = tableau
    s = _row_sum(cost_basic[..., None] * tableau)
    T[..., k, :n] = cost - s[..., :n]
    T[..., k, n] = -s[..., n]
    return T


def lp_phase2(start: FeasibleBasis, c, sense: str = "min") -> Solution:
    """Phase 2 of the simplex: optimize ``c'x`` from a phase-1 basis,
    starting from phase 1's final tableau.

    ``iterations`` counts the phase-1 pivots and this call's own, as one
    :func:`solve_lp` call would.
    """
    n = start.A.shape[1]
    c = _lp_cost(c, n, sense)
    if start.status != STATUS_OPTIMAL:
        return Solution(x=np.zeros(n), status=start.status, objective=math.nan,
                        iterations=start.iterations)
    cost = c if sense == "min" else -c
    basis = list(start.basis)
    T = _phase2_tableau(start.tableau, cost, cost[basis])
    status, iters, unbounded_j = _pivot_loop(T, basis)
    total_iters = start.iterations + iters
    if status == STATUS_ITERATION_LIMIT:
        return Solution(x=np.zeros(n), status=status, objective=math.nan,
                        iterations=total_iters)
    x = _basic_point(start.A_kept, start.b_kept, basis, n)
    if status == STATUS_UNBOUNDED:
        objective = -math.inf if sense == "min" else math.inf
    else:
        objective = float(c @ x)
    return Solution(
        x=x,
        status=status,
        objective=objective,
        residual_eq=float(np.max(np.abs(start.A @ x - start.b), initial=0.0)),
        iterations=total_iters,
        basis=tuple(basis),
        unbounded_index=unbounded_j,
    )


def solve_lp(p: StandardLP) -> Solution:
    """Two-phase tableau simplex over the equality-constrained orthant."""
    return lp_phase2(lp_phase1(p.A, p.b), p.c, p.sense)


@dataclass(frozen=True)
class SolutionStack:
    """The answers of :func:`solve_lp_padded`, one row per program: each
    program's status, point and pivot record, each field as on
    :class:`Solution`.

    ``basis[k, :basis_size[k]]`` is program ``k``'s final basis when its
    status is optimal or unbounded; ``unbounded_index`` is -1 where no
    entering column certified unboundedness.  Objective values and
    residuals follow from ``x`` and are left to the caller.
    """

    x: np.ndarray
    status: np.ndarray
    iterations: np.ndarray
    basis: np.ndarray
    basis_size: np.ndarray
    unbounded_index: np.ndarray


def _phase1_stack(A, b, rows):
    """:func:`lp_phase1` on a stack of systems as arrays.

    ``A`` is ``K x R x n`` and ``b`` is ``K x R``; system ``k`` is their
    first ``rows[k]`` rows, and its first tableau (:func:`_phase1_tableau`,
    with a zero sign on each padding row) is padded with zero rows, whose
    artificials stay basic at zero; the artificial of row ``i`` is
    column ``n + i`` in every system.  Returns ``(status, iterations,
    start)``: ``start`` is None when no system is feasible, else the
    feasible systems' indices, phase 1's final rows of their bases over
    the original columns and the right-hand side, those bases, and their
    kept rows of ``[A | b]``, each row signed as phase 1 signs it, all
    packed to the top and padded with zeros.  The outcome is decided as
    :func:`lp_phase1` decides it, by numpy calls over the stack: the
    artificials' sum adds rows in order (:func:`_row_sum`), as
    ``||b||_1`` does, so that each rounds as the single solve's does, and
    leftover artificials are pivoted out one position per system a step.
    """
    K, R, n = A.shape
    real = np.arange(R) < rows[:, None]
    T, Aw, bw, b_sum = _phase1_tableau(A, b, np.where(real, np.where(b < 0, -1.0, 1.0), 0.0))
    basis = np.tile(np.arange(n, n + R), (K, 1))
    status, iters, _ = _pivot_stack(T, basis)
    art = (basis >= n) & real
    left = _row_sum(np.where(art[:, :, None], T[:, :R, -1:], 0.0))[:, 0]
    status[(status == STATUS_OPTIMAL) & (left > _TOL_FEAS * np.maximum(1.0, b_sum))] = (
        STATUS_INFEASIBLE)
    live = np.flatnonzero(status == STATUS_OPTIMAL)
    if not live.size:
        return status, iters, None

    # Cleanup, as in lp_phase1: each step takes every system's first
    # artificial position not yet visited, and pivots in the first original
    # nonbasic column with an entry in that row, or drops the row.  Without
    # original columns every leftover artificial's row goes: no pivot has
    # moved an artificial, so its row is its position.
    T, basis, art, real = T[live], basis[live], art[live], real[live]
    at = np.arange(live.size)[:, None]
    in_basis = np.zeros((live.size, n + R), dtype=bool)
    in_basis[at, basis] = True
    redundant = np.zeros((live.size, R), dtype=bool)
    if not n:
        redundant, art = art, np.zeros_like(art)
    while art.any():
        k = np.flatnonzero(art.any(axis=1))
        pos = art[k].argmax(axis=1)
        art[k, pos] = False
        cand = (np.abs(T[k, pos, :n]) > _CLEANUP_TOL) & ~in_basis[k, :n]
        has = cand.any(axis=1)
        redundant[k[~has], basis[k[~has], pos[~has]] - n] = True
        k, pos, j = k[has], pos[has], cand[has].argmax(axis=1)
        Tk, at_k = T[k], np.arange(k.size)
        _pivot_each(Tk, pos, j, Tk[at_k, :, j], at_k)
        T[k] = Tk
        basis[k, pos] = j
        in_basis[k, j] = True

    kept = basis < n
    size = kept.sum(axis=1)
    R2 = int(size.max())
    pad = np.arange(R2) >= size[:, None]
    pos = np.argsort(~kept, axis=1, kind="stable")[:, :R2]
    order = np.argsort(~(real & ~redundant), axis=1, kind="stable")[:, :R2]
    tableau = np.zeros((live.size, R2, n + 1))
    tableau[:, :, :n] = T[at, pos, :n]
    tableau[:, :, n] = T[at, pos, -1]
    tableau[pad] = 0.0
    system = np.concatenate([Aw[live[:, None], order], bw[live[:, None], order, None]], axis=2)
    system[pad] = 0.0
    return status, iters, (live, tableau, np.where(pad, 0, basis[at, pos]), size, system)


def _phase2_stack(cost, tableau, basis, size, system):
    """:func:`lp_phase2` from the feasible systems of :func:`_phase1_stack`,
    ``cost`` one row per system, as one stack of phase 1's kept rows.

    Every system's first tableau comes from one :func:`_phase2_tableau`
    call on the whole stack.  Returns the statuses, pivot counts,
    unbounded indices and final bases, and the basic points from one
    batched ``np.linalg.solve`` per basis size (zero at an iteration
    limit), the one batch per size left, as LAPACK's LU of a padded basis
    can round differently.
    """
    K, n = tableau.shape[0], cost.shape[1]
    T = _phase2_tableau(tableau, cost, np.take_along_axis(cost, basis, axis=1))
    status, iters, unbounded = _pivot_stack(T, basis)
    x = np.zeros((K, n))
    done = status != STATUS_ITERATION_LIMIT
    for s in np.unique(size[done]).tolist():
        g = np.flatnonzero(done & (size == s))
        if s:
            bas = basis[g, :s]
            B = system[g[:, None, None], np.arange(s)[:, None], bas[:, None, :]]
            x[g[:, None], bas] = np.linalg.solve(B, system[g, :s, n:])[..., 0]
    return status, iters, unbounded, basis, x


def solve_lp_padded(c, A, b, rows) -> SolutionStack:
    """``min c_k'x  s.t.  A_k x = b_k, x >= 0`` for a stack of programs of
    one column count, given as padded arrays.

    ``A`` is ``K x R x n``, ``b`` is ``K x R`` and ``c`` is ``K x n`` or one
    cost row for all; program ``k`` has the first ``rows[k]`` rows of
    ``A[k]`` and ``b[k]``, and the rows past them are ignored.  Program
    ``k`` gets the status, basis, pivot count, unbounded index and the
    bytes of ``x`` of :func:`solve_lp` on it; its objective and residual
    follow from ``x``.  Each phase pivots one padded stack of tableaus
    (:func:`_pivot_stack`), which spreads the fixed cost of each numpy call
    over the stack, and the work between and after the phases runs by
    numpy calls over the stack as well: every sum adds rows in order, as
    the single solve's does, so zero padding changes no bit, and only the
    basic points are solved per basis size.  It pays for tens of small
    programs, while one program alone is faster with :func:`solve_lp`.
    """
    A, b, c = (np.asarray(v, dtype=float) for v in (A, b, c))
    rows = np.asarray(rows)
    if A.ndim != 3:
        raise ValueError("inconsistent LP dimensions")
    K, R, n = A.shape
    if b.shape != (K, R) or rows.shape != (K,) or c.shape not in ((n,), (K, n)):
        raise ValueError("inconsistent LP dimensions")
    if not K:
        raise ValueError("empty LP stack")
    if rows.dtype.kind not in "iu":
        raise ValueError(f"row counts must be integers, not {rows.dtype}")
    rows = rows.astype(np.intp)
    if ((rows < 0) | (rows > R)).any():
        raise ValueError("row counts must lie in 0..R")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("A and b must be finite")
    if not np.isfinite(c).all():
        raise ValueError("c must be finite")
    c = np.broadcast_to(c, (K, n))

    status, iters, start = _phase1_stack(A, b, rows)
    x = np.zeros((K, n))
    unbounded = np.full(K, -1)
    basis, size = np.zeros((K, 0), dtype=np.intp), np.zeros(K, dtype=np.intp)
    if start is not None:
        live, tableau, basis2, size2, system = start
        st2, it2, ub2, basis2, x2 = _phase2_stack(c[live], tableau, basis2, size2, system)
        status[live], iters[live], unbounded[live], x[live] = st2, iters[live] + it2, ub2, x2
        basis = np.zeros((K, basis2.shape[1]), dtype=np.intp)
        basis[live], size[live] = basis2, size2
    return SolutionStack(x=x, status=status, iterations=iters, basis=basis, basis_size=size,
                         unbounded_index=unbounded)


# scipy.optimize takes longer to import than numpy, and only the cone
# solver needs it, so it is imported on the first cone solve: these are the
# names the solver calls, and the ones a test replaces.
def nnls(E, f):
    """``scipy.optimize.nnls(E, f)``."""
    from scipy.optimize import nnls as scipy_nnls
    return scipy_nnls(E, f)


def lsq_linear(*args, **kwargs):
    """``scipy.optimize.lsq_linear(*args, **kwargs)``."""
    from scipy.optimize import lsq_linear as scipy_lsq_linear
    return scipy_lsq_linear(*args, **kwargs)


class _SolveFailed(Exception):
    """An NNLS or BVLS solve, the multiplier search or a simplex phase hit
    its iteration cap, or a least-distance program or the touching-ball
    linear program broke down."""


class _CountedNnls:
    """``scipy.optimize.nnls`` that counts its calls: the one door of every
    NNLS answer ``(x, ||E x - f||)`` of the cone solver.  An answer that
    misses its KKT conditions (:func:`_kkt`), as scipy's can on large
    rank-deficient stacks, is solved again by BVLS (Stark & Parker 1995),
    counted as one more solve; an iteration cap, or a BVLS answer that
    misses them too, raises :class:`_SolveFailed`."""

    def __init__(self):
        self.calls = 0

    def __call__(self, E: np.ndarray, f: np.ndarray):
        self.calls += 1
        if not E.size:
            # scipy's nnls corrupts the heap on an (m, 0) matrix and
            # returns uninitialised memory on a (0, n) one.
            return np.zeros(E.shape[1]), float(np.linalg.norm(f))
        try:
            x, dist = nnls(E, f)
        except RuntimeError as exc:
            raise _SolveFailed(str(exc)) from exc
        if _kkt(E, f, x):
            return x, dist
        self.calls += 1
        x = lsq_linear(E, f, bounds=(0.0, np.inf), method="bvls").x
        if not _kkt(E, f, x):
            raise _SolveFailed("no least-squares answer meets its KKT conditions")
        return x, float(np.linalg.norm(E @ x - f))


def _roundoff(A, y, x):
    """The scale of the roundoff in ``A'(y - A x)``:
    ``max |A|'(|y| + |A||x|)``."""
    abs_A = np.abs(A)
    return ((np.abs(y) + abs_A @ np.abs(x)) @ abs_A).max()


def _kkt(E, f, x):
    """Whether ``x >= 0`` meets the KKT conditions of
    ``min_{x >= 0} ||E x - f||``: ``g = E'(f - E x) <= 0``, with equality on
    the support, up to ``_KKT_SLACK`` times the roundoff in ``g``."""
    g = (f - E @ x) @ E
    slack = _KKT_SLACK * _roundoff(E, f, x)
    return g.max() <= slack and g.min(where=x > 0, initial=0.0) >= -slack


def _separates(A, y, x, dist, delta) -> bool:
    """Whether the residual ``r = y - A x``, ``||r|| = dist``, of a certified
    NNLS answer certifies that no ``z >= 0`` has ``||y - A z|| <= delta``.

    With ``u = r/||r||``, ``A'u <= 0`` (the answer's KKT conditions) and
    ``u'y > delta`` give ``||y - A z|| >= u'(y - A z) >= u'y > delta`` for
    every ``z >= 0``.
    """
    return dist > 0.0 and float((y - A @ x) @ y) > delta * dist


def _ldp(G: np.ndarray, h: np.ndarray, solve: _CountedNnls):
    """Least-distance program ``min ||z||  s.t.  G z >= h`` by one NNLS solve
    (Lawson & Hanson 1974, ch. 23).

    Returns ``(z, nu)`` where ``nu >= 0`` are the constraint multipliers,
    ``z = G' nu``.  Callers certify feasibility beforehand, so an empty
    constraint set here is a numerical breakdown.
    """
    k = G.shape[1]
    E = np.vstack([G.T, h])
    f = np.zeros(k + 1)
    f[-1] = 1.0
    u, _ = solve(E, f)
    r = E @ u - f
    # At the NNLS optimum -r[-1] = ||r||^2, which is zero only when the
    # constraints are inconsistent.
    if not -r[-1] > 0.0:
        raise _SolveFailed("least-distance constraints look inconsistent")
    return r[:k] / -r[-1], u / -r[-1]


def _lasso(A, y, lam, nu, solve) -> np.ndarray:
    """``argmin_{x >= 0} lam'x + (nu/2)·||A x - y||²``.

    Its dual is the projection of ``y`` onto ``{r : nu A'r <= lam}``, a
    least-distance program in ``z = r - y`` whose multipliers are ``x``.
    """
    return _ldp(-A.T, A.T @ y - lam / nu, solve)[1]


def _ridge(A, y, nu, solve) -> np.ndarray:
    """``argmin_{x >= 0} ½||x||² + (nu/2)·||A x - y||²``: NNLS on
    ``[sqrt(nu) A; I]``."""
    n = A.shape[1]
    root = math.sqrt(nu)
    E = np.vstack([root * A, np.eye(n)])
    f = np.concatenate([root * y, np.zeros(n)])
    return solve(E, f)[0]


def _piece_root(A_S, y, delta, lo, hi):
    """``(nu, r)``: the multiplier in ``(lo, hi]`` where the ridge path
    restricted to the columns ``A_S`` meets the sphere, and its residual;
    None when there is none.

    On the columns ``A_S`` the penalized point is ``x_S = nu A_S' r`` with
    residual ``r(nu) = (I + nu K)^{-1} y``, ``K = A_S A_S'``.  With
    ``K = V diag(k) V'`` and ``c = V'y``,
    ``||r(nu)||² = sum_i c_i² / (1 + nu k_i)²``: a secular equation, the
    one of the trust-region subproblem (Moré & Sorensen 1983).  It falls
    towards the part of ``y`` in the null space of ``K``, and
    ``1/||r(nu)||`` is concave and increasing, so Newton's method on
    ``1/||r|| - 1/delta`` started left of the root climbs to it
    monotonically.
    """
    k, V = np.linalg.eigh(A_S @ A_S.T)
    c = V.T @ y
    null = k <= k[-1] * k.size * np.finfo(float).eps
    if math.sqrt(c[null] @ c[null]) >= delta:
        return None
    k[null] = 0.0
    nu = lo
    for step_count in range(_MAX_NEWTON_STEPS):
        d = 1.0 + nu * k
        e = c / d  # r(nu) in the eigenbasis
        norm2 = float(e @ e)
        if step_count == 0 and norm2 <= delta * delta:
            return None  # the piece meets the sphere at or before lo
        step = (math.sqrt(norm2) / delta - 1.0) * norm2 / float((e * k) @ (e / d))
        if step <= _ROOT_RTOL * nu:
            break
        nu += step
        if nu > hi:
            return None
    else:
        return None
    return nu, V @ e


def _l2_piece(A, y, delta, support, lo, hi):
    """``(nu, x)``: the root of :func:`_piece_root` on ``support`` and, if the
    KKT conditions ``x = max(0, nu A'r)``, ``r = y - A x`` certify it, its
    point, else None.  ``(None, None)`` without a root in the bracket.
    """
    A_S = A[:, support]
    piece = _piece_root(A_S, y, delta, lo, hi)
    if piece is None:
        return None, None
    nu, r = piece
    grad = A.T @ r
    slack = _KKT_SLACK * float(np.abs(grad).max())
    if not (grad[support].min() >= -slack
            and grad[~support].max(initial=-math.inf) <= slack):
        return nu, None
    # x from the normal equations, not nu A_S'r: the spectral r leaves up to
    # cond(I + nu K) times more in x - nu A'r, blurring small entries.
    x = np.zeros(A.shape[1])
    x[support] = np.maximum(np.linalg.solve(
        np.eye(A_S.shape[1]) + nu * (A_S.T @ A_S), nu * (A_S.T @ y)
    ), 0.0)
    return nu, x


def _l1_piece(A, y, lam, delta, support, *_):
    """``(nu, x)`` as :func:`_l2_piece`, for the lasso path; every root is
    certified, wherever it lies, so the bracket goes unused.

    On columns ``A_S = U diag(s) W'`` of full rank the point ``x_S =
    G^{-1}(A_S'y - lam_S/nu)``, ``G = A_S'A_S``, leaves ``r = r0 + w/nu``:
    ``r0`` is the part of ``y`` outside the range of ``A_S`` and
    ``w = A_S G^{-1} lam_S`` lies in it, so ``||r|| = delta`` at
    ``nu = ||w|| / sqrt(delta² - ||r0||²)``.  ``x_S >= 0`` and
    ``nu A'r <= lam`` (equal on the support) certify it, up to roundoff.
    """
    U, s, Wt = np.linalg.svd(A[:, support], full_matrices=False)
    if s.size < max(support.sum(), 1) or s[-1] <= s[0] * y.size * np.finfo(float).eps:
        return None, None
    c = U.T @ y
    r0 = y - U @ c
    t = (Wt @ lam[support]) / s  # w = U t
    gap = delta * delta - float(r0 @ r0)
    if gap <= 0.0:
        return None, None
    nu = math.sqrt(float(t @ t) / gap)
    x = np.zeros(A.shape[1])
    x[support] = Wt.T @ ((c - t / nu) / s)
    slack = _KKT_SLACK * _roundoff(A, y, x)
    if (x.min() < -_KKT_SLACK * x.max()
            or np.max(A.T @ (y - A @ x) - lam / nu) > slack):
        return nu, None
    return nu, np.maximum(x, 0.0)


def _ridge_seed(A, x_ls, dist, delta, lo, hi):
    """The ridge multiplier at which the path, expanded to first order at
    the NNLS point ``x_ls`` (residual norm ``dist < delta``), meets the
    sphere, if it lies in ``[lo, hi]``; else None.

    Near ``nu = inf`` the ridge point on ``S = supp(x_ls)`` is
    ``x_S - G^{-1} x_S / nu``, ``G = A_S'A_S``, and leaves the residual
    ``r_ls + w/nu``, ``w = A_S G^{-1} x_S``.  ``r_ls`` is orthogonal to the
    range of ``A_S`` (the KKT conditions of ``x_ls``), so ``||r|| = delta``
    at ``nu = ||w|| / sqrt(delta² - dist²)``, the closed form of
    :func:`_l1_piece`.
    """
    support = x_ls > 0
    A_S = A[:, support]
    try:
        w = A_S @ np.linalg.solve(A_S.T @ A_S, x_ls[support])
    except np.linalg.LinAlgError:
        return None
    nu = math.sqrt(float(w @ w) / (delta * delta - dist * dist))
    return nu if lo <= nu <= hi else None


def _ball_search(A, y, delta, lo, hi, support, piece, penalized, nu=None) -> np.ndarray:
    """The point where a penalized path meets the sphere ``||A x - y|| =
    delta`` (unit-norm counts), its multiplier bracketed by ``[lo, hi]``.

    ``piece(support, lo, hi)`` gives a support piece's root (or None) and,
    if the KKT conditions certify it, its point.  A failed root in the
    bracket hands over to one NNLS solve ``penalized(nu)``, whose support
    seeds the next piece and whose residual, falling as ``nu`` grows,
    narrows the bracket.  Other pieces, and supports met before, give way
    to a log-scale bisection step: two pieces whose roots lie at each
    other's ends of the bracket would otherwise trade places for ever.
    A multiplier ``nu`` in the bracket, when given, opens the search with
    that NNLS solve in place of the piece on ``support``.
    """
    tried = set()
    for _ in range(_MAX_BALL_SOLVES):
        if nu is None:
            key = support.tobytes()
            root, x = (None, None) if key in tried else piece(support, lo, hi)
            tried.add(key)
            if x is not None:
                return x
            nu = root if root is not None and lo <= root <= hi else math.sqrt(lo * hi)
        x = penalized(nu)
        lo, hi = (nu, hi) if np.linalg.norm(A @ x - y) > delta else (lo, nu)
        support, nu = x > 0, None
    raise _SolveFailed("the ball multiplier search did not settle")


def _min_norm_point(A, x_feasible, solve) -> np.ndarray:
    """Least-norm ``x >= 0`` with ``A x = A x_feasible``.

    With ``Z`` an orthonormal null-space basis of ``A``, every such point
    is ``x_row + Z w`` where ``x_row`` is the row-space part of the
    feasible point, and its norm is ``||x_row||² + ||w||²``: a
    least-distance program in ``w`` with constraints ``Z w >= -x_row``.
    """
    _, sv, vt = np.linalg.svd(A)
    rank_tol = sv[0] * max(A.shape) * np.finfo(float).eps
    rank = int(np.count_nonzero(sv > rank_tol))
    Z = vt[rank:].T
    x_row = x_feasible - Z @ (Z.T @ x_feasible)
    w, _ = _ldp(Z, -x_row - _LDP_SLACK, solve)
    return np.maximum(x_row + Z @ w, 0.0)


def _cone_arrays(p: ConeProblem):
    """Validated ``(A, y, lam)`` of a cone problem."""
    A = np.atleast_2d(np.asarray(p.A, dtype=float))
    y = np.asarray(p.y, dtype=float).ravel()
    m, n = A.shape
    if y.shape != (m,):
        raise ValueError("inconsistent cone dimensions")
    if not (np.isfinite(A).all() and np.isfinite(y).all()):
        raise ValueError("A and y must be finite")
    if not (math.isfinite(p.delta) and p.delta >= 0):
        raise ValueError("delta must be finite and nonnegative")
    if p.objective not in ("l1", "l2"):
        raise ValueError(f"unknown objective {p.objective!r}")
    if p.weights is None:
        return A, y, np.ones(n)
    if p.objective == "l2":
        raise ValueError("weights apply to the l1 objective only")
    lam = np.asarray(p.weights, dtype=float).ravel()
    if lam.shape != (n,) or not (np.isfinite(lam).all() and (lam > 0).all()):
        raise ValueError("weights must be finite, positive and length-matched")
    return A, y, lam


def solve_cone(p: ConeProblem) -> Solution:
    """Exact solve of the ball-constrained nonnegative program.

    * ``||y|| <= delta``: zero is feasible, hence optimal.
    * l1 objective, ``delta = 0``: the linear program, by :func:`lp_phase1`
      and :func:`lp_phase2`.
    * Otherwise the residual of ``nnls(A, y)`` is the distance from ``y``
      to the nonnegative image of ``A``.  Above ``delta`` the ball is
      infeasible if the residual certifies it (:func:`_separates`), and
      the solve ends at the iteration limit if it does not.  At
      ``delta = 0`` counts within ``_TOL_FEAS`` (relative to ``||y||``) of
      the image are accepted.
    * ``delta = 0`` or a ball that meets the image in the one point
      ``A x_ls`` (NNLS residual equal to ``delta``): the feasible set is
      ``{x >= 0 : A x = A x_ls}``.  For l2 its least-norm point, a
      least-distance program; for l1 the optimum of that linear program,
      by :func:`lp_phase1` and :func:`lp_phase2`.
    * Otherwise the optimum lies on the sphere, on the path of
      ``min f(x) + (nu/2)||A x - y||²``.  On each support piece of that
      path the multiplier is a root: of a secular equation for l2, by
      Newton's method on the piece's spectrum, and in closed form for l1.
      A KKT check certifies the root, and a root that fails it hands over
      to one NNLS solve of the penalized program, whose support gives the
      next piece (:func:`_ball_search`).  The l2 search opens with that
      NNLS solve, at the multiplier where the ridge path expanded to first
      order at the NNLS point meets the sphere (:func:`_ridge_seed`), or,
      when that multiplier is undefined or outside the bracket, with the
      piece on the NNLS support.

    Every NNLS answer passes one KKT check or is solved again by BVLS
    (:class:`_CountedNnls`); ``iterations`` counts NNLS solves, BVLS
    re-solves included, plus the simplex pivots of any linear program.
    When a solve or the multiplier search gives up, the status is
    iteration-limit.
    """
    A, y, lam = _cone_arrays(p)
    n = A.shape[1]
    quad = p.objective == "l2"
    delta = float(p.delta)

    def optimal(x, iterations):
        resid = float(np.linalg.norm(y - A @ x))
        return Solution(
            x=x,
            status=STATUS_OPTIMAL,
            objective=float(np.linalg.norm(x)) if quad else float(lam @ x),
            residual_cone=max(0.0, resid - delta),
            iterations=iterations,
        )

    scale = float(np.linalg.norm(y))
    if scale <= delta:
        return optimal(np.zeros(n), 0)
    if delta == 0.0 and not quad:
        sol = lp_phase2(lp_phase1(A, y), lam)
        return replace(sol, residual_cone=float(np.linalg.norm(y - A @ sol.x)))

    # Counts scaled to unit norm; the solution scales back linearly.
    y_unit, delta_unit = y / scale, delta / scale
    solve = _CountedNnls()
    pivots = 0
    try:
        x_ls, dist = solve(A, y_unit)
        limit = delta_unit if delta > 0 else _TOL_FEAS
        if dist > limit:
            if not _separates(A, y_unit, x_ls, dist, limit):
                raise _SolveFailed("no certificate for an infeasible ball")
            return Solution(
                x=np.zeros(n),
                status=STATUS_INFEASIBLE,
                objective=math.nan,
                residual_cone=(dist - delta_unit) * scale,
                iterations=solve.calls,
            )
        if dist >= delta_unit:
            # The ball meets the nonnegative image in the one point A x_ls
            # (always so at delta = 0).
            if quad:
                x = _min_norm_point(A, x_ls, solve)
            else:
                lp = lp_phase2(lp_phase1(A, A @ x_ls), lam)
                pivots = lp.iterations
                if lp.status != STATUS_OPTIMAL:
                    raise _SolveFailed(f"the touching-ball program ended {lp.status}")
                x = lp.x
        else:
            # Ridge: x* = nu A'r*, ||r*|| = delta and ||A x*|| >= 1 - delta
            # bound nu below (halved, as a root at lo is rejected).  Lasso:
            # x = 0 up to lo.  Both: f(x) + (nu/2)||r||² at x_ls bounds
            # ||r||² by 2 f(x_ls)/nu + dist², which reaches delta at hi.
            if quad:
                lo = 0.5 * (1.0 - delta_unit) / (delta_unit * float(np.sum(A * A)))
                piece = partial(_l2_piece, A, y_unit, delta_unit)
                penalized = partial(_ridge, A, y_unit, solve=solve)
            else:
                lo = 1.0 / float(np.max(A.T @ y_unit / lam))
                piece = partial(_l1_piece, A, y_unit, lam, delta_unit)
                penalized = partial(_lasso, A, y_unit, lam, solve=solve)
            hi = (float(x_ls @ x_ls) if quad else 2.0 * float(lam @ x_ls)) / (
                delta_unit * delta_unit - dist * dist)
            seed = _ridge_seed(A, x_ls, dist, delta_unit, lo, hi) if quad else None
            x = _ball_search(A, y_unit, delta_unit, lo, hi, x_ls > 0, piece, penalized, seed)
    except _SolveFailed:
        return Solution(
            x=np.zeros(n),
            status=STATUS_ITERATION_LIMIT,
            objective=math.nan,
            iterations=solve.calls + pivots,
        )
    return optimal(x * scale, solve.calls + pivots)

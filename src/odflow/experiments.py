"""Monte Carlo studies of recovery behavior, plus grid-path combinatorics.

The harness answers three families of questions on the bundled fixtures:

* how often the l1 program recovers random sparse truths as the number of
  measured links varies (``run_recovery_sweep``);
* how the noise-aware l1 and l2 programs compare under Gaussian count
  noise (``run_noisy_cdf``);
* how tight the travel-distance bounds are when exact recovery fails
  (``run_vmt_sweep``).

Reproducibility: trial ``t`` of grid point ``p`` draws from its own
Philox4x64-10 stream, keyed by the 64-bit experiment seed with counter
``[0, 0, p * trials + t, 0]``, the state that ``Philox(key=seed)
.jumped(p * trials + t)`` reaches.  The seed reaches Philox as its key
as given, through a seed sequence of its own (``_PhiloxKey``), so no
stream asks the operating system for entropy.  Seeds and stream indices
are integers in 0..2**64-1.  Results are independent of execution order
and identical across runs and machines.

Within one trial the support, the allocation, and a single permutation of
the links are drawn in that order (then the noise, if any); the measured
set for every M on the grid is a prefix of that permutation, making the
measurement sets nested across the grid.  Each trial's system is a row
slice of one all-links incidence, built once per sweep call.

The grid-path counters back the sparsity motivation: on an N-link square
grid the number of monotone corner-to-corner paths is binomial(N, N/2),
while the fraction using few turns collapses exponentially
(``hoeffding_turn_bound``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .estimators import (
    InfeasibleError,
    _check_integer,
    accept_points,
    estimate_l1_noisy,
    estimate_l2_noisy,
    uncovered_column,
    vmt_bounds,
)
from .fixtures import get_fixture
from .network import LinkId, PathTable, build_static_incidence
from .solver import solve_lp_padded


# Range of the uniform flow drawn for each OD pair a trial routes.
_FLOW_RANGE = (1.0, 100.0)
# Largest experiment seed or substream index: each is one 64-bit word of
# the Philox key or counter.
_SEED_MAX = 2**64 - 1
# Relative error within which an estimate counts as a recovery.
_RECOVERY_TOL = 1e-6
# Trials of one support spec whose l1 programs, one per M of the grid,
# a recovery sweep solves as one stack: enough to spread the fixed cost of
# the stacked simplex's numpy calls, few enough that the stack's memory
# (trials x grid points x one padded tableau) does not grow with --trials.
_STACK_TRIALS = 32


class SparsityRangeError(ValueError):
    """Requested support size is outside 1..N."""


class MeasurementCountError(ValueError):
    """Requested number of measured links is outside 1..L."""


class GridSizeError(ValueError):
    """Grid side count must be a small positive even integer."""


class AlphaRangeError(ValueError):
    """Turn fraction must lie strictly between 0 and 0.5."""


class _PhiloxKey(ISeedSequence):
    """An experiment seed as the two 64-bit words of a Philox key.

    ``Philox(key=seed)`` first fills a ``SeedSequence`` from OS entropy and
    then throws it away; Philox reads its key from this seed sequence
    instead, the same words that ``key=seed`` gives.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key is two 64-bit words")
        return np.array([self.seed, 0], dtype=np.uint64)


def _check_uint64(name: str, value: int) -> None:
    # Philox truncates a float seed and rejects a negative one late, and
    # wraps a negative counter word.
    _check_integer(name, value)
    if not 0 <= value <= _SEED_MAX:
        raise ValueError(f"{name} {value} must lie in 0..2**64-1")


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent Philox substream ``index`` of the experiment ``seed``:
    the state ``Philox(key=seed).jumped(index)`` reaches, set directly.
    Both are integers in 0..2**64-1."""
    _check_uint64("seed", seed)
    _check_uint64("substream index", index)
    counter = np.array([0, 0, index, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_PhiloxKey(seed), counter=counter))


@dataclass(frozen=True)
class TrialConfig:
    """The settings every sweep reads: fixture, trials per grid point and
    experiment seed.  Each sweep takes the rest (grid, supports, noise) as
    arguments of its own.  ``tol`` is the recovery tolerance, a constant;
    it stays a class attribute because the benchmark reads it.
    """

    fixture: str = "fig2"
    trials: int = 500
    seed: int = 0
    tol: ClassVar[float] = _RECOVERY_TOL

    def __post_init__(self):
        # A rate over no trials has no value: sweeps divide by ``trials``
        # and count them with ``range``.
        _check_integer("trials", self.trials)
        if self.trials < 1:
            raise ValueError(f"trials {self.trials} must be at least 1")
        _check_uint64("seed", self.seed)


def sample_support(pt: PathTable, s: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniformly random size-``s`` subset of path positions, sorted."""
    _check_sparsity(pt, s)
    idx = rng.choice(pt.n_paths, size=s, replace=False)
    return tuple(np.sort(idx).tolist())


def _check_sparsity(pt: PathTable, s: int) -> None:
    _check_integer("sparsity", s)
    if not 1 <= s <= pt.n_paths:
        raise SparsityRangeError(f"sparsity {s} outside 1..{pt.n_paths}")


def _check_support(pt: PathTable, support: Sequence[int]) -> tuple[int, ...]:
    """``support`` as a tuple, once it is checked to be a nonempty set of
    path positions."""
    support = tuple(support)
    if not support or len(set(support)) != len(support):
        raise SparsityRangeError("support must be nonempty without duplicates")
    for n in support:
        _check_integer("path position", n)
        if not 0 <= n < pt.n_paths:
            raise SparsityRangeError(f"path position {n} outside 0..{pt.n_paths - 1}")
    return support


def sample_allocation(
    pt: PathTable,
    support: Sequence[int],
    rng: np.random.Generator,
    flow_range: tuple[float, float] = _FLOW_RANGE,
) -> np.ndarray:
    """Random allocation on the support honoring the split-sum rule.

    For every OD pair touched by the support, one flow is drawn uniformly
    from ``flow_range`` and divided over that pair's supported paths by a
    uniform draw from the simplex, so the per-pair splits (including the
    implied zeros) always sum to one.  OD pairs the support misses get
    zero flow.  Draws happen in OD-pair order, and only the pairs the
    support touches are visited.  The simplex draw is the one
    ``rng.dirichlet(np.ones(k))`` makes, standard exponentials over their
    sum, drawn and summed as it does, at less than half its cost.
    ``flow_range`` must be finite with ``0 <= low <= high``.
    """
    support = _check_support(pt, support)
    low, high = _check_flow_range(flow_range)
    x = np.zeros(pt.n_paths)
    od = pt.od_of_path
    touched_by_od: dict[int, list[int]] = {}
    for n in sorted(support):
        touched_by_od.setdefault(od[n], []).append(n)
    for k in sorted(touched_by_od):
        touched = touched_by_od[k]
        flow = rng.uniform(low, high)
        share = rng.standard_exponential(len(touched)).tolist()
        scale = 1.0 / sum(share)
        for n, e in zip(touched, share):
            x[n] = flow * (e * scale)
    return x


def _check_flow_range(flow_range: tuple[float, float]) -> tuple[float, float]:
    # numpy's uniform rejects an infinite or reversed range with an error
    # about its own internals, and draws negative flows from a low below 0.
    low, high = flow_range
    if not (math.isfinite(low) and math.isfinite(high) and 0 <= low <= high):
        raise ValueError(f"flow_range {flow_range} must be finite with 0 <= low <= high")
    return low, high


def _check_m(m: int, n_links: int) -> None:
    _check_integer("m", m)
    if not 1 <= m <= n_links:
        raise MeasurementCountError(f"m {m} outside 1..{n_links}")


def sample_measurements(
    all_links: Sequence[LinkId], m: int, rng: np.random.Generator
) -> tuple[LinkId, ...]:
    """Uniform size-``m`` subset of the links, in their canonical order: a
    prefix of one random permutation, so that prefixes of the same
    permutation for growing ``m`` are nested."""
    _check_m(m, len(all_links))
    perm = rng.permutation(len(all_links))
    # From a list: a tuple built from a generator is sized for 10 and shrunk,
    # and CPython parks each freed one on its new size's free list, so every
    # call left one more block held.
    return tuple([all_links[i] for i in np.sort(perm[:m]).tolist()])


def add_noise(y, nu: float, rng: np.random.Generator) -> np.ndarray:
    """Counts plus iid Gaussian noise of standard deviation ``nu``.

    Values are deliberately not clipped at zero; the noise-aware programs
    must cope with slightly negative counts.
    """
    # A NaN noise level would give NaN counts.
    if not (math.isfinite(nu) and nu >= 0):
        raise ValueError(f"nu {nu} must be finite and nonnegative")
    y = np.asarray(y, dtype=float)
    if nu == 0:
        return y.copy()
    return y + nu * rng.standard_normal(y.shape)


@dataclass(frozen=True)
class RecoveryFlags:
    """Outcome of one trial under the three nested success definitions.

    Path-allocation success implies OD-flow success implies total-flow
    success by construction, so reported rates are always ordered.
    """

    path_alloc: bool
    od_flow: bool
    total_flow: bool


def grade_recovery(x_hat, x_true, pt: PathTable) -> np.ndarray:
    """Grade each row of ``x_hat`` against the same row of ``x_true``.

    Returns a ``K x 3`` boolean array, one row per estimate, of the flags
    of :class:`RecoveryFlags` in their order, with ``tol`` the recovery
    tolerance 1e-6.  Path allocation: relative l2 error at most ``tol``
    (absolute, for a zero truth).  OD flow: every decoded pair flow within
    ``tol`` relatively (absolutely, for pairs with no true flow).  Total
    flow: the summed flow within ``tol`` relatively.
    Each norm is the dot product of a row with itself, as ``np.linalg.norm``
    forms it, and the OD flows of all rows of both stacks are one
    ``np.bincount`` with a bin offset per row, which adds each row's entries
    in its own order; so a row gets the flags it would get alone.
    """
    tol = _RECOVERY_TOL
    x_hat = np.atleast_2d(np.asarray(x_hat, dtype=float))
    x_true = np.atleast_2d(np.asarray(x_true, dtype=float))
    if x_hat.shape != x_true.shape or x_true.shape[1:] != (pt.n_paths,):
        raise ValueError("estimates and truths must be rows of one length per path")
    K, n_od = len(x_true), pt.n_od_pairs
    X = np.concatenate([x_hat, x_true, x_hat - x_true])
    nrm_hat, nrm, nrm_err = np.sqrt((X[:, None, :] @ X[:, :, None])[:, 0, 0]).reshape(3, K)
    path_ok = np.divide(nrm_err, nrm, out=nrm_hat, where=nrm > 0) <= tol

    bins = (np.asarray(pt.od_of_path, dtype=np.intp)
            + n_od * np.arange(2 * K)[:, None]).ravel()
    flows_hat, flows_true = np.bincount(bins, weights=X[:2 * K].ravel(),
                                        minlength=2 * K * n_od).reshape(2, K, n_od)
    od_ok = (np.abs(flows_hat - flows_true) <= tol * np.maximum(flows_true, 1.0)).all(axis=1)
    tot_hat, tot_true = flows_hat.sum(axis=1), flows_true.sum(axis=1)
    total_ok = np.abs(tot_hat - tot_true) <= tol * np.maximum(tot_true, 1.0)

    od_ok |= path_ok
    total_ok |= od_ok
    return np.array([path_ok, od_ok, total_ok]).T


def check_recovery(x_hat, x_true, pt: PathTable) -> RecoveryFlags:
    """Grade an estimate against the generating truth: the one-row case of
    :func:`grade_recovery`."""
    return RecoveryFlags(*grade_recovery(x_hat, x_true, pt)[0].tolist())


def _sweep_system(fixture: str, m_grid: Sequence[int]):
    """``(bundle, all-links incidence)`` of a sweep on ``fixture``, after
    checking every M of ``m_grid``; each trial's system is a row slice of it."""
    bundle = get_fixture(fixture)
    net = bundle.network
    for m in m_grid:
        _check_m(m, len(net.links))
    return bundle, build_static_incidence(bundle.table, net.link_ids, net)


def _stderr(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


# The sweep reports below use slots: a caller that repeats sweeps can hold
# thousands of them, and slots cut their size by a fifth to a third.
@dataclass(frozen=True, slots=True)
class SweepPoint:
    """Aggregated rates for one (support spec, M) grid point."""

    support_label: str
    sparsity: int
    m: int
    trials: int
    rate_path: float
    rate_od: float
    rate_total: float

    def stderr(self, criterion: str) -> float:
        rate = {"path_alloc": self.rate_path, "od_flow": self.rate_od,
                "total_flow": self.rate_total}[criterion]
        return _stderr(rate, self.trials)


@dataclass(frozen=True, slots=True)
class RecoveryReport:
    """All grid points of a recovery sweep plus the seed that made them."""

    points: tuple[SweepPoint, ...]
    seed: int

    CRITERIA = ("path_alloc", "od_flow", "total_flow")
    CSV_HEADER = ("S", "M", "criterion", "rate", "stderr", "trials", "seed")

    def csv_rows(self):
        """Rows under ``CSV_HEADER``."""
        rows = []
        for pt in self.points:
            for crit, rate in zip(
                self.CRITERIA, (pt.rate_path, pt.rate_od, pt.rate_total)
            ):
                rows.append(
                    (pt.sparsity, pt.m, crit, rate, _stderr(rate, pt.trials),
                     pt.trials, self.seed)
                )
        return rows


def _recovery_chunk(full, pt, m_grid, X, perms) -> np.ndarray:
    """How many trials of a chunk pass each criterion, one row per M.

    Trial ``t`` has the truth ``X[t]`` and the link permutation
    ``perms[t]``; its system at ``m`` is the rows of the all-links
    incidence ``full`` at the sorted first ``m`` entries of the
    permutation.
    """
    if not m_grid:
        return np.zeros((0, 3), dtype=np.intp)
    G, (T, n), R = len(m_grid), X.shape, max(m_grid)
    # One block of programs per M, one program per trial in each.
    A = np.zeros((G, T, R, n))
    b = np.zeros((G, T, R))
    for i, m in enumerate(m_grid):
        A[i, :, :m] = full[np.sort(perms[:, :m], axis=1)]
        # one matrix-vector product per program, as the counts of a system
        # of its own are formed; a row slice of the all-links counts can
        # round differently (it did on 8 of 51,200 fig2 programs)
        b[i, :, :m] = (A[i, :, :m] @ X[:, :, None])[..., 0]
    sol = solve_lp_padded(np.ones(n), A.reshape(G * T, R, n), b.reshape(G * T, R),
                          np.repeat(m_grid, T))
    ok, x_hat = accept_points(sol.status, sol.x)
    flags = grade_recovery(x_hat, np.tile(X, (G, 1)), pt) & ok[:, None]
    return flags.reshape(G, T, 3).sum(axis=1)


def _check_spec(pt: PathTable, spec) -> tuple[int, ...] | int:
    """A recovery sweep's support spec, checked: an integer is a sparsity
    level drawn fresh each trial, anything else a fixed support."""
    if np.ndim(spec) == 0:
        _check_sparsity(pt, spec)
        return int(spec)
    return _check_support(pt, spec)


def run_recovery_sweep(
    cfg: TrialConfig,
    m_grid: Sequence[int],
    supports: Sequence[tuple[int, ...] | int],
) -> RecoveryReport:
    """Noiseless l1 recovery rates over a (support, M) grid.

    Each trial samples an allocation (on the fixed support, or on a fresh
    random support when the spec is an integer sparsity), forms exact
    counts on a random measured subset, re-estimates with the l1 program,
    and grades the result under the three criteria.  Infeasible solves,
    iteration limits and rejected outputs (:func:`~odflow.estimators.
    accept_points`) fail all three.  Measured subsets are nested across the
    M grid within a trial.  Every M and every spec is checked before the
    first trial.  The trials of a spec run in chunks of up to
    ``_STACK_TRIALS``: each chunk's l1 programs, every M of each trial, are
    row slices of the all-links incidence, solved as one padded stack
    (:func:`~odflow.solver.solve_lp_padded`) and graded at once
    (:func:`grade_recovery`).
    """
    bundle, full = _sweep_system(cfg.fixture, m_grid)
    m_grid = [int(m) for m in m_grid]
    pt, n_links = bundle.table, full.n_rows
    supports = [_check_spec(pt, sup) for sup in supports]
    # Equal rates share one float object, which keeps the points a caller
    # holds (see SweepPoint) about a quarter smaller.
    rates: dict[int, float] = {}

    points: list[SweepPoint] = []
    for p_idx, sup in enumerate(supports):
        passed = np.zeros((len(m_grid), 3), dtype=np.intp)
        for first in range(0, cfg.trials, _STACK_TRIALS):
            truths, perms = [], []
            for t in range(first, min(first + _STACK_TRIALS, cfg.trials)):
                rng = substream(cfg.seed, p_idx * cfg.trials + t)
                support = sample_support(pt, sup, rng) if isinstance(sup, int) else sup
                truths.append(sample_allocation(pt, support, rng))
                perms.append(rng.permutation(n_links))
            passed += _recovery_chunk(full.matrix, pt, m_grid, np.array(truths),
                                      np.array(perms))
        label = f"S={sup}" if isinstance(sup, int) else "fixed" + str(sup)
        sparsity = sup if isinstance(sup, int) else len(sup)
        for m, counts in zip(m_grid, passed.tolist()):
            rate_path, rate_od, rate_total = (
                rates.setdefault(n, n / cfg.trials) for n in counts)
            points.append(SweepPoint(
                support_label=label,
                sparsity=sparsity,
                m=m,
                trials=cfg.trials,
                rate_path=rate_path,
                rate_od=rate_od,
                rate_total=rate_total,
            ))
    return RecoveryReport(points=tuple(points), seed=cfg.seed)


@dataclass(frozen=True)
class NoisyCdfReport:
    """Per-method sorted error samples from the noisy comparison.

    Trials whose noisy ball is infeasible (possible in the tails, since the
    default radius is the expected noise norm) contribute an infinite error
    to both methods; ``infeasible_trials`` counts them.
    """

    errors_l1: tuple[float, ...]
    errors_l2: tuple[float, ...]
    delta: float
    seed: int
    infeasible_trials: int = 0

    CSV_HEADER = ("method", "error", "cdf")

    def quantile(self, method: str, q: float) -> float:
        errs = self.errors_l1 if method == "l1" else self.errors_l2
        return float(np.quantile(np.asarray(errs), q, method="linear"))

    def csv_rows(self):
        """Rows under ``CSV_HEADER``, errors ascending per method."""
        rows = []
        for method, errs in (("l1", self.errors_l1), ("l2", self.errors_l2)):
            for i, e in enumerate(errs):
                rows.append((method, e, (i + 1) / len(errs)))
        return rows


def run_noisy_cdf(
    cfg: TrialConfig,
    support: Sequence[int],
    m: int,
    noise_sd: float,
    delta: float | None = None,
) -> NoisyCdfReport:
    """Relative-error samples of the noise-aware l1 and l2 programs.

    Each trial draws an allocation on ``support``, measures ``m`` links and
    adds noise of standard deviation ``noise_sd`` (finite and positive);
    both programs see the same counts.  ``delta`` defaults to ``noise_sd *
    sqrt(m)``, the expected noise norm.  A trial whose ball is infeasible is
    recorded as described on :class:`NoisyCdfReport`; other failures propagate.
    """
    if not (math.isfinite(noise_sd) and noise_sd > 0):
        raise ValueError(f"noise_sd {noise_sd} must be finite and positive")
    if np.ndim(support) == 0:
        raise ValueError("run_noisy_cdf needs an explicit support")
    bundle, full = _sweep_system(cfg.fixture, [m])
    pt, link_ids = bundle.table, full.row_labels
    if delta is None:
        delta = noise_sd * math.sqrt(m)

    errs_l1: list[float] = []
    errs_l2: list[float] = []
    infeasible = 0
    for t in range(cfg.trials):
        rng = substream(cfg.seed, t)
        x_true = sample_allocation(pt, support, rng)
        ms = full.subsystem(sample_measurements(link_ids, m, rng))
        y = add_noise(ms.matrix @ x_true, noise_sd, rng)
        nrm = float(np.linalg.norm(x_true))
        try:
            r1 = estimate_l1_noisy(ms, y, delta)
            r2 = estimate_l2_noisy(ms, y, delta)
        except InfeasibleError:
            infeasible += 1
            errs_l1.append(math.inf)
            errs_l2.append(math.inf)
            continue
        errs_l1.append(float(np.linalg.norm(r1.allocation.x - x_true)) / nrm)
        errs_l2.append(float(np.linalg.norm(r2.allocation.x - x_true)) / nrm)
    return NoisyCdfReport(
        errors_l1=tuple(sorted(errs_l1)),
        errors_l2=tuple(sorted(errs_l2)),
        delta=delta,
        seed=cfg.seed,
        infeasible_trials=infeasible,
    )


@dataclass(frozen=True, slots=True)
class VmtSweepPoint:
    """Travel-bound outcomes for one measurement count."""

    m: int
    trials: int
    rate_min: float
    rate_max: float
    mean_ratio_min: float
    mean_ratio_max: float
    unbounded_count: int
    sandwich_violations: int


@dataclass(frozen=True, slots=True)
class VmtReport:
    points: tuple[VmtSweepPoint, ...]
    seed: int

    CSV_HEADER = ("M", "rate_min", "rate_max", "mean_ratio_min", "mean_ratio_max",
                  "unbounded_count")

    def csv_rows(self):
        """Rows under ``CSV_HEADER``."""
        return [
            (p.m, p.rate_min, p.rate_max, p.mean_ratio_min, p.mean_ratio_max,
             p.unbounded_count)
            for p in self.points
        ]


def run_vmt_sweep(cfg: TrialConfig, m_grid: Sequence[int]) -> VmtReport:
    """Travel-bound recovery study on the Nguyen-Dupuis fixture.

    Each trial routes one random path per OD pair with a random flow, then
    bounds total travel from a random measured subset.  Recovery means the
    bounding program returned the truth itself, by the path-allocation flag
    of :func:`grade_recovery`, which grades every bounded min and max
    program of a grid point in one call; among failures the mean ratios of
    the bounds to the true value are recorded.  Trials where the maximizing
    program is unbounded (a path of positive length crosses no measured
    link, :func:`~odflow.estimators.uncovered_column`) count as failures
    with their ratio excluded and are tallied separately; their counts come
    from the truth and so are feasible, and they are settled before any
    solve.
    """
    bundle, full = _sweep_system(cfg.fixture, m_grid)
    pt, link_ids = bundle.table, full.row_labels
    lengths = bundle.path_lengths

    points: list[VmtSweepPoint] = []
    for p_idx, m in enumerate(m_grid):
        unbounded = violations = 0
        truths, bounded = [], []
        for t in range(cfg.trials):
            rng = substream(cfg.seed, p_idx * cfg.trials + t)
            x_true = np.zeros(pt.n_paths)
            for group in pt.paths_by_od:
                n = group[rng.integers(len(group))]
                x_true[n] = rng.uniform(*_FLOW_RANGE)
            ms = full.subsystem(sample_measurements(link_ids, m, rng))
            if uncovered_column(ms, lengths) is not None:
                unbounded += 1
                continue
            true_value = float(lengths @ x_true)
            bounds = vmt_bounds(ms, ms.matrix @ x_true, lengths)
            if not (
                bounds.vmt_lower <= true_value + 1e-6
                and bounds.vmt_upper >= true_value - 1e-6
            ):
                violations += 1
            truths.append(x_true)
            bounded.append((bounds, true_value))
        ok_min = ok_max = []
        if bounded:
            # one grade: the min programs' rows, then the max programs'
            x_hat = [b.x_min.x for b, _ in bounded] + [b.x_max.x for b, _ in bounded]
            path_ok = grade_recovery(x_hat, truths + truths, pt)[:, 0]
            ok_min, ok_max = path_ok.reshape(2, -1).tolist()
        ratios_min = [b.vmt_lower / v for (b, v), ok in zip(bounded, ok_min) if not ok]
        ratios_max = [b.vmt_upper / v for (b, v), ok in zip(bounded, ok_max) if not ok]
        points.append(VmtSweepPoint(
            m=m,
            trials=cfg.trials,
            rate_min=sum(ok_min) / cfg.trials,
            rate_max=sum(ok_max) / cfg.trials,
            mean_ratio_min=float(np.mean(ratios_min)) if ratios_min else math.nan,
            mean_ratio_max=float(np.mean(ratios_max)) if ratios_max else math.nan,
            unbounded_count=unbounded,
            sandwich_violations=violations,
        ))
    return VmtReport(points=tuple(points), seed=cfg.seed)


def _check_grid_side(n: int) -> None:
    # math.comb raises a bare TypeError on a float side.
    _check_integer("n", n, GridSizeError)
    if n % 2 != 0 or not 2 <= n <= 60:
        raise GridSizeError("n must be an even integer in 2..60")


def grid_path_count(n: int) -> int:
    """Monotone corner-to-corner paths on an n-link square grid, exactly."""
    _check_grid_side(n)
    return math.comb(n, n // 2)


def grid_paths_max_turns(n: int, turns: int) -> int:
    """Monotone grid paths using at most ``turns`` direction changes.

    A path with ``t`` turns runs in ``t + 1`` alternating straight pieces,
    which split each heading's ``s = n / 2`` moves into positive parts: for
    either first heading, ``C(s-1, t // 2) C(s-1, (t-1) // 2)`` paths make
    exactly ``t >= 1`` turns.  Exact integer arithmetic throughout.
    """
    _check_grid_side(n)
    _check_integer("turns", turns, GridSizeError)
    if turns < 0:
        raise GridSizeError("turns must be nonnegative")
    k = n // 2 - 1
    return sum(
        2 * math.comb(k, t // 2) * math.comb(k, (t - 1) // 2)
        for t in range(1, min(turns, n - 1) + 1)
    )


def grid_turn_fraction(alpha: float, n: int) -> float:
    """Exact fraction of grid paths making at most ``alpha * n`` turns."""
    if not 0 < alpha < 0.5:
        raise AlphaRangeError("alpha must lie strictly between 0 and 0.5")
    few = grid_paths_max_turns(n, math.floor(alpha * n))
    return float(Fraction(few, grid_path_count(n)))


def hoeffding_turn_bound(alpha: float, n: int) -> float:
    """Tail bound exp(-2 (0.5 - alpha)^2 n) on the few-turn path fraction."""
    if not 0 < alpha < 0.5:
        raise AlphaRangeError("alpha must lie strictly between 0 and 0.5")
    _check_integer("n", n, GridSizeError)
    if n <= 0:
        raise GridSizeError("n must be positive")
    return math.exp(-2.0 * (0.5 - alpha) ** 2 * n)

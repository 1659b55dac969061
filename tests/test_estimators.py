from dataclasses import replace

import numpy as np
import pytest

from odflow import (
    Allocation,
    InfeasibleError,
    StandardLP,
    UnboundedError,
    WeightMatrix,
    build_dynamic_system,
    build_static_incidence,
    decode_allocation,
    estimate_l1,
    estimate_l1_noisy,
    estimate_l2,
    estimate_l2_noisy,
    estimate_weighted_l1,
    reweighted_l1,
    sample_measurements,
    solve_lp,
    substream,
    vmt_bounds,
)
from odflow import estimators
from odflow.estimators import EstimationError, uncovered_column
from odflow.network import MeasurementSystem
from odflow.fixtures import (
    SIX_LINKS_A,
    SIX_LINKS_B,
    SUPPORT_4SPARSE,
)
from oracles import grid_rows, zero_count_presolve, zero_floor


def four_sparse_truth(f1=10.0, f2=20.0, f3=40.0):
    """The bundled 4-sparse demo allocation on the fig2 catalog."""
    x = np.zeros(14)
    x[1] = f1
    x[7] = f2
    x[10] = 0.25 * f3
    x[13] = 0.75 * f3
    return x


def path_lengths(bundle):
    return np.array([
        sum(bundle.network.link_by_id[lid].length for lid in p.links)
        for p in bundle.table.paths
    ])


def nguyen_all_links(nguyen, seed):
    """All-links system on nguyen and the counts of one random path per OD
    pair with a uniform flow, rounded to 12 significant digits as count
    files store them."""
    ms = build_static_incidence(
        nguyen.table, list(nguyen.network.link_ids), nguyen.network
    )
    rng = np.random.default_rng(seed)
    x = np.zeros(ms.n_cols)
    for group in nguyen.table.paths_by_od:
        x[group[rng.integers(len(group))]] = rng.uniform(1.0, 100.0)
    y = np.array([float(f"{v:.12g}") for v in ms.matrix @ x])
    return ms, x, y


@pytest.fixture(scope="module")
def six_link_system(fig2):
    return build_static_incidence(fig2.table, SIX_LINKS_A, fig2.network)


ESTIMATORS = {
    "l1": estimate_l1,
    "l2": estimate_l2,
    "l1-noisy": lambda ms, y: estimate_l1_noisy(ms, y, 0.5),
    "l2-noisy": lambda ms, y: estimate_l2_noisy(ms, y, 0.5),
    "weighted-l1": lambda ms, y: estimate_weighted_l1(
        ms, y, WeightMatrix(np.ones(ms.n_cols))
    ),
    "reweighted-l1": reweighted_l1,
    "vmt": lambda ms, y: vmt_bounds(ms, y, np.ones(ms.n_cols)),
}


@pytest.mark.parametrize("method", sorted(ESTIMATORS))
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_counts_rejected(six_link_system, method, value):
    y = six_link_system.matrix @ four_sparse_truth()
    y[2] = value
    with pytest.raises(ValueError):
        ESTIMATORS[method](six_link_system, y)


@pytest.fixture
def phase1_counts(monkeypatch):
    """The count vector of every phase 1 the estimators run."""
    calls = []
    phase1 = estimators.lp_phase1
    monkeypatch.setattr(estimators, "lp_phase1",
                        lambda A, b: calls.append(b) or phase1(A, b))
    return calls


class TestFeasibleStart:
    # every noiseless linear program enters through one phase 1 on checked counts
    LP_ESTIMATORS = {
        "l1": estimate_l1,
        "weighted-l1": ESTIMATORS["weighted-l1"],
        "reweighted-l1": lambda ms, y: reweighted_l1(ms, y, iters=3),
        # unit lengths on the measured columns only, so the maximum is bounded
        "vmt": lambda ms, y: vmt_bounds(ms, y, ms.matrix.any(axis=0).astype(float)),
    }

    @pytest.mark.parametrize("method", sorted(LP_ESTIMATORS))
    def test_one_phase1_per_estimate(self, six_link_system, phase1_counts, method):
        y = six_link_system.matrix @ four_sparse_truth()
        self.LP_ESTIMATORS[method](six_link_system, list(y))
        assert len(phase1_counts) == 1
        assert phase1_counts[0].tobytes() == y.tobytes()

    @pytest.mark.parametrize("method", sorted(LP_ESTIMATORS))
    @pytest.mark.parametrize("bad,message", [
        ("nan", "counts must be finite"),
        ("negative", "counts must be nonnegative"),
        ("short", "count vector length 5 does not match 6 rows"),
    ])
    def test_bad_counts_reach_no_phase1(self, six_link_system, phase1_counts,
                                        method, bad, message):
        y = six_link_system.matrix @ four_sparse_truth()
        y = {"nan": np.where(np.arange(6) == 2, np.nan, y),
             "negative": np.where(np.arange(6) == 2, -1.0, y),
             "short": y[:5]}[bad]
        with pytest.raises(ValueError, match=message):
            self.LP_ESTIMATORS[method](six_link_system, y)
        assert phase1_counts == []

    def test_bad_weights_and_lengths_reach_no_phase1(self, six_link_system,
                                                     phase1_counts):
        y = six_link_system.matrix @ four_sparse_truth()
        with pytest.raises(ValueError, match="weight vector length"):
            estimate_weighted_l1(six_link_system, y, WeightMatrix(np.ones(13)))
        lengths = np.ones(14)
        lengths[3] = np.nan
        with pytest.raises(ValueError, match="path lengths must be finite"):
            vmt_bounds(six_link_system, y, lengths)
        assert phase1_counts == []


def api_system(matrix, table):
    """A static system over ``table``'s paths with a hand-written matrix."""
    matrix = np.array(matrix, dtype=float)
    return MeasurementSystem(matrix, tuple(range(matrix.shape[0])),
                             tuple(range(matrix.shape[1])), "static", table)


@pytest.fixture
def phase1_systems(monkeypatch):
    """The ``(A, b)`` of every phase 1 the estimators run."""
    calls = []
    phase1 = estimators.lp_phase1
    monkeypatch.setattr(estimators, "lp_phase1",
                        lambda A, b: calls.append((A, b)) or phase1(A, b))
    return calls


class TestPresolve:
    # the phase-1 door drops zero-count rows without negative entries and
    # the columns they force to zero, and maps every answer back
    def test_positive_count_with_every_column_forced_out_is_infeasible(
            self, fig2, phase1_systems):
        # row 0 counts zero on paths 0-2, so row 1's count of 5 on paths 1
        # and 2 has no column left
        A = np.zeros((3, 14))
        A[0, :3] = A[1, 1:3] = A[2, 3:] = 1.0
        ms, y = api_system(A, fig2.table), [0.0, 5.0, 4.0]
        for estimate in (estimate_l1, lambda ms, y: vmt_bounds(ms, y, np.ones(14))):
            with pytest.raises(InfeasibleError):
                estimate(ms, y)
        assert solve_lp(StandardLP(c=np.ones(14), A=A, b=y)).status == "infeasible"
        kept, b = phase1_systems[0]
        assert kept.shape == (2, 11) and not kept[0].any() and b.tolist() == [5.0, 4.0]

    def test_zero_row_with_a_negative_entry_is_kept(self, fig2, phase1_systems):
        # x_1 - x_7 = 0 holds the two flows equal; dropping that row with
        # column 1 would force x_1 and then x_7 to zero.  l4-2's zero count
        # goes, with paths 4, 8 and 11.
        x = four_sparse_truth(f1=20.0)
        links = build_static_incidence(fig2.table, SIX_LINKS_B, fig2.network).matrix
        A = np.vstack([links, np.eye(14)[1] - np.eye(14)[7]])
        ms = api_system(A, fig2.table)
        y = A @ x
        assert y[-1] == 0.0
        got = estimate_l1(ms, y)
        want = solve_lp(StandardLP(c=np.ones(14), A=A, b=y))
        assert got.objective == pytest.approx(want.objective, rel=1e-9)
        assert np.linalg.norm(got.allocation.x - want.x) <= 1e-9 * np.linalg.norm(want.x)
        assert got.allocation.x[1] == pytest.approx(got.allocation.x[7], rel=1e-9)
        assert got.allocation.x[1] > 0
        kept, b = phase1_systems[0]
        assert kept.shape == (6, 11) and (kept[-1] < 0).any() and b[-1] == 0.0

    @pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
    def test_all_zero_counts_give_zero(self, fig1, fig2, phase1_systems, dynamic):
        ms = (build_dynamic_system(fig1.table, fig1.network,
                                   grid_rows(fig1.network.link_ids, [1, 2]))
              if dynamic else build_static_incidence(fig2.table, SIX_LINKS_A, fig2.network))
        y = np.zeros(ms.n_rows)
        covered = ms.matrix.any(axis=0).astype(float)
        for res in (estimate_l1(ms, y), reweighted_l1(ms, y, iters=2),
                    estimate_weighted_l1(ms, y, WeightMatrix(np.full(ms.n_cols, 2.0)))):
            assert res.status == "optimal"
            assert res.objective == 0.0 and res.residual_eq == 0.0
            assert res.allocation.x.tobytes() == np.zeros(ms.n_cols).tobytes()
        bounds = vmt_bounds(ms, y, covered)
        assert bounds.vmt_lower == bounds.vmt_upper == 0.0
        assert not bounds.x_min.x.any() and not bounds.x_max.x.any()
        # no row is left, and only columns that cross no measured row
        assert all(A.shape == (0, ms.n_cols - int(covered.sum())) for A, _ in phase1_systems)

    def test_basis_and_unbounded_index_are_full_columns(self, fig1):
        full = build_dynamic_system(fig1.table, fig1.network,
                                    grid_rows(fig1.network.link_ids, [2, 3, 4]))
        rng = np.random.default_rng(5)
        shifted = 0
        for _ in range(30):
            keep = np.sort(rng.permutation(full.n_rows)[:int(rng.integers(2, full.n_rows))])
            ms = full.subsystem([full.row_labels[i] for i in keep])
            x = np.where(rng.random(ms.n_cols) < 0.3, rng.uniform(1.0, 100.0, ms.n_cols), 0.0)
            y = ms.matrix @ x
            rows, cols = zero_count_presolve(ms.matrix, y)
            start = estimators._feasible_start(ms, y)
            assert start.cols.tolist() == cols.tolist()
            lengths = np.ones(ms.n_cols)
            for c, sense in ((lengths, "min"), (lengths, "max")):
                got = start.solve(c, sense)
                want = solve_lp(StandardLP(c=c[cols], A=ms.matrix[np.ix_(rows, cols)],
                                           b=y[rows], sense=sense))
                assert got.status == want.status
                assert got.basis == tuple(cols[list(want.basis)].tolist())
                assert set(np.flatnonzero(got.x)) <= set(got.basis)
                if want.unbounded_index is None:
                    assert got.unbounded_index is None
                    continue
                assert got.unbounded_index == cols[want.unbounded_index]
                assert got.unbounded_index == uncovered_column(ms, lengths)
                shifted += got.unbounded_index != want.unbounded_index
        assert shifted  # some certificate sits past a dropped column

    def test_vmt_names_the_full_column(self, fig2, phase1_systems):
        # l3-1's zero count forces out paths 0, 5 and 12; path 9 (l4-1 ->
        # l1-2) is the first that crosses no measured link, column 7 of the
        # presolved program
        ms = build_static_incidence(fig2.table, ["l3-1", "l3-2", "l3-4"], fig2.network)
        x = np.zeros(14)
        x[[1, 3]] = 4.0, 7.0
        with pytest.raises(UnboundedError) as exc:
            vmt_bounds(ms, ms.matrix @ x, np.ones(14))
        assert uncovered_column(ms, np.ones(14)) == 9
        assert exc.value.path_label == ms.col_labels[9] == 9
        kept, _ = phase1_systems[0]
        assert kept.shape == (2, 11)


class TestL1:
    def test_exact_recovery_from_six_counts(self, six_link_system):
        rng = np.random.default_rng(42)
        for _ in range(20):
            x = four_sparse_truth(*rng.uniform(1.0, 100.0, size=3))
            y = six_link_system.matrix @ x
            res = estimate_l1(six_link_system, y)
            rel = np.linalg.norm(res.allocation.x - x) / np.linalg.norm(x)
            assert rel <= 1e-6

    def test_decoded_flows_and_splits(self, six_link_system, fig2):
        x = four_sparse_truth()
        res = estimate_l1(six_link_system, six_link_system.matrix @ x)
        assert res.od_flows == pytest.approx((10.0, 20.0, 40.0), abs=1e-8)
        assert res.splits[10] == pytest.approx(0.25, abs=1e-9)
        assert res.splits[13] == pytest.approx(0.75, abs=1e-9)
        decoded = decode_allocation(res.allocation.per_path_totals(), fig2.table)
        assert decoded.od_flows == pytest.approx(res.od_flows)

    def test_zero_counts_give_zero(self, six_link_system):
        res = estimate_l1(six_link_system, np.zeros(6))
        assert np.max(res.allocation.x) == 0.0
        assert res.od_flows == (0.0, 0.0, 0.0)

    def test_one_sparse_single_link(self, fig2):
        # one measured link on the true path: the l1 argmin puts all mass
        # on a single crossing column, at the oracle's objective
        from odflow import StandardLP
        from oracles import lp_oracle

        ms = build_static_incidence(fig2.table, ["l4-2"], fig2.network)
        y = np.array([5.0])
        res = estimate_l1(ms, y)
        oracle = lp_oracle(StandardLP(c=np.ones(14), A=ms.matrix, b=y))
        assert res.objective == pytest.approx(oracle.objective, abs=1e-9)
        assert res.objective == pytest.approx(5.0, abs=1e-9)
        assert res.allocation.sparsity() == 1

    def test_infeasible_counts_raise(self, fig2):
        # l1-3 lies only on the path that also crosses l3-2
        ms = build_static_incidence(fig2.table, ["l1-3", "l3-2"], fig2.network)
        with pytest.raises(InfeasibleError):
            estimate_l1(ms, np.array([5.0, 0.0]))

    def test_negative_counts_rejected(self, six_link_system):
        with pytest.raises(ValueError):
            estimate_l1(six_link_system, -np.ones(6))

    def test_length_mismatch_rejected(self, six_link_system):
        with pytest.raises(ValueError):
            estimate_l1(six_link_system, np.ones(5))

    def test_objective_no_larger_than_truth(self, six_link_system):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = four_sparse_truth(*rng.uniform(1.0, 100.0, size=3))
            res = estimate_l1(six_link_system, six_link_system.matrix @ x)
            assert res.objective <= x.sum() + 1e-9


class TestL2:
    def test_dense_failure_on_six_counts(self, six_link_system):
        x = four_sparse_truth()
        res = estimate_l2(six_link_system, six_link_system.matrix @ x)
        rel = np.linalg.norm(res.allocation.x - x) / np.linalg.norm(x)
        assert rel > 0.1
        assert res.allocation.sparsity() > 4

    def test_zero_counts(self, six_link_system):
        res = estimate_l2(six_link_system, np.zeros(6))
        assert np.max(res.allocation.x) <= 1e-8


class TestNoisy:
    def test_delta_zero_matches_noiseless(self, six_link_system):
        x = four_sparse_truth()
        y = six_link_system.matrix @ x
        exact = estimate_l1(six_link_system, y)
        noisy = estimate_l1_noisy(six_link_system, y, 0.0)
        assert noisy.objective == pytest.approx(exact.objective, abs=1e-6)
        assert np.allclose(noisy.allocation.x, exact.allocation.x, atol=1e-5)

    def test_l2_delta_zero_matches_noiseless(self, six_link_system):
        x = four_sparse_truth()
        y = six_link_system.matrix @ x
        a = estimate_l2(six_link_system, y)
        b = estimate_l2_noisy(six_link_system, y, 0.0)
        assert np.allclose(a.allocation.x, b.allocation.x, atol=1e-5)

    def test_huge_delta_gives_zero(self, six_link_system):
        x = four_sparse_truth()
        y = six_link_system.matrix @ x
        delta = float(np.linalg.norm(y)) * 1.01
        for estimator in (estimate_l1_noisy, estimate_l2_noisy):
            res = estimator(six_link_system, y, delta)
            assert np.max(res.allocation.x) <= 1e-6

    def test_objective_nonincreasing_in_delta(self, six_link_system):
        x = four_sparse_truth()
        y = six_link_system.matrix @ x
        objectives = [
            estimate_l1_noisy(six_link_system, y, d).objective
            for d in (1e-1, 1e-3, 1e-6)
        ]
        # smaller delta means a tighter ball, so the optimum cannot improve
        assert objectives[0] <= objectives[1] + 1e-6
        assert objectives[1] <= objectives[2] + 1e-6
        noiseless = estimate_l1(six_link_system, y).objective
        assert objectives[2] == pytest.approx(noiseless, rel=1e-4)

    @pytest.mark.parametrize("delta", [-1.0, np.nan, np.inf], ids=["-1", "nan", "inf"])
    @pytest.mark.parametrize("estimate", [estimate_l1_noisy, estimate_l2_noisy],
                             ids=["l1-noisy", "l2-noisy"])
    def test_negative_delta_rejected(self, six_link_system, estimate, delta):
        # one check, the cone solver's, for every delta outside [0, inf)
        with pytest.raises(ValueError, match="delta must be finite and nonnegative"):
            estimate(six_link_system, np.ones(6), delta)


class TestWeighted:
    def test_unit_weights_match_plain(self, six_link_system):
        x = four_sparse_truth()
        y = six_link_system.matrix @ x
        plain = estimate_l1(six_link_system, y)
        weighted = estimate_weighted_l1(
            six_link_system, y, WeightMatrix(np.ones(14))
        )
        assert np.allclose(plain.allocation.x, weighted.allocation.x, atol=1e-9)

    def test_weight_scaling_leaves_argmin(self, six_link_system):
        x = four_sparse_truth()
        y = six_link_system.matrix @ x
        lam = np.linspace(0.5, 2.0, 14)
        a = estimate_weighted_l1(six_link_system, y, WeightMatrix(lam))
        b = estimate_weighted_l1(six_link_system, y, WeightMatrix(7.5 * lam))
        assert np.allclose(a.allocation.x, b.allocation.x, atol=1e-9)
        assert b.objective == pytest.approx(7.5 * a.objective, rel=1e-9)

    def test_support_weights_break_degeneracy(self, fig2):
        """On the alternate six-link set the plain program is ambiguous:
        paths 1, 2 and 6 cross only l3-2 among the measured links, so any
        split of the first OD flow among them is optimal.  Small weights on
        the true support make the truth the unique optimum."""
        ms = build_static_incidence(fig2.table, SIX_LINKS_B, fig2.network)
        x = four_sparse_truth()
        y = ms.matrix @ x

        x_alt = x.copy()
        x_alt[2] = x_alt[1]
        x_alt[1] = 0.0
        assert np.allclose(ms.matrix @ x_alt, y)
        plain = estimate_l1(ms, y)
        assert x_alt.sum() == pytest.approx(plain.objective, abs=1e-9)

        lam = np.ones(14)
        lam[list(SUPPORT_4SPARSE)] = 0.1
        weighted = estimate_weighted_l1(ms, y, WeightMatrix(lam))
        rel = np.linalg.norm(weighted.allocation.x - x) / np.linalg.norm(x)
        assert rel <= 1e-6
        # the alternative optimum of the plain program costs strictly more
        # under the support weights
        assert float(lam @ x_alt) > weighted.objective + 1e-9

    def test_wrong_length_rejected(self, six_link_system):
        with pytest.raises(ValueError):
            estimate_weighted_l1(
                six_link_system, np.ones(6), WeightMatrix(np.ones(5))
            )

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError):
            WeightMatrix(np.array([1.0, -1.0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, value):
        with pytest.raises(ValueError):
            WeightMatrix(np.array([1.0, value]))


class TestReweighted:
    def test_single_round_equals_plain(self, six_link_system):
        x = four_sparse_truth()
        y = six_link_system.matrix @ x
        plain = estimate_l1(six_link_system, y)
        rew = reweighted_l1(six_link_system, y, iters=1)
        assert np.allclose(plain.allocation.x, rew.allocation.x, atol=1e-12)
        assert len(rew.objective_trace) == 1

    def test_recovered_instance_is_fixed_point(self, six_link_system):
        x = four_sparse_truth()
        y = six_link_system.matrix @ x
        rew = reweighted_l1(six_link_system, y, iters=4)
        assert np.linalg.norm(rew.allocation.x - x) <= 1e-6 * np.linalg.norm(x)
        assert len(rew.objective_trace) == 4
        assert max(rew.objective_trace) - min(rew.objective_trace) <= 1e-6

    def test_rate_at_least_plain_over_random_trials(self, fig2):
        ms = build_static_incidence(fig2.table, SIX_LINKS_B, fig2.network)
        rng = np.random.default_rng(17)
        plain_hits = rew_hits = 0
        for _ in range(200):
            support = sorted(rng.choice(14, size=4, replace=False))
            x = np.zeros(14)
            for k, group in enumerate(fig2.table.paths_by_od):
                chosen = [n for n in group if n in support]
                if not chosen:
                    continue
                flow = rng.uniform(1.0, 100.0)
                split = rng.dirichlet(np.ones(len(chosen)))
                for n, w in zip(chosen, split):
                    x[n] = flow * w
            y = ms.matrix @ x
            nrm = np.linalg.norm(x)
            if nrm == 0:
                continue
            plain = estimate_l1(ms, y)
            rew = reweighted_l1(ms, y, iters=4)
            plain_hits += np.linalg.norm(plain.allocation.x - x) <= 1e-6 * nrm
            rew_hits += np.linalg.norm(rew.allocation.x - x) <= 1e-6 * nrm
        assert rew_hits >= plain_hits

    def test_bad_iters_rejected(self, six_link_system):
        with pytest.raises(ValueError):
            reweighted_l1(six_link_system, np.ones(6), iters=0)

    def test_fractional_iters_rejected_before_any_solve(self, six_link_system, monkeypatch):
        solves = []
        monkeypatch.setattr(estimators, "lp_phase1", lambda *a: solves.append(a))
        with pytest.raises(ValueError, match=r"iters 2\.5 is not an integer"):
            reweighted_l1(six_link_system, np.ones(6), iters=2.5)
        assert not solves

    def test_bool_iters_rejected(self, six_link_system):
        # True ran as one solve
        with pytest.raises(ValueError, match="iters True is not an integer"):
            reweighted_l1(six_link_system, np.ones(6), iters=True)

    def test_numpy_integer_iters(self, six_link_system):
        y = six_link_system.matrix @ four_sparse_truth()
        got = reweighted_l1(six_link_system, y, iters=np.int64(2))
        want = reweighted_l1(six_link_system, y, iters=2)
        assert got.objective_trace == want.objective_trace
        assert np.array_equal(got.allocation.x, want.allocation.x)

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf])
    def test_non_finite_epsilon_rejected(self, six_link_system, epsilon):
        # NaN would fail inside phase 2, and inf would zero every later weight
        with pytest.raises(ValueError, match=f"epsilon {epsilon} must be finite"):
            reweighted_l1(six_link_system, np.ones(6), epsilon=epsilon)

    def test_matches_round_by_round_solves(self, fig2):
        # one shared phase 1 gives what a full solve per round gives
        ms = build_static_incidence(fig2.table, SIX_LINKS_B, fig2.network)
        rng = np.random.default_rng(31)
        for _ in range(20):
            x = np.where(rng.random(14) < 0.3, rng.uniform(1.0, 100.0, 14), 0.0)
            y = ms.matrix @ x
            rew = reweighted_l1(ms, y, iters=4)
            step = estimate_l1(ms, y)
            trace = [float(np.sum(step.allocation.x))]
            epsilon = max(1e-3 * float(np.max(step.allocation.x)), 1e-12)
            for _ in range(3):
                lam = 1.0 / (step.allocation.x + epsilon)
                step = estimate_weighted_l1(ms, y, WeightMatrix(lam))
                trace.append(float(np.sum(step.allocation.x)))
            assert np.array_equal(rew.allocation.x, step.allocation.x)
            assert rew.iterations == step.iterations
            assert rew.objective == step.objective
            assert rew.objective_trace == tuple(trace)


class TestVmtBounds:
    def test_unit_lengths_bound_vehicle_count(self, fig1):
        # truth on the single-link path l3-1 with every link measured pins
        # the feasible set to a point
        measured = [l.id for l in fig1.network.links]
        ms = build_static_incidence(fig1.table, measured, fig1.network)
        x = np.zeros(7)
        x[5] = 7.0
        y = ms.matrix @ x
        bounds = vmt_bounds(ms, y, np.ones(7))
        assert bounds.vmt_lower == pytest.approx(7.0, abs=1e-3)
        assert bounds.vmt_upper == pytest.approx(7.0, abs=1e-3)

    def test_sandwich_on_random_instances(self, fig2):
        rng = np.random.default_rng(21)
        lengths = np.array([
            sum(fig2.network.link_by_id[lid].length for lid in p.links)
            for p in fig2.table.paths
        ])
        link_ids = [l.id for l in fig2.network.links]
        for _ in range(50):
            x = np.where(rng.random(14) < 0.3, rng.uniform(0, 50, 14), 0.0)
            m = int(rng.integers(4, 11))
            measured = [link_ids[i] for i in sorted(rng.permutation(10)[:m])]
            ms = build_static_incidence(fig2.table, measured, fig2.network)
            y = ms.matrix @ x
            true_value = float(lengths @ x)
            try:
                bounds = vmt_bounds(ms, y, lengths)
            except UnboundedError:
                continue
            assert bounds.vmt_lower <= true_value + 1e-6
            assert bounds.vmt_upper >= true_value - 1e-6

    def test_unbounded_reported_with_path(self, fig2):
        # l1-3 and l4-3 leave the two-link path l3-4 -> l4-2 unobserved
        ms = build_static_incidence(fig2.table, ["l1-3", "l4-3"], fig2.network)
        y = np.zeros(2)
        with pytest.raises(UnboundedError) as exc:
            vmt_bounds(ms, y, np.ones(14))
        assert exc.value.path_label is not None

    def test_bad_lengths_rejected(self, six_link_system):
        with pytest.raises(ValueError):
            vmt_bounds(six_link_system, np.zeros(6), np.ones(5))
        with pytest.raises(ValueError):
            vmt_bounds(six_link_system, np.zeros(6), -np.ones(14))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_lengths_rejected(self, six_link_system, value):
        lengths = np.ones(14)
        lengths[3] = value
        with pytest.raises(ValueError):
            vmt_bounds(six_link_system, np.zeros(6), lengths)

    def test_matches_two_solve_lp_calls(self, fig2, nguyen):
        # min and max share one phase 1 of the presolved program; each must
        # equal solve_lp on that program bit for bit, zero on the dropped
        # columns, and the full program's solve to 1e-9, as must the plain
        # and weighted l1 estimates of the same programs
        presolved = 0
        for bundle, m in ((fig2, 6), (nguyen, 22), (nguyen, 38)):
            lengths = path_lengths(bundle)
            link_ids = list(bundle.network.link_ids)
            rng = np.random.default_rng(m)
            weight_rng = np.random.default_rng((m, 1))
            n = bundle.table.n_paths
            for _ in range(10):
                measured = [link_ids[i] for i in sorted(rng.permutation(len(link_ids))[:m])]
                ms = build_static_incidence(bundle.table, measured, bundle.network)
                x = np.where(rng.random(n) < 0.3, rng.uniform(1.0, 100.0, n), 0.0)
                y = ms.matrix @ x
                lam = weight_rng.uniform(0.5, 2.0, n)
                rows, cols = zero_count_presolve(ms.matrix, y)
                presolved += cols.size < n

                def solves(c, sense="min"):
                    # solve_lp on the presolved program, at full size, and
                    # on the full program
                    sol = solve_lp(StandardLP(c=c[cols], A=ms.matrix[np.ix_(rows, cols)],
                                              b=y[rows], sense=sense))
                    full = np.zeros(n)
                    full[cols] = sol.x
                    return (replace(sol, x=full),
                            solve_lp(StandardLP(c=c, A=ms.matrix, b=y, sense=sense)))

                def close(got, want):
                    assert got.objective == pytest.approx(want.objective, rel=1e-9)
                    assert (np.linalg.norm(got.x - zero_floor(want.x))
                            <= 1e-9 * np.linalg.norm(want.x))

                for c, est in ((np.ones(n), estimate_l1(ms, y)),
                               (lam, estimate_weighted_l1(ms, y, WeightMatrix(lam)))):
                    sol, full = solves(c)
                    assert est.status == sol.status == full.status
                    assert est.allocation.x.tobytes() == zero_floor(sol.x).tobytes()
                    assert est.objective == sol.objective
                    assert est.iterations == sol.iterations
                    assert est.residual_eq == sol.residual_eq
                    close(replace(sol, x=est.allocation.x), full)
                (lo, lo_full), (hi, hi_full) = (solves(lengths, sense) for sense in ("min", "max"))
                try:
                    bounds = vmt_bounds(ms, y, lengths)
                except UnboundedError as exc:
                    # raised from coverage, before the max program is solved
                    assert hi.status == hi_full.status == "unbounded"
                    assert exc.path_label == ms.col_labels[hi_full.unbounded_index]
                    assert cols[hi.unbounded_index] == hi_full.unbounded_index
                    continue
                assert bounds.vmt_lower == lo.objective
                assert bounds.vmt_upper == hi.objective
                assert bounds.x_min.x.tobytes() == zero_floor(lo.x).tobytes()
                assert bounds.x_max.x.tobytes() == zero_floor(hi.x).tobytes()
                close(replace(lo, x=bounds.x_min.x), lo_full)
                close(replace(hi, x=bounds.x_max.x), hi_full)
        assert presolved  # some programs shrank

    def test_coverage_rule_matches_simplex_on_dynamic_systems(self, fig1, fig2, nguyen):
        # Row subsets of time-expanded systems leave some (path, departure)
        # columns unobserved; the max program is unbounded exactly when one
        # of positive length is, and Bland's rule certifies on that column.
        rng = np.random.default_rng(77)
        seen = set()
        for name, bundle in (("fig1", fig1), ("fig2", fig2), ("nguyen", nguyen)):
            net = bundle.network
            full = build_dynamic_system(bundle.table, net, grid_rows(net.link_ids, [2, 3, 4]))
            base = path_lengths(bundle)
            for _ in range(20):
                keep = np.sort(rng.permutation(full.n_rows)[:int(rng.integers(1, full.n_rows))])
                ms = full.subsystem([full.row_labels[i] for i in keep])
                paths = np.array([p for p, _ in ms.col_labels])
                lengths = np.where(rng.random(ms.n_cols) < 0.2, 0.0, base[paths])
                x = np.where(rng.random(ms.n_cols) < 0.3, rng.uniform(1.0, 100.0, ms.n_cols), 0.0)
                y = ms.matrix @ x
                hi = solve_lp(StandardLP(c=lengths, A=ms.matrix, b=y, sense="max"))
                j = uncovered_column(ms, lengths)
                assert (j is not None) == (hi.status == "unbounded")
                if j is None:
                    assert vmt_bounds(ms, y, lengths).vmt_upper == hi.objective
                    continue
                assert j == hi.unbounded_index
                with pytest.raises(UnboundedError) as exc:
                    vmt_bounds(ms, y, lengths)
                assert exc.value.path_label == ms.col_labels[hi.unbounded_index]
                seen.add(name)
        assert seen == {"fig1", "fig2", "nguyen"}  # each had unbounded maxima

    def test_infeasible_counts_raise_before_coverage(self, fig2):
        # every path over l1-3 also crosses l3-2, so these counts are
        # inconsistent; path 0 crosses neither link, so the max would be
        # unbounded if the counts were feasible
        ms = build_static_incidence(fig2.table, ["l1-3", "l3-2"], fig2.network)
        assert uncovered_column(ms, np.ones(14)) == 0
        with pytest.raises(InfeasibleError):
            vmt_bounds(ms, [5.0, 0.0], np.ones(14))

    @pytest.mark.parametrize("sense", ["min", "max"])
    @pytest.mark.parametrize("entry,rejected", [(-1e-5, True), (-1e-9, False)])
    def test_points_judged_as_estimators_judge_them(self, fig1, monkeypatch,
                                                    sense, entry, rejected):
        # an entry below -1e-6 is an error, not dust to clip
        ms = build_static_incidence(fig1.table, list(fig1.network.link_ids), fig1.network)
        x = np.zeros(7)
        x[5] = 7.0
        phase2 = estimators.lp_phase2

        def stub(start, c, how="min"):
            sol = phase2(start, c, how)
            if how != sense:
                return sol
            return replace(sol, x=np.where(np.arange(sol.x.size) == 0, entry, sol.x))

        monkeypatch.setattr(estimators, "lp_phase2", stub)
        if rejected:
            with pytest.raises(EstimationError, match="negative entry") as exc:
                vmt_bounds(ms, ms.matrix @ x, np.ones(7))
            assert type(exc.value) is EstimationError
        else:
            bounds = vmt_bounds(ms, ms.matrix @ x, np.ones(7))
            point = bounds.x_min if sense == "min" else bounds.x_max
            assert point.x[0] == 0.0

    def test_rounded_counts_give_finite_bounds(self, nguyen):
        # Counts rounded to 12 digits leave ~1e-10 in phase 1's artificials
        # on this rank-deficient system; that is not an infeasibility.
        lengths = path_lengths(nguyen)
        for seed in range(10):
            ms, x, y = nguyen_all_links(nguyen, seed)
            bounds = vmt_bounds(ms, y, lengths)
            true_value = float(lengths @ x)
            assert bounds.vmt_lower <= true_value + 1e-6
            assert bounds.vmt_upper >= true_value - 1e-6
            assert np.isfinite(bounds.vmt_upper)


class TestDynamicEstimation:
    def test_recovery_on_time_expanded_system(self, fig1):
        measured = [l.id for l in fig1.network.links]
        ms = build_dynamic_system(fig1.table, fig1.network, grid_rows(measured, [0, 1]))
        x = np.zeros(ms.n_cols)
        # one vehicle burst on the two-link path at departure 0
        j = ms.col_labels.index((1, 0))
        x[j] = 9.0
        y = ms.matrix @ x
        res = estimate_l1(ms, y)
        assert np.linalg.norm(res.allocation.x - x) <= 1e-6 * np.linalg.norm(x)
        # decoded flows aggregate departures per path
        assert res.od_flows[1] == pytest.approx(9.0, abs=1e-8)

    def test_per_path_totals_sum_departures(self, nguyen):
        # reference: the per-column loop, summing in column order
        links = list(nguyen.network.link_ids)
        ms = build_dynamic_system(nguyen.table, nguyen.network, grid_rows(links, [3, 4, 5]))
        x = np.random.default_rng(9).uniform(0.0, 10.0, ms.n_cols)
        alloc = Allocation(x=x, table=ms.table, labels=ms.col_labels)
        want = np.zeros(nguyen.table.n_paths)
        for j, (n, _) in enumerate(ms.col_labels):
            want[n] += x[j]
        assert np.array_equal(alloc.per_path_totals(), want)


def assert_one_zero_rule(alloc, od_flows=None, splits=()):
    """No entry of ``alloc`` lies in ``(0, floor]``, its sparsity is its
    nonzero count, and each split names an OD pair with positive flow."""
    assert alloc.x.tobytes() == zero_floor(alloc.x).tobytes()
    assert alloc.sparsity() == np.count_nonzero(alloc.x)
    for n in splits:
        assert od_flows[alloc.table.od_of_path[n]] > 0


class TestZeroFloor:
    def test_dust_only_od_pair_has_no_split(self, nguyen):
        # the l1 basis leaves 1.42e-14 on path 60, the only flow of OD
        # (4, 3), which once came back as that pair's flow and a split of 1.0
        pt = nguyen.table
        link_ids = list(nguyen.network.link_ids)
        full = build_static_incidence(pt, link_ids, nguyen.network)
        rng = substream(3, 22002)
        x = np.zeros(full.n_cols)
        for g in pt.paths_by_od:
            x[g[rng.integers(len(g))]] = rng.uniform(1, 100)
        ms = full.subsystem(sample_measurements(link_ids, 22, rng))
        res = estimate_l1(ms, ms.matrix @ x)
        k = pt.od_index[(4, 3)]
        assert pt.paths_by_od[k] == (60, 61, 62, 63, 64, 65)
        assert res.allocation.x[60] == 0.0
        assert res.od_flows[k] == 0.0
        assert not set(res.splits) & set(pt.paths_by_od[k])
        assert res.allocation.sparsity() == 10

    def test_one_rule_at_every_exit(self, fig2, nguyen):
        rng = np.random.default_rng(32)
        systems = []
        for bundle, m_grid in ((fig2, (6, 8, 10)), (nguyen, (22, 30, 38))):
            links = list(bundle.network.link_ids)
            full = build_static_incidence(bundle.table, links, bundle.network)
            systems += [full.subsystem(sample_measurements(links, m, rng)) for m in m_grid]
        systems.append(build_dynamic_system(
            fig2.table, fig2.network, grid_rows(list(fig2.network.link_ids), [2, 3, 4])))
        bounded = 0
        for ms in systems:
            n = ms.n_cols
            x = np.where(rng.random(n) < 0.3, rng.uniform(1.0, 100.0, n), 0.0)
            y = ms.matrix @ x
            noise = rng.normal(0.0, 0.5, ms.n_rows)
            delta = 1.1 * np.linalg.norm(noise)
            results = [
                estimate_l1(ms, y),
                estimate_weighted_l1(ms, y, WeightMatrix(rng.uniform(0.5, 2.0, n))),
                reweighted_l1(ms, y),
                estimate_l2(ms, y),
                estimate_l1_noisy(ms, y + noise, delta),
                estimate_l2_noisy(ms, y + noise, delta),
            ]
            for res in results:
                assert_one_zero_rule(res.allocation, res.od_flows, res.splits)
            try:
                bounds = vmt_bounds(ms, y, np.ones(n))
            except UnboundedError:
                continue
            bounded += 1
            assert_one_zero_rule(bounds.x_min)
            assert_one_zero_rule(bounds.x_max)
        assert bounded

    def test_floor_is_per_row(self):
        # 5e-3 is dust beside 1e6 (floor 1e-2) but a flow beside 1 (floor
        # 1e-8); a small negative is zeroed to +0.0 and the point accepted
        x = np.array([[1e6, 5e-3, -1e-9],
                      [1.0, 5e-3, 0.0]])
        ok, got = estimators.accept_points(["optimal", "optimal"], x)
        assert ok.tolist() == [True, True]
        assert got.tolist() == [[1e6, 0.0, 0.0], [1.0, 5e-3, 0.0]]
        assert not np.signbit(got).any()

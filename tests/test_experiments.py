import hashlib
import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from odflow import (
    IterationLimitError,
    TrialConfig,
    add_noise,
    build_static_incidence,
    check_recovery,
    estimate_l1_noisy,
    grade_recovery,
    get_fixture,
    grid_path_count,
    grid_paths_max_turns,
    grid_turn_fraction,
    hoeffding_turn_bound,
    run_noisy_cdf,
    run_recovery_sweep,
    run_vmt_sweep,
    sample_allocation,
    sample_measurements,
    sample_support,
    solve_lp_padded,
    substream,
)
from odflow import estimators, experiments, network, solver
from odflow.estimators import accept_points
from odflow.experiments import (
    AlphaRangeError,
    GridSizeError,
    MeasurementCountError,
    SparsityRangeError,
)
from odflow.fixtures import SUPPORT_3SPARSE, SUPPORT_4SPARSE
from oracles import allocation_oracle, brute_force_grid_paths


class TestSampling:
    def test_measured_tuple_leaves_no_block_behind(self, fig2, block_growth):
        # a tuple built from a generator is sized for 10 and shrunk, and
        # CPython keeps each freed one on its free list of 7-tuples
        links = list(fig2.network.link_ids)
        rng = np.random.default_rng(0)
        assert block_growth(lambda: sample_measurements(links, 7, rng)) < 100

    def test_full_support(self, fig2):
        rng = substream(0, 0)
        assert sample_support(fig2.table, 14, rng) == tuple(range(14))

    def test_seed_reproducibility(self, fig2):
        a = sample_support(fig2.table, 4, substream(123, 5))
        b = sample_support(fig2.table, 4, substream(123, 5))
        assert a == b
        # two substreams may draw one support, but ten in a row do not
        others = {sample_support(fig2.table, 4, substream(123, t)) for t in range(5, 15)}
        assert len(others) > 1

    def test_singleton_support_uniform(self, fig2):
        counts = np.zeros(14)
        draws = 4200
        for t in range(draws):
            (idx,) = sample_support(fig2.table, 1, substream(7, t))
            counts[idx] += 1
        expected = draws / 14
        sigma = math.sqrt(draws * (1 / 14) * (13 / 14))
        assert np.all(np.abs(counts - expected) < 5 * sigma)

    def test_out_of_range_rejected(self, fig2):
        with pytest.raises(SparsityRangeError):
            sample_support(fig2.table, 0, substream(0, 0))
        with pytest.raises(SparsityRangeError):
            sample_support(fig2.table, 15, substream(0, 0))

    def test_allocation_on_demo_support(self, fig2):
        rng = substream(11, 0)
        x = sample_allocation(fig2.table, SUPPORT_4SPARSE, rng)
        assert set(np.flatnonzero(x)) == set(SUPPORT_4SPARSE)
        # single-path OD pairs on the support carry their whole flow
        flows = np.zeros(3)
        for n, k in enumerate(fig2.table.od_of_path):
            flows[k] += x[n]
        assert x[1] == pytest.approx(flows[0])
        assert x[7] == pytest.approx(flows[1])
        assert x[10] + x[13] == pytest.approx(flows[2])

    def test_allocation_splits_sum_to_one(self, fig2):
        from odflow import decode_allocation

        for t in range(25):
            rng = substream(3, t)
            support = sample_support(fig2.table, 5, rng)
            x = sample_allocation(fig2.table, support, rng)
            decoded = decode_allocation(x, fig2.table)
            for k, group in enumerate(fig2.table.paths_by_od):
                if decoded.od_flows[k] > 0:
                    total = sum(decoded.splits[n] for n in group)
                    assert total == pytest.approx(1.0, abs=1e-12)

    def test_singleton_support_split_is_exact_one(self, fig2):
        rng = substream(5, 0)
        x = sample_allocation(fig2.table, (0,), rng)
        flows = x[0]
        assert x[0] / flows == 1.0

    def test_allocation_matches_per_path_loop(self, fig2, nguyen):
        # the per-path loop sample_allocation used before one vector
        # assignment per OD pair; the draws and products are the same
        def per_path(pt, support, rng):
            x = np.zeros(pt.n_paths)
            for group in pt.paths_by_od:
                touched = [n for n in group if n in set(support)]
                if touched:
                    flow = rng.uniform(1.0, 100.0)
                    for n, w in zip(touched, rng.dirichlet(np.ones(len(touched)))):
                        x[n] = flow * w
            return x

        for bundle in (fig2, nguyen):
            pt = bundle.table
            # the full support touches every path of a pair, up to 10 on nguyen
            for t in range(40):
                support = (sample_support(pt, 2 + t % 9, substream(13, t)) if t < 30
                           else tuple(range(pt.n_paths)))
                got = sample_allocation(pt, support, substream(14, t))
                want = per_path(pt, support, substream(14, t))
                assert np.array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(["fig1", "fig2", "nguyen"]), data=st.data(),
           seed=st.integers(0, 2**64 - 1))
    def test_allocation_matches_every_pair_walk(self, name, data, seed):
        # the sampler visits only the OD pairs its support touches; the
        # walk over every pair is the reference, draw for draw
        pt = get_fixture(name).table
        support = data.draw(st.lists(st.integers(0, pt.n_paths - 1), min_size=1,
                                     unique=True))
        rng, ref_rng = substream(seed, 0), substream(seed, 0)
        got = sample_allocation(pt, support, rng)
        want = allocation_oracle(pt, support, ref_rng)
        assert got.tobytes() == want.tobytes()
        assert rng.random() == ref_rng.random()  # the same number of draws

    def test_flow_range_respected(self, fig2):
        for t in range(20):
            rng = substream(9, t)
            x = sample_allocation(
                fig2.table, SUPPORT_3SPARSE, rng, flow_range=(2.0, 3.0)
            )
            flows = np.zeros(3)
            for n, k in enumerate(fig2.table.od_of_path):
                flows[k] += x[n]
            touched = flows[flows > 0]
            assert np.all((touched >= 2.0) & (touched <= 3.0))

    @pytest.mark.parametrize("flow_range", [
        (-5.0, 1.0),  # drew negative flows
        (math.nan, 1.0), (1.0, math.inf),  # numpy's "range exceeds valid bounds"
        (100.0, 1.0),  # numpy's "high - low < 0"
    ])
    def test_flow_range_checked(self, fig2, flow_range):
        with pytest.raises(ValueError, match="flow_range"):
            sample_allocation(fig2.table, SUPPORT_3SPARSE, substream(9, 0), flow_range)

    def test_measurements_full_set(self, fig2):
        links = [l.id for l in fig2.network.links]
        got = sample_measurements(links, 10, substream(0, 0))
        assert got == tuple(links)

    def test_measurements_canonical_order(self, fig2):
        links = [l.id for l in fig2.network.links]
        order = {lid: i for i, lid in enumerate(links)}
        for t in range(10):
            got = sample_measurements(links, 5, substream(1, t))
            ranks = [order[lid] for lid in got]
            assert ranks == sorted(ranks)

    def test_measurements_singleton_uniform(self, fig2):
        links = [l.id for l in fig2.network.links]
        counts = {lid: 0 for lid in links}
        draws = 3000
        for t in range(draws):
            (lid,) = sample_measurements(links, 1, substream(2, t))
            counts[lid] += 1
        expected = draws / 10
        sigma = math.sqrt(draws * 0.1 * 0.9)
        assert all(abs(c - expected) < 5 * sigma for c in counts.values())

    def test_measurements_out_of_range(self, fig2):
        links = [l.id for l in fig2.network.links]
        with pytest.raises(MeasurementCountError):
            sample_measurements(links, 0, substream(0, 0))
        with pytest.raises(MeasurementCountError):
            sample_measurements(links, 11, substream(0, 0))


class TestAddNoise:
    def test_zero_noise_is_identity(self):
        y = np.array([1.0, 2.0, 3.0])
        out = add_noise(y, 0.0, substream(0, 0))
        assert np.array_equal(out, y)

    def test_empirical_moments(self):
        rng = substream(0, 1)
        nu = 0.37
        samples = add_noise(np.zeros(100_000), nu, rng)
        assert samples.std() == pytest.approx(nu, rel=0.02)
        assert abs(samples.mean()) < 3 * nu / math.sqrt(100_000)

    def test_no_clipping(self):
        rng = substream(0, 2)
        out = add_noise(np.zeros(1000), 1.0, rng)
        assert out.min() < 0

    def test_negative_sd_rejected(self):
        with pytest.raises(ValueError):
            add_noise(np.zeros(2), -0.1, substream(0, 0))

    @pytest.mark.parametrize("nu", [math.nan, math.inf])
    def test_non_finite_sd_rejected(self, nu):
        # NaN gave NaN counts
        with pytest.raises(ValueError, match="nu .* finite and nonnegative"):
            add_noise(np.zeros(2), nu, substream(0, 0))


class TestCheckRecovery:
    def test_exact_recovery(self, fig2):
        x = np.arange(14, dtype=float)
        flags = check_recovery(x, x, fig2.table)
        assert (flags.path_alloc, flags.od_flow, flags.total_flow) == (
            True, True, True,
        )

    def test_split_swap_within_od(self, fig2):
        x = np.zeros(14)
        x[10], x[13] = 10.0, 30.0
        x_hat = np.zeros(14)
        x_hat[10], x_hat[13] = 30.0, 10.0
        flags = check_recovery(x_hat, x, fig2.table)
        assert (flags.path_alloc, flags.od_flow, flags.total_flow) == (
            False, True, True,
        )

    def test_cross_od_transfer(self, fig2):
        x = np.zeros(14)
        x[0], x[6] = 10.0, 30.0
        x_hat = np.zeros(14)
        x_hat[0], x_hat[6] = 30.0, 10.0
        flags = check_recovery(x_hat, x, fig2.table)
        assert (flags.path_alloc, flags.od_flow, flags.total_flow) == (
            False, False, True,
        )

    def test_total_mismatch(self, fig2):
        x = np.zeros(14)
        x[0] = 10.0
        x_hat = np.zeros(14)
        x_hat[0] = 11.0
        flags = check_recovery(x_hat, x, fig2.table)
        assert (flags.path_alloc, flags.od_flow, flags.total_flow) == (
            False, False, False,
        )

    def test_nesting_is_structural(self, fig2):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = np.where(rng.random(14) < 0.4, rng.uniform(0, 10, 14), 0.0)
            x_hat = np.where(rng.random(14) < 0.4, rng.uniform(0, 10, 14), 0.0)
            flags = check_recovery(x_hat, x, fig2.table)
            assert flags.od_flow >= flags.path_alloc
            assert flags.total_flow >= flags.od_flow


def reference_flags(x_hat, x_true, pt, tol=1e-6):
    """The three flags as check_recovery graded one estimate alone,
    before the stacked grader."""
    nrm = float(np.linalg.norm(x_true))
    rel = (float(np.linalg.norm(x_hat - x_true)) / nrm if nrm > 0
           else float(np.linalg.norm(x_hat)))
    path_ok = rel <= tol
    od = np.asarray(pt.od_of_path, dtype=np.intp)
    flows_hat = np.bincount(od, weights=x_hat, minlength=pt.n_od_pairs)
    flows_true = np.bincount(od, weights=x_true, minlength=pt.n_od_pairs)
    od_ok = bool(np.all(np.abs(flows_hat - flows_true)
                        <= tol * np.maximum(flows_true, 1.0)))
    tot_true, tot_hat = float(flows_true.sum()), float(flows_hat.sum())
    total_ok = abs(tot_hat - tot_true) <= tol * max(tot_true, 1.0)
    od_ok = od_ok or path_ok
    return (path_ok, od_ok, total_ok or od_ok)


class TestGradeRecovery:
    def test_stack_matches_single_rows(self, fig2):
        # the l1 answers to 20 chunks of sweep programs (fig2, sparsity
        # 2..6, every M of 3..10), floored as accept_points floors them
        full = experiments._sweep_system("fig2", [])[1]
        x_hat, x_true = [], []
        for chunk in range(20):
            X, perms = [], []
            for t in range(32):
                rng = substream(chunk, t)
                support = sample_support(fig2.table, 2 + t % 5, rng)
                X.append(sample_allocation(fig2.table, support, rng))
                perms.append(rng.permutation(10))
            X, perms = np.array(X), np.array(perms)
            for m in range(3, 11):
                A = full.matrix[np.sort(perms[:, :m], axis=1)]
                sol = solve_lp_padded(np.ones(14), A, (A @ X[:, :, None])[..., 0], [m] * 32)
                x_hat.append(accept_points(sol.status, sol.x)[1])
                x_true.append(X)
        # A zero truth; a path error within tol of a large truth that misses
        # a small pair's flow (OD flag by the path flag); and three pair
        # flows each within tol whose sum is not (total flag by OD flag).
        edge_hat, edge_true = np.zeros((3, 14)), np.zeros((3, 14))
        edge_hat[0] = 1.0
        edge_hat[1, [0, 5]], edge_true[1, [0, 5]] = (1e6, 1.0), (1e6, 0.5)
        edge_hat[2, [0, 5, 9]] = 0.9e-6
        x_hat = np.concatenate(x_hat + [edge_hat])
        x_true = np.concatenate(x_true + [edge_true])
        assert len(x_hat) > 5000
        got = grade_recovery(x_hat, x_true, fig2.table)
        want = [reference_flags(h, t, fig2.table) for h, t in zip(x_hat, x_true)]
        assert got.tolist() == [list(w) for w in want]
        # every combination the nesting allows shows up
        assert {tuple(row) for row in got.tolist()} == {
            (True, True, True), (False, True, True), (False, False, True),
            (False, False, False)}
        for h, t, flags in zip(x_hat[::97], x_true[::97], got[::97]):
            assert astuple(check_recovery(h, t, fig2.table)) == tuple(flags)

    def test_shapes_checked(self, fig2):
        with pytest.raises(ValueError, match="one length per path"):
            grade_recovery(np.zeros((2, 14)), np.zeros((3, 14)), fig2.table)
        with pytest.raises(ValueError, match="one length per path"):
            check_recovery(np.zeros(13), np.zeros(13), fig2.table)


@pytest.fixture(scope="module")
def small_report():
    cfg = TrialConfig(fixture="fig2", trials=60, seed=2718)
    return run_recovery_sweep(
        cfg, m_grid=[6, 8, 10], supports=[SUPPORT_3SPARSE, SUPPORT_4SPARSE]
    )


@pytest.fixture(scope="module")
def small_cdf():
    cfg = TrialConfig(fixture="fig2", trials=60, seed=99)
    return run_noisy_cdf(cfg, SUPPORT_3SPARSE, 10, 0.1)


class TestRecoverySweep:
    def test_rates_ordered_per_point(self, small_report):
        for point in small_report.points:
            assert point.rate_total >= point.rate_od >= point.rate_path

    def test_full_measurement_recovers(self, small_report):
        for point in small_report.points:
            if point.m == 10:
                assert point.rate_path == 1.0

    def test_nested_draws_make_rates_monotone(self, small_report):
        by_label = {}
        for point in small_report.points:
            by_label.setdefault(point.support_label, []).append(point)
        for points in by_label.values():
            points.sort(key=lambda p: p.m)
            rates = [p.rate_path for p in points]
            assert rates == sorted(rates)

    def test_determinism(self):
        cfg = TrialConfig(fixture="fig2", trials=25, seed=5)
        a = run_recovery_sweep(cfg, m_grid=[7, 9], supports=[SUPPORT_3SPARSE])
        b = run_recovery_sweep(cfg, m_grid=[7, 9], supports=[SUPPORT_3SPARSE])
        assert a.csv_rows() == b.csv_rows()

    def test_rejected_points_fail_every_criterion(self, monkeypatch):
        # every trial recovers at M = 10; the stub then reports trial 0 at
        # the iteration limit and moves one zero entry of trial 1 below
        # -1e-6 and of trial 2 just above it, keeping the recovered points
        cfg = TrialConfig(fixture="fig2", trials=4, seed=5)
        args = dict(m_grid=[10], supports=[SUPPORT_3SPARSE])
        point = run_recovery_sweep(cfg, **args).points[0]
        assert point.rate_path == point.rate_od == point.rate_total == 1.0

        def stub(*args):
            sol = solve_lp_padded(*args)
            status, x = sol.status.copy(), sol.x.copy()
            status[0] = "iteration-limit"
            x[1, 0], x[2, 0] = -2e-6, -5e-7
            return replace(sol, status=status, x=x)

        monkeypatch.setattr(experiments, "solve_lp_padded", stub)
        point = run_recovery_sweep(cfg, **args).points[0]
        assert point.rate_path == point.rate_od == point.rate_total == 0.5

    def test_solver_failures_count_as_failures(self, monkeypatch):
        # with no pivots allowed every program ends at the iteration limit
        monkeypatch.setattr(solver, "_MAX_PIVOTS", 0)
        cfg = TrialConfig(fixture="fig2", trials=3, seed=5)
        report = run_recovery_sweep(cfg, m_grid=[8, 10], supports=[SUPPORT_3SPARSE, 4])
        assert len(report.points) == 4
        assert all(p.rate_total == 0.0 for p in report.points)

    def test_empty_grid_gives_no_points(self):
        cfg = TrialConfig(fixture="fig2", trials=3, seed=5)
        assert run_recovery_sweep(cfg, m_grid=[], supports=[3]).points == ()

    def test_random_support_mode(self):
        cfg = TrialConfig(fixture="fig2", trials=40, seed=31)
        report = run_recovery_sweep(cfg, m_grid=[8, 10], supports=[3])
        assert all(p.sparsity == 3 for p in report.points)
        assert all(0.0 <= p.rate_path <= 1.0 for p in report.points)

    def test_numpy_sparsity_matches_int(self):
        # ran the first spec, then failed: 'numpy.int64' object is not iterable
        cfg = TrialConfig(fixture="fig2", trials=5, seed=3)
        a = run_recovery_sweep(cfg, m_grid=[6, 9], supports=[3, 3])
        b = run_recovery_sweep(cfg, m_grid=[6, 9], supports=[3, np.int64(3)])
        assert a.csv_rows() == b.csv_rows()

    @pytest.mark.parametrize("spec,message", [
        (True, "sparsity True is not an integer"),
        (2.0, r"sparsity 2\.0 is not an integer"),
        (15, r"sparsity 15 outside 1\.\.14"),
        ((4, 14), r"path position 14 outside 0\.\.13"),
        ((4, 4), "without duplicates"),
        ((4, 8.0), r"path position 8\.0 is not an integer"),
    ])
    def test_specs_checked_before_trials(self, monkeypatch, spec, message):
        # each bad spec follows a valid one, whose trials must not run
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "solve_lp_padded", no_trial)
        with pytest.raises(ValueError, match=message):
            run_recovery_sweep(TrialConfig(trials=2), m_grid=[5], supports=[3, spec])

    def test_m_out_of_range_rejected(self):
        cfg = TrialConfig(fixture="fig2", trials=5, seed=0)
        with pytest.raises(MeasurementCountError):
            run_recovery_sweep(cfg, m_grid=[0], supports=[SUPPORT_3SPARSE])

    def test_fractional_m_rejected(self):
        # not truncated to M = 5
        cfg = TrialConfig(fixture="fig2", trials=5, seed=0)
        with pytest.raises(ValueError, match="m 5.7 is not an integer"):
            run_recovery_sweep(cfg, m_grid=[5.7], supports=[SUPPORT_3SPARSE])

    def test_bool_m_rejected(self):
        # not run as M = 1
        cfg = TrialConfig(fixture="fig2", trials=5, seed=0)
        with pytest.raises(ValueError, match="m True is not an integer"):
            run_recovery_sweep(cfg, m_grid=[True], supports=[SUPPORT_3SPARSE])

    def test_fractional_trials_rejected(self):
        # rejected up front, not by range() in the middle of a sweep
        with pytest.raises(ValueError, match="trials 2.5 is not an integer"):
            TrialConfig(fixture="fig2", trials=2.5)

    def test_csv_row_schema(self, small_report):
        rows = small_report.csv_rows()
        assert len(rows) == 2 * 3 * 3
        s_vals = {row[0] for row in rows}
        assert s_vals == {3, 4}
        for row in rows:
            assert row[2] in ("path_alloc", "od_flow", "total_flow")
            assert 0.0 <= row[3] <= 1.0


class TestNoisyCdf:
    def test_default_delta(self, small_cdf):
        assert small_cdf.delta == pytest.approx(0.1 * math.sqrt(10))

    def test_l1_beats_l2_at_median(self, small_cdf):
        assert small_cdf.quantile("l1", 0.5) < small_cdf.quantile("l2", 0.5)

    def test_sorted_samples(self, small_cdf):
        assert list(small_cdf.errors_l1) == sorted(small_cdf.errors_l1)
        assert list(small_cdf.errors_l2) == sorted(small_cdf.errors_l2)
        assert len(small_cdf.errors_l1) == 60

    def test_zero_noise_rejected(self):
        cfg = TrialConfig(fixture="fig2")
        with pytest.raises(ValueError):
            run_noisy_cdf(cfg, SUPPORT_3SPARSE, 10, 0.0)

    @pytest.mark.parametrize("noise_sd", [math.nan, math.inf, -1.0, 0.0])
    def test_noise_sd_checked_before_trials(self, monkeypatch, noise_sd):
        # NaN passed the old ``noise_sd <= 0`` check and ran every trial
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "estimate_l1_noisy", no_trial)
        monkeypatch.setattr(experiments, "estimate_l2_noisy", no_trial)
        with pytest.raises(ValueError, match="noise_sd .* finite and positive"):
            run_noisy_cdf(TrialConfig(trials=2), SUPPORT_3SPARSE, 10, noise_sd)

    @pytest.mark.parametrize("support", [3, np.int64(3), True])
    def test_sparsity_level_rejected(self, support):
        # the numpy integer failed in ``tuple()`` at the first trial
        with pytest.raises(ValueError, match="needs an explicit support"):
            run_noisy_cdf(TrialConfig(trials=2), support, 10, 0.1)

    def test_noiseless_limit_recovers(self):
        # tiny noise, generous ball: l1 errors collapse toward zero
        cfg = TrialConfig(fixture="fig2", trials=10, seed=4)
        report = run_noisy_cdf(cfg, SUPPORT_3SPARSE, 10, 1e-9)
        assert report.quantile("l1", 0.5) <= 1e-6

    def test_infeasible_trials_recorded_as_inf(self):
        # shrink delta far below the noise level: most balls are infeasible
        cfg = TrialConfig(fixture="fig2", trials=8, seed=12)
        report = run_noisy_cdf(cfg, SUPPORT_3SPARSE, 10, 0.5, delta=1e-6)
        if report.infeasible_trials:
            assert math.isinf(report.errors_l1[-1])
            assert math.isinf(report.errors_l2[-1])

    def test_l1_root_find_ends_at_roundoff_gap(self):
        # trial 454 of run_noisy_cdf on (4, 8, 12), nu = 0.1, seed 101: the
        # lasso path is flat, its residual at the NNLS distance, for every
        # multiplier nu above about 3e3, where the bracket on nu starts; two
        # support pieces fail their certificates before the optimum's
        bundle = get_fixture("fig2")
        pt, net = bundle.table, bundle.network
        rng = substream(101, 454)
        x_true = sample_allocation(pt, (4, 8, 12), rng)
        measured = sample_measurements(list(net.link_ids), 10, rng)
        ms = build_static_incidence(pt, measured, net)
        y = add_noise(ms.matrix @ x_true, 0.1, rng)
        delta = 0.1 * math.sqrt(10)
        result = estimate_l1_noisy(ms, y, delta)
        assert result.status == "optimal"
        assert np.linalg.norm(y - ms.matrix @ result.allocation.x) == pytest.approx(
            delta, rel=1e-9
        )

    def test_iteration_limit_propagates(self, monkeypatch):
        # only infeasible balls are tallied; a solver that gives up is an error
        import odflow.experiments as experiments

        def give_up(*args, **kwargs):
            raise IterationLimitError("l2-noisy: iteration limit reached")

        monkeypatch.setattr(experiments, "estimate_l2_noisy", give_up)
        cfg = TrialConfig(fixture="fig2", trials=3, seed=99)
        with pytest.raises(IterationLimitError):
            run_noisy_cdf(cfg, SUPPORT_3SPARSE, 10, 0.1)


class TestVmtSweep:
    def test_sandwich_and_schema(self):
        cfg = TrialConfig(fixture="nguyen", trials=40, seed=123)
        report = run_vmt_sweep(cfg, m_grid=[22, 38])
        assert [p.m for p in report.points] == [22, 38]
        for point in report.points:
            assert point.sandwich_violations == 0
            assert 0 <= point.rate_min <= 1 and 0 <= point.rate_max <= 1
            if not math.isnan(point.mean_ratio_min):
                assert point.mean_ratio_min <= 1.0 + 1e-9
            if not math.isnan(point.mean_ratio_max):
                assert point.mean_ratio_max >= 1.0 - 1e-9

    def test_full_measurement_has_no_unbounded(self):
        cfg = TrialConfig(fixture="nguyen", trials=20, seed=7)
        report = run_vmt_sweep(cfg, m_grid=[38])
        assert report.points[0].unbounded_count == 0

    def test_uncovered_trials_reach_no_phase1(self, monkeypatch):
        # a trial whose max program is unbounded by coverage is tallied
        # before any solve; only the others run phase 1
        calls = []
        phase1 = estimators.lp_phase1
        monkeypatch.setattr(estimators, "lp_phase1",
                            lambda A, b: calls.append(b.size) or phase1(A, b))
        cfg = TrialConfig(fixture="nguyen", trials=20, seed=3)
        report = run_vmt_sweep(cfg, m_grid=[14, 22])
        unbounded = sum(p.unbounded_count for p in report.points)
        assert 0 < unbounded < 40
        assert len(calls) == 40 - unbounded

    def test_phase1_runs_on_the_presolved_systems(self, monkeypatch):
        # each trial's zero counts and the columns they force out stay out
        # of phase 1, which sees only positive counts
        calls = []
        phase1 = estimators.lp_phase1
        monkeypatch.setattr(estimators, "lp_phase1",
                            lambda A, b: calls.append((A.shape, b)) or phase1(A, b))
        run_vmt_sweep(TrialConfig(fixture="nguyen", trials=10, seed=3), m_grid=[26, 38])
        assert calls and all(b.min() > 0 for _, b in calls)
        assert max(shape[1] for shape, _ in calls) < 66

    # sha256 of repr of every point's fields, with the zero-count presolve;
    # the full programs give the same rates and counts and differ only in
    # M = 22's mean_ratio_min, by 2.3e-16 relative
    PINNED_REPORT = "3a8e68713fb7b1be2453fa2fafd943ee788011c219592bc2c2f3e6b1bd30b269"

    def test_report_pinned(self):
        report = run_vmt_sweep(TrialConfig(fixture="nguyen", trials=30, seed=8),
                               m_grid=[22, 30, 38])
        digest = hashlib.sha256(repr([astuple(p) for p in report.points]).encode())
        assert digest.hexdigest() == self.PINNED_REPORT

    def test_graded_by_grade_recovery(self, monkeypatch):
        # a min program's answer 5e-4 off the truth on one path passed the
        # old absolute 0.001 rule; grade_recovery's relative 1e-6 fails it
        cfg = TrialConfig(fixture="nguyen", trials=20, seed=1)
        grid = [10, 38]  # every M = 10 trial is unbounded
        want = run_vmt_sweep(cfg, m_grid=grid).points
        assert want[0].unbounded_count == 20 and want[1].rate_min > 0
        bounds = experiments.vmt_bounds

        def nudged(ms, y, lengths):
            b = bounds(ms, y, lengths)
            x = b.x_min.x.copy()
            x[np.argmax(x)] += 5e-4
            return replace(b, x_min=replace(b.x_min, x=x))

        graded = []
        grade = experiments.grade_recovery
        monkeypatch.setattr(experiments, "vmt_bounds", nudged)
        monkeypatch.setattr(experiments, "grade_recovery",
                            lambda x_hat, x_true, pt: graded.append(len(x_hat))
                            or grade(x_hat, x_true, pt))
        got = run_vmt_sweep(cfg, m_grid=grid).points
        assert got[1].rate_min == 0
        assert got[1].rate_max == want[1].rate_max
        # one grade per grid point with a bounded trial: its min and max rows
        assert graded == [2 * 20]

    def test_path_lengths_once_per_fixture(self, monkeypatch):
        # fresh bundles, so that no earlier test has filled their cache
        bundles = {name: replace(get_fixture(name)) for name in ("fig2", "nguyen")}
        monkeypatch.setattr(experiments, "get_fixture", bundles.__getitem__)
        calls = []
        path_lengths = network.path_lengths
        monkeypatch.setattr(network, "path_lengths",
                            lambda net, pt: calls.append(pt) or path_lengths(net, pt))
        for seed in range(3):
            for name in bundles:
                run_vmt_sweep(TrialConfig(fixture=name, trials=2, seed=seed), m_grid=[10])
        assert calls == [bundles["fig2"].table, bundles["nguyen"].table]

    def test_determinism(self):
        cfg = TrialConfig(fixture="nguyen", trials=15, seed=42)
        a = run_vmt_sweep(cfg, m_grid=[30])
        b = run_vmt_sweep(cfg, m_grid=[30])
        assert a.csv_rows() == b.csv_rows()


class TestTrialConfig:
    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_must_be_positive(self, trials):
        with pytest.raises(ValueError, match="at least 1"):
            TrialConfig(trials=trials)

    @pytest.mark.parametrize("field", ["trials", "seed"])
    def test_bool_rejected(self, field):
        # True ran one trial, or seed 1
        with pytest.raises(ValueError, match=f"{field} True is not an integer"):
            TrialConfig(**{field: True})

    def test_one_trial_allowed(self):
        report = run_recovery_sweep(TrialConfig(trials=1, seed=2), m_grid=[10],
                                    supports=[SUPPORT_3SPARSE])
        assert report.points[0].rate_path == 1.0

    @pytest.mark.parametrize("field,value", [
        ("support", 5), ("m", 4), ("noise_sd", 0.1), ("tol", 0.1)])
    def test_sweep_settings_are_not_config_fields(self, field, value):
        # each was accepted and then ignored by the sweeps that do not read it
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'"):
            TrialConfig(**{field: value})

    @pytest.mark.parametrize("seed,message", [
        (1.5, r"seed 1\.5 is not an integer"),  # ran as seed 1
        (-1, r"seed -1 must lie in 0\.\.2\*\*64-1"),  # failed in numpy at trial 0
        (2**64, r"seed 18446744073709551616 must lie"),
    ])
    def test_seed_must_be_64_bit_integer(self, seed, message):
        with pytest.raises(ValueError, match=message):
            TrialConfig(seed=seed)

    @pytest.mark.parametrize("seed", [2**64 - 1, np.uint64(2**64 - 1)])
    def test_largest_seed_allowed(self, seed):
        report = run_recovery_sweep(TrialConfig(trials=1, seed=seed), m_grid=[10],
                                    supports=[SUPPORT_3SPARSE])
        assert report.seed == 2**64 - 1


class TestSweepSystems:
    """Each sweep call builds one all-links incidence, whose row slices are
    the trials' systems, and checks every M before its first trial."""

    def test_one_incidence_per_call(self, monkeypatch):
        built = []

        def counting(*args):
            built.append(args)
            return build_static_incidence(*args)

        monkeypatch.setattr(experiments, "build_static_incidence", counting)
        run_recovery_sweep(TrialConfig(trials=3, seed=1), m_grid=[5, 8],
                           supports=[3, SUPPORT_3SPARSE])
        run_noisy_cdf(TrialConfig(trials=3, seed=1), SUPPORT_3SPARSE, 10, 0.1)
        run_vmt_sweep(TrialConfig(fixture="nguyen", trials=3, seed=1), m_grid=[22, 38])
        assert len(built) == 3

    def test_m_checked_before_trials(self, monkeypatch):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "solve_lp_padded", no_trial)
        monkeypatch.setattr(experiments, "estimate_l1_noisy", no_trial)
        monkeypatch.setattr(experiments, "vmt_bounds", no_trial)
        with pytest.raises(MeasurementCountError):
            run_recovery_sweep(TrialConfig(trials=2), m_grid=[5, 11], supports=[3])
        with pytest.raises(MeasurementCountError):
            run_noisy_cdf(TrialConfig(trials=2), SUPPORT_3SPARSE, 11, 0.1)
        with pytest.raises(MeasurementCountError):
            run_vmt_sweep(TrialConfig(fixture="nguyen", trials=2), m_grid=[22, 39])


class TestGridCombinatorics:
    def test_known_counts(self):
        assert grid_path_count(2) == 2
        assert grid_path_count(4) == 6
        assert grid_path_count(50) == 126_410_606_437_752

    def test_bounds_of_n(self):
        with pytest.raises(GridSizeError):
            grid_path_count(3)
        with pytest.raises(GridSizeError):
            grid_path_count(62)
        with pytest.raises(GridSizeError):
            grid_path_count(0)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14, 16])
    def test_dp_matches_brute_force(self, n):
        for turns in range(n):
            assert grid_paths_max_turns(n, turns) == brute_force_grid_paths(n, turns)

    @pytest.mark.parametrize("n,turns,count", [
        (50, 5, 166802),
        (50, 10, 1181610010),
        (60, 11, 35178417812),
        (60, 30, 65147652035168312),
    ])
    def test_max_turn_counts_pinned(self, n, turns, count):
        # values of the dynamic program over (position, heading, turns used)
        # that the closed form replaced
        assert grid_paths_max_turns(n, turns) == count

    @pytest.mark.parametrize("n", [2, 4, 10, 26, 50])
    def test_one_turn_paths(self, n):
        assert grid_paths_max_turns(n, 1) == 2

    @pytest.mark.parametrize("n", [2, 6, 12, 30])
    def test_unconstrained_equals_total(self, n):
        assert grid_paths_max_turns(n, n - 1) == grid_path_count(n)

    def test_four_by_four_two_turns(self):
        assert grid_paths_max_turns(4, 2) == brute_force_grid_paths(4, 2) == 4

    def test_fraction_examples(self):
        assert grid_turn_fraction(0.1, 50) < 1e-7
        assert grid_turn_fraction(0.2, 50) <= 1e-4

    def test_hoeffding_values(self):
        assert hoeffding_turn_bound(0.1, 50) == pytest.approx(math.exp(-16.0))
        assert hoeffding_turn_bound(0.2, 50) == pytest.approx(math.exp(-9.0))

    @pytest.mark.parametrize("call", [
        lambda: grid_path_count(4.0),
        lambda: grid_paths_max_turns(4, 1.5),
        lambda: grid_turn_fraction(0.2, 4.0),
        lambda: grid_path_count(True),
        lambda: hoeffding_turn_bound(0.2, 2.5),  # returned 0.6376
    ], ids=["count", "max_turns", "fraction", "count_bool", "hoeffding"])
    def test_sizes_must_be_integers(self, call):
        # math.comb raised a bare TypeError on a float
        with pytest.raises(GridSizeError, match="is not an integer"):
            call()

    def test_hoeffding_vacuous_near_half(self):
        assert hoeffding_turn_bound(0.499999, 50) == pytest.approx(1.0, abs=1e-4)

    def test_alpha_range(self):
        for alpha in (0.0, 0.5, -0.1, 0.6):
            with pytest.raises(AlphaRangeError):
                hoeffding_turn_bound(alpha, 50)
            with pytest.raises(AlphaRangeError):
                grid_turn_fraction(alpha, 50)

    @pytest.mark.parametrize("alpha,n", [(0.1, 50), (0.2, 50), (0.3, 20),
                                         (0.25, 32), (0.4, 10)])
    def test_exact_fraction_below_bound(self, alpha, n):
        assert grid_turn_fraction(alpha, n) <= hoeffding_turn_bound(alpha, n)


class TestSubstream:
    def test_streams_differ(self):
        a = substream(1, 0).random(4)
        b = substream(1, 1).random(4)
        assert not np.array_equal(a, b)

    def test_streams_reproducible(self):
        assert np.array_equal(substream(9, 3).random(8), substream(9, 3).random(8))

    @pytest.mark.parametrize("seed", [0, 1, 3, 2**63 + 5, 2**64 - 1])
    @pytest.mark.parametrize("index", [0, 1, 7, 1000, 2**40 + 3, 2**53 + 1,
                                       2**63 + 1, 2**64 - 1])
    def test_counter_is_jumped_state(self, seed, index):
        # a counter list passed through float64: 2**63 + 1 drew the stream
        # of 2**63, and 2**64 - 1 warned on an invalid cast
        want = np.random.Generator(np.random.Philox(key=seed).jumped(index))
        got = substream(seed, index)
        assert np.array_equal(got.random(8), want.random(8))
        assert np.array_equal(got.integers(0, 2**62, 8), want.integers(0, 2**62, 8))

    def test_no_seed_sequence_is_made(self):
        # Philox(key=seed) filled a SeedSequence from OS entropy and threw it away
        seed_seq = substream(5, 2).bit_generator.seed_seq
        assert not isinstance(seed_seq, np.random.SeedSequence)
        assert seed_seq.generate_state(2, np.uint64).tolist() == [5, 0]
        with pytest.raises(ValueError, match="two 64-bit words"):
            seed_seq.generate_state(4)

    @pytest.mark.parametrize("seed,index,message", [
        (1.5, 0, r"seed 1\.5 is not an integer"),  # ran as seed 1
        (True, 0, "seed True is not an integer"),  # ran as seed 1
        (-1, 0, r"seed -1 must lie in 0\.\.2\*\*64-1"),
        (2**64, 0, "seed 18446744073709551616 must lie"),
        (7, 2.0, r"substream index 2\.0 is not an integer"),
        (7, -1, r"substream index -1 must lie in 0\.\.2\*\*64-1"),  # ran as 2**64-1
        (7, 2**64, "substream index 18446744073709551616 must lie"),
    ], ids=["float_seed", "bool_seed", "negative_seed", "large_seed",
            "float_index", "negative_index", "large_index"])
    def test_bad_seed_or_index_rejected(self, seed, index, message):
        with pytest.raises(ValueError, match=message):
            substream(seed, index)

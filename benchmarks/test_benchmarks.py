"""Tests of the benchmark's own arithmetic, references and checks.

    python -m pytest benchmarks
"""

import collections
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import replay  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import percentile, run_round  # noqa: E402

from odflow import (  # noqa: E402
    MeasurementSystem,
    UnboundedError,
    estimators,
    get_fixture,
    vmt_bounds,
)


class TestPercentile:
    def test_matches_linear_interpolation(self):
        values = [7.0, 1.0, 3.0, 10.0, 2.0, 5.0, 4.0, 9.0, 6.0, 8.0]
        assert percentile(values, 0.5) == 5.5
        assert percentile(values, 0.9) == pytest.approx(9.1)
        for q in (0.0, 0.1, 0.37, 0.9, 1.0):
            assert percentile(values, q) == pytest.approx(np.percentile(values, 100 * q))

    def test_single_value_and_empty(self):
        assert percentile([4.0], 0.9) == 4.0
        with pytest.raises(ValueError):
            percentile([], 0.5)


def span(name, start, end, parent):
    return [name, start, end, parent]


class TestSelfTime:
    def test_children_are_subtracted_once(self):
        spans = [
            span("root", 0, 100, -1),
            span("a", 10, 40, 0),
            span("b", 50, 90, 0),
            span("c", 60, 70, 2),
        ]
        assert tracing.self_times(spans) == [30, 30, 30, 10]

    def test_layer_metrics_count_nested_calls_once(self):
        ms = 1_000_000
        spans = [
            span(tracing.ROOT_OP, 0, 100 * ms, -1),
            span("estimators.reweighted_l1", 0, 90 * ms, 0),
            span("estimators.estimate_l1", 0, 40 * ms, 1),
            span("solver.solve_lp", 5 * ms, 35 * ms, 2),
            span("estimators.estimate_weighted_l1", 40 * ms, 80 * ms, 1),
            span("solver.solve_lp", 45 * ms, 75 * ms, 4),
            span("fileio.write_manifest", 90 * ms, 99 * ms, 0),
            span("fileio.dump_json", 91 * ms, 98 * ms, 6),
            span(tracing.ROOT_SETUP, 200 * ms, 210 * ms, -1),
            span("fileio.save_measurements", 201 * ms, 203 * ms, 8),
        ]
        counts = {"solver.solve_lp.pivots": 20}
        m = tracing.layer_metrics(spans, collections.Counter(counts))
        assert m["estimators.calls"] == 1
        # 90 ms of estimator spans less 60 ms inside solve_lp
        assert m["estimators.self_ms"] == pytest.approx(30.0)
        assert m["solver.solve_lp.calls"] == 2
        assert m["solver.solve_lp.ms"] == pytest.approx(60.0)
        assert m["solver.solve_lp.pivots_per_call"] == 10.0
        assert m["fileio.write.ms"] == pytest.approx(9.0)
        assert m["fileio.write.setup_ms"] == pytest.approx(2.0)
        assert m["bench.self_ms"] == pytest.approx(1.0)


class TestTracer:
    def test_install_records_nested_calls_and_uninstall_restores(self):
        original = estimators.solve_lp
        bundle = get_fixture("fig2")
        ms = workloads.network.build_static_incidence(
            bundle.table, bundle.network.link_ids, bundle.network)
        y = ms.matrix @ np.eye(ms.n_cols)[3]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.span(tracing.ROOT_OP):
                estimators.reweighted_l1(ms, y, iters=2)
        finally:
            tracer.uninstall()
        assert estimators.solve_lp is original
        names = [s[0] for s in tracer.spans]
        assert names.count("solver.solve_lp") == 2
        m = tracing.layer_metrics(tracer.spans, tracer.counts)
        assert m["estimators.calls"] == 1
        assert m["solver.solve_lp.pivots"] > 0
        assert m["network.decode_allocation.calls"] == 2


class TestUnboundedCertificate:
    def test_zero_column_is_exactly_the_unbounded_case(self):
        table = get_fixture("fig2").table
        lengths = np.arange(1.0, table.n_paths + 1.0)
        rng = np.random.default_rng(3)
        seen = set()
        for _ in range(30):
            links = sorted(rng.choice(10, size=int(rng.integers(3, 8)), replace=False))
            net = get_fixture("fig2").network
            measured = [net.link_ids[i] for i in links]
            A = replay.incidence(table, measured)
            if not A.any(axis=1).all():
                continue
            y = A @ rng.uniform(1.0, 5.0, table.n_paths)
            certified = replay.unbounded_structurally(A)
            assert math.isinf(replay.highs_optimum(lengths, A, y, "max")) == certified
            ms = MeasurementSystem(matrix=A, row_labels=tuple(measured),
                                   col_labels=tuple(range(table.n_paths)),
                                   mode="static", table=table)
            if certified:
                with pytest.raises(UnboundedError):
                    vmt_bounds(ms, y, lengths)
            else:
                vmt_bounds(ms, y, lengths)
            seen.add(certified)
        assert seen == {True, False}


def run_rounds(workload, rounds, tmp_path, seed=5):
    workload.setup(seed, tmp_path / "work")
    ops = workload.ops()
    done = []
    for r in range(rounds):
        done += run_round(ops, r)[1]
    return done


def replace_output(done, i, output):
    done = list(done)
    done[i] = dataclasses.replace(done[i], output=output)
    return done


class TestChecksFlagWrongAnswers:
    def test_recovery_rate_total(self, tmp_path):
        w = workloads.RecoverySweep()
        done = run_rounds(w, 1, tmp_path)
        assert w.check(done) == []
        report = done[0].output
        p = report.points[-1]
        bad = dataclasses.replace(p, rate_total=p.rate_total - 1 / p.trials)
        wrong = dataclasses.replace(report, points=report.points[:-1] + (bad,))
        errors = w.check(replace_output(done, 0, wrong))
        assert any("HiGHS" in e for e in errors)

    def test_noisy_dropped_infeasible_trial_and_wrong_error(self, tmp_path):
        w = workloads.NoisyL2()
        done = run_rounds(w, 4, tmp_path)
        assert w.check(done) == []
        i = next(i for i, d in enumerate(done) if d.output.infeasible)
        out = done[i].output
        t = next(t for t, e in enumerate(out.errors) if math.isinf(e))
        dropped = workloads.NoisyOutput(
            out.errors[:t] + (0.01,) + out.errors[t + 1:], out.infeasible - 1)
        assert any("certified" in e for e in w.check(replace_output(done, i, dropped)))
        t = next(t for t, e in enumerate(out.errors) if not math.isinf(e))
        nudged = workloads.NoisyOutput(
            out.errors[:t] + (out.errors[t] * (1 + 1e-6),) + out.errors[t + 1:],
            out.infeasible)
        assert any("not in the report" in e
                   for e in w.check(replace_output(done, i, nudged)))

    def test_vmt_unbounded_count_and_rates(self, tmp_path):
        w = workloads.VmtSweep()
        done = run_rounds(w, 1, tmp_path)
        assert w.check(done) == []
        report = done[0].output
        (p,) = report.points
        more = dataclasses.replace(p, unbounded_count=p.unbounded_count + 1)
        errors = w.check(replace_output(done, 0, dataclasses.replace(report, points=(more,))))
        assert any("unbounded reported" in e for e in errors)
        i = next(i for i, d in enumerate(done) if d.output.points[0].rate_min < 1)
        report = done[i].output
        (p,) = report.points
        better = dataclasses.replace(p, rate_min=p.rate_min + 1 / p.trials)
        errors = w.check(replace_output(done, i, dataclasses.replace(report, points=(better,))))
        assert any("replayed trials" in e for e in errors)

    def test_cli_objective_flow_and_rerun(self, tmp_path):
        w = workloads.CliEstimate()
        done = run_rounds(w, 1, tmp_path)
        assert [d.output for d in done] == [0] * 7 + [5]
        assert w.check(done) == []
        out = w.outdir / "0"
        path = out / "l1.json"
        good = path.read_text()
        data = json.loads(good)
        data["objective"] *= 1 + 1e-6
        path.write_text(json.dumps(data))
        assert any("l1" in e and "HiGHS" in e for e in w.check_outputs(0))
        data = json.loads(good)
        data["allocation"][0]["flow"] += 1e-3
        path.write_text(json.dumps(data))
        assert any("counts not reproduced" in e for e in w.check_outputs(0))
        path.write_text(good + " ")
        assert any("rerun of l1.json differs" in e for e in w.check(done))

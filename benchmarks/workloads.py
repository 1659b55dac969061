"""The benchmark's workloads: inputs made from the seed, one round of ops,
and the checks of their outputs.

Every op calls odflow through module attributes (``experiments.run_vmt_sweep``
rather than a name imported once), so the tracer's wrappers see the calls.
Ops of round ``r`` run on derived seeds ``op_seed(seed, r, i)``; the checks
rebuild each trial from that seed with :mod:`replay` and run outside the
timed part.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import replay
from odflow import cli, estimators, experiments, fileio, fixtures, network
from odflow.experiments import TrialConfig

FLOW_RANGE = (1.0, 100.0)


def op_seed(seed: int, round_: int, op: int) -> int:
    """64-bit sweep seed of op ``op`` in round ``round_``."""
    state = np.random.SeedSequence([seed, round_, op]).generate_state(1, np.uint64)
    return int(state[0])


def sample_rounds(n_rounds: int, k: int) -> list[int]:
    """``k`` rounds spread evenly over ``0..n_rounds-1``, first and last included."""
    if n_rounds <= k:
        return list(range(n_rounds))
    return sorted({round(i * (n_rounds - 1) / (k - 1)) for i in range(k)})


@dataclass(frozen=True)
class Done:
    round: int
    index: int
    output: Any                        # None when the op raised


class Workload:
    """Base: subclasses set the fixture and implement ops/answered/check."""

    name = ""
    fixture = ""
    # Rounds of a ``--trace 1`` run, each run untraced and traced, sized so
    # that the run takes about 16 s on a 2-vCPU machine.
    trace_rounds = 1
    # Rounds replayed against the references by the checks.
    check_rounds = 4

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        bundle = fixtures.get_fixture(self.fixture)
        self.net, self.table = bundle.network, bundle.table
        self.link_ids = list(self.net.link_ids)
        self.groups = replay.od_groups(self.table)

    def ops(self) -> list[Callable[[int], Any]]:
        """One round: each op takes the round index and returns its output."""
        raise NotImplementedError

    def answered(self, output) -> int:
        raise NotImplementedError

    def failed(self, output) -> bool:
        return output is None

    def check(self, done: list[Done]) -> list[str]:
        raise NotImplementedError

    def _sampled(self, done: list[Done]) -> list[Done]:
        """Done records of the rounds the checks replay, each op once."""
        rounds = sorted({d.round for d in done})
        keep = {rounds[i] for i in sample_rounds(len(rounds), self.check_rounds)}
        seen, out = set(), []
        for d in done:
            if d.round in keep and (d.round, d.index) not in seen and d.output is not None:
                seen.add((d.round, d.index))
                out.append(d)
        return out


class RecoverySweep(Workload):
    """Noiseless l1 recovery sweep on fig2, one support spec per op."""

    name = "recovery-sweep"
    fixture = "fig2"
    trials = 4
    specs = (((4, 8, 12), range(4, 11)), ((1, 7, 10, 13), range(4, 11)),
             (3, range(5, 11)), (4, range(5, 11)), (5, range(5, 11)))
    trace_rounds = 48
    check_rounds = 6

    def ops(self):
        def make(i, spec, grid):
            def run(r):
                cfg = TrialConfig(fixture=self.fixture, trials=self.trials,
                                  seed=op_seed(self.seed, r, i))
                return experiments.run_recovery_sweep(cfg, m_grid=list(grid),
                                                      supports=[spec])
            return run
        return [make(i, spec, grid) for i, (spec, grid) in enumerate(self.specs)]

    def answered(self, output):
        return sum(p.trials for p in output.points)

    def check(self, done):
        errors = []
        for d in done:
            if d.output is None:
                continue
            for p in d.output.points:
                if not p.rate_path <= p.rate_od <= p.rate_total:
                    errors.append(f"recovery r{d.round} op{d.index} M={p.m}: "
                                  "rates out of order")
        tol = TrialConfig().tol
        n_paths, n_links = self.table.n_paths, len(self.link_ids)
        for d in self._sampled(done):
            spec, grid = self.specs[d.index]
            seed = op_seed(self.seed, d.round, d.index)
            matches = {m: 0 for m in grid}
            for t in range(self.trials):
                x, perm = replay.recovery_trial(self.groups, n_paths, n_links, spec,
                                                FLOW_RANGE, seed, t)
                total = float(x.sum())
                for m in grid:
                    A = replay.incidence(self.table,
                                         replay.measured_prefix(self.link_ids, perm, m))
                    opt = replay.highs_optimum(np.ones(n_paths), A, A @ x)
                    matches[m] += abs(opt - total) <= tol * max(total, 1.0)
            for p in d.output.points:
                if round(p.rate_total * p.trials) != matches[p.m]:
                    errors.append(
                        f"recovery r{d.round} op{d.index} M={p.m}: rate_total "
                        f"{p.rate_total} but HiGHS matches {matches[p.m]}/{p.trials}")
        return errors


@dataclass(frozen=True)
class NoisyOutput:
    """Relative errors of the l2-noisy estimates in trial order (``inf`` for
    a certified infeasible ball) and the number of infeasible balls."""

    errors: tuple[float, ...]
    infeasible: int


class NoisyL2(Workload):
    """Trials of ``run_noisy_cdf``'s scheme on fig2, solved by l2-noisy.

    Each trial draws an allocation on the support, a measured set of M
    links and Gaussian count noise, and solves ``estimate_l2_noisy`` at
    ``delta = nu·sqrt(M)``.  ``run_noisy_cdf`` itself is not used: its
    l1-noisy solve raises an iteration limit on about one trial in 2,000,
    which aborts the whole call on some seeds.
    """

    name = "noisy-l2"
    fixture = "fig2"
    trials = 20
    m = 10
    settings = (((4, 8, 12), 0.1), ((1, 7, 10, 13), 0.02))
    trace_rounds = 180
    check_rounds = 8

    def ops(self):
        def make(i, support, nu):
            delta = nu * math.sqrt(self.m)

            def run(r):
                seed = op_seed(self.seed, r, i)
                errors, infeasible = [], 0
                for t in range(self.trials):
                    rng = experiments.substream(seed, t)
                    x_true = experiments.sample_allocation(self.table, support, rng,
                                                           FLOW_RANGE)
                    measured = experiments.sample_measurements(self.link_ids, self.m, rng)
                    ms = network.build_static_incidence(self.table, measured, self.net)
                    y = experiments.add_noise(ms.matrix @ x_true, nu, rng)
                    try:
                        res = estimators.estimate_l2_noisy(ms, y, delta)
                    except estimators.InfeasibleError:
                        infeasible += 1
                        errors.append(math.inf)
                        continue
                    errors.append(float(np.linalg.norm(res.allocation.x - x_true)
                                        / np.linalg.norm(x_true)))
                return NoisyOutput(tuple(errors), infeasible)
            return run
        return [make(i, s, nu) for i, (s, nu) in enumerate(self.settings)]

    def answered(self, output):
        return len(output.errors)

    def check(self, done):
        errors = []
        for d in done:
            out = d.output
            if out is not None and (len(out.errors) != self.trials or
                                    out.infeasible != sum(map(math.isinf, out.errors))):
                errors.append(f"noisy r{d.round} op{d.index}: trial tally is off")
        for d in self._sampled(done):
            support, nu = self.settings[d.index]
            delta = nu * math.sqrt(self.m)
            seed = op_seed(self.seed, d.round, d.index)
            infeasible = 0
            for t in range(self.trials):
                x, measured, A, y = replay.noisy_trial(
                    self.groups, self.table, self.link_ids, support, self.m, nu,
                    FLOW_RANGE, seed, t)
                dist = replay.ball_distance(A, y)
                reported = d.output.errors[t] if t < len(d.output.errors) else None
                if abs(dist - delta) <= 1e-9 * np.linalg.norm(y):
                    # On the sphere within the references' precision: either
                    # verdict is right.
                    infeasible += reported is not None and math.isinf(reported)
                    continue
                if dist > delta:
                    infeasible += 1
                    continue
                ms = network.MeasurementSystem(
                    matrix=A, row_labels=measured, col_labels=tuple(range(A.shape[1])),
                    mode="static", table=self.table)
                res = estimators.estimate_l2_noisy(ms, y, delta)
                x_hat = np.asarray(res.allocation.x)
                bad = replay.kkt_l2_ball(A, y, x_hat, delta)
                err = float(np.linalg.norm(x_hat - x) / np.linalg.norm(x))
                if bad:
                    errors.append(f"noisy r{d.round} op{d.index} t{t}: {bad}")
                elif reported is None or not math.isclose(err, reported, rel_tol=1e-9):
                    errors.append(f"noisy r{d.round} op{d.index} t{t}: error {err:.12g} "
                                  f"not in the report ({reported})")
            if infeasible != d.output.infeasible:
                errors.append(f"noisy r{d.round} op{d.index}: {d.output.infeasible} "
                              f"infeasible balls reported, {infeasible} certified")
        return errors


class VmtSweep(Workload):
    """Travel-bound sweep on nguyen, one measured-link count M per op."""

    name = "vmt-sweep"
    fixture = "nguyen"
    trials = 3
    m_values = (18, 22, 26, 30, 34, 38)
    trace_rounds = 30
    check_rounds = 5

    def ops(self):
        def make(i, m):
            def run(r):
                cfg = TrialConfig(fixture=self.fixture, trials=self.trials,
                                  seed=op_seed(self.seed, r, i))
                return experiments.run_vmt_sweep(cfg, m_grid=[m])
            return run
        return [make(i, m) for i, m in enumerate(self.m_values)]

    def answered(self, output):
        return sum(p.trials for p in output.points)

    def _trials(self, d):
        m = self.m_values[d.index]
        seed = op_seed(self.seed, d.round, d.index)
        return [replay.vmt_trial(self.groups, self.table, self.link_ids, m,
                                 FLOW_RANGE, seed, t) for t in range(self.trials)]

    def check(self, done):
        errors = []
        for d in done:
            if d.output is None:
                continue
            (p,) = d.output.points
            unbounded = sum(replay.unbounded_structurally(A) for _, A in self._trials(d))
            if p.sandwich_violations:
                errors.append(f"vmt r{d.round} op{d.index}: sandwich violated")
            if p.unbounded_count != unbounded:
                errors.append(f"vmt r{d.round} op{d.index}: {p.unbounded_count} "
                              f"unbounded reported, {unbounded} paths cross no counter")
        lengths = replay.path_lengths(self.net, self.table)
        tol = 0.001                     # run_vmt_sweep's default recovery_tol
        for d in self._sampled(done):
            (p,) = d.output.points
            rec = [0, 0]
            ratios: list[list[float]] = [[], []]
            for t, (x, A) in enumerate(self._trials(d)):
                if replay.unbounded_structurally(A):
                    continue
                y = A @ x
                ms = network.MeasurementSystem(
                    matrix=A, row_labels=tuple(range(A.shape[0])),
                    col_labels=tuple(range(A.shape[1])), mode="static", table=self.table)
                b = estimators.vmt_bounds(ms, y, lengths)
                true = float(lengths @ x)
                for k, (bound, alloc, sense) in enumerate((
                        (b.vmt_lower, b.x_min, "min"), (b.vmt_upper, b.x_max, "max"))):
                    ref = replay.highs_optimum(lengths, A, y, sense)
                    if not math.isclose(bound, ref, rel_tol=1e-6):
                        errors.append(f"vmt r{d.round} op{d.index} t{t}: {sense} "
                                      f"{bound:.12g} but HiGHS {ref:.12g}")
                    if float(np.linalg.norm(alloc.x - x)) <= tol:
                        rec[k] += 1
                    else:
                        ratios[k].append(bound / true)
            want = (rec[0] / self.trials, rec[1] / self.trials,
                    float(np.mean(ratios[0])) if ratios[0] else math.nan,
                    float(np.mean(ratios[1])) if ratios[1] else math.nan)
            got = (p.rate_min, p.rate_max, p.mean_ratio_min, p.mean_ratio_max)
            if not all(math.isclose(a, b, rel_tol=1e-12) or (math.isnan(a) and math.isnan(b))
                       for a, b in zip(got, want)):
                errors.append(f"vmt r{d.round} op{d.index}: report {got} but the "
                              f"replayed trials give {want}")
        return errors


def _read_counts(path) -> tuple[list, np.ndarray]:
    """Row labels and counts of a count CSV, read without odflow."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    labels = [row[0] if len(row) == 2 else (row[0], int(row[1])) for row in rows]
    return labels, np.array([float(row[-1]) for row in rows])


class CliEstimate(Workload):
    """In-process ``odflow`` commands on count files written at set-up.

    Each round runs seven commands on count file ``r mod files`` (all fig2
    links measured, counts of a 3-sparse truth) and one l1-noisy command on
    a fixed file of noiseless counts, on which ``solve_cone``'s l1 branch
    stops at an iteration limit (exit 5) on every run.
    """

    name = "cli-estimate"
    fixture = "fig2"
    files = 40
    count_times = (0, 1, 2, 3)
    delta = 0.5
    # Noiseless counts of this truth (path position: flow) make the l1-noisy
    # solve fail; they do not depend on the seed.
    fault_truth = {1: 20.0, 8: 50.0, 11: 80.0}
    trace_rounds = 140
    rerun_files = 2

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        self.indir = workdir / "in"
        self.outdir = workdir / "out"
        self.indir.mkdir(parents=True)
        A = replay.incidence(self.table, self.link_ids)
        self.dyn_rows = [(lid, t) for lid in self.link_ids for t in self.count_times]
        self.dyn_cols = replay.dynamic_columns(self.net, self.table, set(self.link_ids),
                                               self.count_times)
        A_dyn = replay.dynamic_matrix(self.net, self.table, self.dyn_rows, self.dyn_cols)
        for k in range(self.files):
            rng = np.random.default_rng([seed, k])
            x = np.zeros(A.shape[1])
            x[rng.choice(x.size, 3, replace=False)] = rng.uniform(*FLOW_RANGE, 3)
            self._write_counts(self.indir / f"c{k}.csv", self.link_ids, A @ x)
            x = np.zeros(A_dyn.shape[1])
            x[rng.choice(x.size, 3, replace=False)] = rng.uniform(*FLOW_RANGE, 3)
            self._write_counts(self.indir / f"d{k}.csv", self.dyn_rows, A_dyn @ x)
            weights = rng.uniform(0.5, 2.0, A.shape[1])
            (self.indir / f"w{k}.json").write_text(json.dumps(weights.tolist()))
            (self.outdir / str(k)).mkdir(parents=True)
        x = np.zeros(A.shape[1])
        x[list(self.fault_truth)] = list(self.fault_truth.values())
        self._write_counts(self.indir / "fault.csv", self.link_ids, A @ x)
        (self.outdir / "fault").mkdir()
        self.argv = [self.commands(k) for k in range(self.files)]

    @staticmethod
    def _write_counts(path, labels, counts):
        kind = "dynamic" if isinstance(labels[0], tuple) else "static"
        fileio.save_measurements(
            fileio.Measurements(kind, tuple(labels), tuple(counts)), path)

    def commands(self, k) -> list[list[str]]:
        """Argument vectors of the round that reads count file ``k``; the
        fault command comes last."""
        base = ["--network", "fig2", "--paths", "fig2"]
        static = base + ["--measurements", str(self.indir / f"c{k}.csv")]
        out = self.outdir / str(k)

        def est(method, *extra):
            return ["estimate", *static, "--method", method, *extra,
                    "--output", str(out / f"{method}.json")]

        return [
            est("l1"),
            est("l2"),
            est("weighted", "--weights", str(self.indir / f"w{k}.json")),
            est("reweighted"),
            est("l2-noisy", "--delta", str(self.delta)),
            ["estimate", *base, "--measurements", str(self.indir / f"d{k}.csv"),
             "--dynamic", "--method", "l1", "--output", str(out / "l1-dynamic.json")],
            ["vmt", *static, "--link-lengths", "--output", str(out / "vmt.json")],
            ["estimate", *base, "--measurements", str(self.indir / "fault.csv"),
             "--method", "l1-noisy", "--delta", str(self.delta),
             "--output", str(self.outdir / "fault" / "l1-noisy.json")],
        ]

    def ops(self):
        def make(i):
            def run(r):
                argv = self.argv[r % self.files][i]
                with contextlib.redirect_stdout(_DISCARD), contextlib.redirect_stderr(_DISCARD):
                    return cli.main(argv)
            return run
        return [make(i) for i in range(len(self.argv[0]))]

    def answered(self, output):
        """``output`` is the command's exit code."""
        return int(output == 0)

    def failed(self, output):
        return output != 0

    def check(self, done):
        errors = []
        visited = sorted({d.round % self.files for d in done})
        for k in visited:
            errors += self.check_outputs(k)
        fault = len(self.argv[0]) - 1
        if any(d.index == fault and not self.failed(d.output) for d in done):
            errors += self._check_fault_output()
        for k in visited[: self.rerun_files]:
            errors += self._check_reruns(k)
        return errors

    def _result(self, path):
        data = json.loads(Path(path).read_text())
        return data, np.array([e["flow"] for e in data["allocation"]])

    def check_outputs(self, k) -> list[str]:
        """Check the seven outputs of count file ``k`` against the references."""
        errors = []
        out = self.outdir / str(k)
        labels, y = _read_counts(self.indir / f"c{k}.csv")
        A = replay.incidence(self.table, labels)
        tol = 1e-9 * max(1.0, float(np.linalg.norm(y)))
        ones = np.ones(A.shape[1])
        weights = np.array(json.loads((self.indir / f"w{k}.json").read_text()))

        def fits(name, x, radius=0.0):
            if x.min() < 0:
                errors.append(f"cli file {k} {name}: negative flow")
            if np.linalg.norm(A @ x - y) > radius * (1 + 1e-7) + tol:
                errors.append(f"cli file {k} {name}: counts not reproduced")

        def same(name, value, ref):
            if not math.isclose(value, ref, rel_tol=1e-9):
                errors.append(f"cli file {k} {name}: {value!r} but HiGHS {ref!r}")

        l1_ref = replay.highs_optimum(ones, A, y)
        for method, c in (("l1", ones), ("weighted", weights)):
            data, x = self._result(out / f"{method}.json")
            fits(method, x)
            same(method, data["objective"], l1_ref if method == "l1"
                 else replay.highs_optimum(c, A, y))
        data, x = self._result(out / "reweighted.json")
        fits("reweighted", x)
        same("reweighted trace[0]", data["objective_trace"][0], l1_ref)
        data, x = self._result(out / "l2.json")
        fits("l2", x)
        bad = replay.kkt_l2_equality(A, y, x, 1e-7 * float(x.max()))
        if bad:
            errors.append(f"cli file {k} l2: {bad}")
        data, x = self._result(out / "l2-noisy.json")
        fits("l2-noisy", x, self.delta)
        bad = replay.kkt_l2_ball(A, y, x, self.delta, rtol=1e-6)
        if bad:
            errors.append(f"cli file {k} l2-noisy: {bad}")

        rows, y_dyn = _read_counts(self.indir / f"d{k}.csv")
        data = json.loads((out / "l1-dynamic.json").read_text())
        flow = {(e["path"], e["departure"]): e["flow"] for e in data["allocation"]}
        x_dyn = np.array([flow.get(c, math.nan) for c in self.dyn_cols])
        A_dyn = replay.dynamic_matrix(self.net, self.table, rows, self.dyn_cols)
        if len(flow) != len(self.dyn_cols) or np.isnan(x_dyn).any() or x_dyn.min() < 0:
            errors.append(f"cli file {k} l1-dynamic: columns or flows are wrong")
        elif np.linalg.norm(A_dyn @ x_dyn - y_dyn) > 1e-9 * max(1.0, np.linalg.norm(y_dyn)):
            errors.append(f"cli file {k} l1-dynamic: counts not reproduced")
        same("l1-dynamic", data["objective"],
             replay.highs_optimum(np.ones(A_dyn.shape[1]), A_dyn, y_dyn))

        data = json.loads((out / "vmt.json").read_text())
        lengths = replay.path_lengths(self.net, self.table)
        for key, alloc, sense in (("vmt_lower", "x_min", "min"), ("vmt_upper", "x_max", "max")):
            fits(alloc, np.array([e["flow"] for e in data[alloc]]))
            same(key, data[key], replay.highs_optimum(lengths, A, y, sense))
        return errors

    def _check_fault_output(self) -> list[str]:
        labels, y = _read_counts(self.indir / "fault.csv")
        A = replay.incidence(self.table, labels)
        _, x = self._result(self.outdir / "fault" / "l1-noisy.json")
        bad = replay.kkt_l1_ball(A, y, x, self.delta, rtol=1e-6)
        return [f"cli fault file l1-noisy: {bad}"] if bad else []

    def _check_reruns(self, k) -> list[str]:
        errors = []
        redo = self.workdir / "rerun" / str(k)
        for manifest in sorted((self.outdir / str(k)).glob("*.manifest.json")):
            target = manifest.name[: -len(".manifest.json")]
            with contextlib.redirect_stdout(_DISCARD), contextlib.redirect_stderr(_DISCARD):
                code = cli.main(["rerun", str(manifest), "--output-dir", str(redo)])
            if code != 0 or (redo / target).read_bytes() != (
                    self.outdir / str(k) / target).read_bytes():
                errors.append(f"cli file {k}: rerun of {target} differs")
        shutil.rmtree(redo, ignore_errors=True)
        return errors


class _Discard(io.TextIOBase):
    def write(self, s):
        return len(s)


_DISCARD = _Discard()

WORKLOADS = {w.name: w for w in (RecoverySweep, NoisyL2, VmtSweep, CliEstimate)}

"""In-memory span tracing of odflow's layers, from outside the package.

A :class:`Tracer` replaces each traced public function with a wrapper in
every ``odflow`` module namespace that holds it, so calls made inside the
package (``run_recovery_sweep`` calling ``estimate_l1``, ``estimate_l1``
calling ``solve_lp``) are recorded as well.  Nothing under ``src/`` is
edited; :meth:`Tracer.uninstall` puts the original functions back.

Each span is ``(name, start_ns, end_ns, parent)``, where ``parent`` is the
index of the enclosing span or -1.  Counts (simplex pivots, NNLS solves,
bytes written) are taken from return values at the same boundaries.
:func:`layer_metrics` turns spans and counts into the per-layer figures.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from importlib import import_module

# Span names of the benchmark's own roots: one per set-up and one per op.
ROOT_SETUP = "bench.setup"
ROOT_OP = "bench.op"

ESTIMATORS = (
    "estimate_l1", "estimate_weighted_l1", "estimate_l2",
    "estimate_l1_noisy", "estimate_l2_noisy", "reweighted_l1", "vmt_bounds",
)
SAMPLING = (
    "substream", "sample_support", "sample_allocation",
    "sample_measurements", "add_noise",
)
SWEEPS = ("run_recovery_sweep", "run_noisy_cdf", "run_vmt_sweep")
FILE_READS = ("load_measurements", "load_manifest", "load_network", "load_paths")
FILE_WRITES = (
    "dump_json", "save_measurements", "write_csv", "write_manifest",
    "save_network", "save_paths",
)
# Writers that put bytes on disk themselves (the others call dump_json),
# with the position of their path argument.
_LEAF_WRITERS = {"dump_json": 1, "save_measurements": 1, "write_csv": 0}


def _solver_counts(counts, name, args, kwargs, sol):
    if name == "solver.solve_lp":
        counts["solver.solve_lp.pivots"] += sol.iterations
        if sol.status == "unbounded":
            counts["solver.solve_lp.unbounded"] += 1
            counts["solver.solve_lp.pivots_unbounded"] += sol.iterations
    else:
        counts["solver.solve_cone.nnls_solves"] += sol.iterations
        if sol.status == "infeasible":
            counts["solver.solve_cone.infeasible"] += 1
        elif sol.status == "iteration-limit":
            counts["solver.solve_cone.iteration_limit"] += 1


def _bytes_written(counts, name, args, kwargs, result):
    pos = _LEAF_WRITERS[name.rsplit(".", 1)[1]]
    path = kwargs.get("path", args[pos] if len(args) > pos else None)
    counts["fileio.bytes_written"] += os.path.getsize(path)


def _targets():
    """(module, function, span name, count hook) for every traced function."""
    out = [("odflow.fixtures", "get_fixture", "fixtures.get_fixture", None)]
    for fn in ("build_static_incidence", "build_dynamic_system",
               "decode_allocation"):
        out.append(("odflow.network", fn, "network." + fn, None))
    for fn in ("solve_lp", "solve_cone"):
        out.append(("odflow.solver", fn, "solver." + fn, _solver_counts))
    for fn in ESTIMATORS:
        out.append(("odflow.estimators", fn, "estimators." + fn, None))
    for fn in SAMPLING + SWEEPS + ("check_recovery",):
        out.append(("odflow.experiments", fn, "experiments." + fn, None))
    for fn in FILE_READS:
        out.append(("odflow.fileio", fn, "fileio." + fn, None))
    for fn in FILE_WRITES:
        hook = _bytes_written if fn in _LEAF_WRITERS else None
        out.append(("odflow.fileio", fn, "fileio." + fn, hook))
    out.append(("odflow.cli", "main", "cli.main", None))
    return out


class Tracer:
    """Spans and counts of one benchmark run, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._patched: list = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recording one span per call, then ``hook`` on its result."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self.counts, name, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Swap every traced function for its wrapper in all odflow modules."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "odflow" or key.startswith("odflow."))]
        for mod_name, attr, name, hook in _targets():
            original = getattr(import_module(mod_name), attr)
            traced = self.wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, traced)

    def uninstall(self) -> None:
        while self._patched:
            mod, key, original = self._patched.pop()
            setattr(mod, key, original)

    def dump(self, path) -> None:
        """Write spans (times in microseconds from the first span) and counts."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0
        data = {
            "names": names,
            "columns": ["name", "start_us", "end_us", "parent"],
            "spans": [[index[n], (a - t0) // 1000, (b - t0) // 1000, p]
                      for n, a, b, p in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))


def self_times(spans) -> list[int]:
    """Each span's duration less the durations of its direct children.

    Spans of one thread nest without overlap, so the children's summed
    durations are exactly the part of the parent's interval they cover.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _under(spans, root: str) -> list[bool]:
    """Whether each span lies inside a span named ``root``."""
    inside = [False] * len(spans)
    for i, (name, _, _, parent) in enumerate(spans):
        inside[i] = name == root or (parent >= 0 and inside[parent])
    return inside


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer figures over the op spans, plus set-up figures.

    ``.ms`` of a group sums the durations of its outermost spans, so a
    group's calls to itself (``write_manifest`` calling ``dump_json``,
    ``reweighted_l1`` calling ``estimate_l1``) are not counted twice.
    ``.self_ms`` sums durations less the time of child spans of any layer.
    ``estimators.calls`` counts entries into the layer from outside it.
    """
    own = self_times(spans)
    in_op = _under(spans, ROOT_OP)
    in_setup = _under(spans, ROOT_SETUP)

    def outer_ms(group, scope):
        total = 0
        for i, (name, start, end, parent) in enumerate(spans):
            if scope[i] and name in group and not (
                    parent >= 0 and spans[parent][0] in group):
                total += end - start
        return total / 1e6

    def self_ms(group):
        return sum(own[i] for i, s in enumerate(spans) if in_op[i] and s[0] in group) / 1e6

    def calls(group, outer_only=False):
        return sum(1 for i, (name, _, _, parent) in enumerate(spans)
                   if in_op[i] and name in group and not (
                       outer_only and parent >= 0 and spans[parent][0] in group))

    m: dict[str, float] = {}
    for fn in ("fixtures.get_fixture", "network.build_static_incidence",
               "network.build_dynamic_system", "network.decode_allocation",
               "solver.solve_lp", "solver.solve_cone"):
        m[fn + ".calls"] = calls({fn})
        m[fn + ".ms"] = outer_ms({fn}, in_op)
    m["fixtures.get_fixture.setup_ms"] = outer_ms({"fixtures.get_fixture"}, in_setup)

    lp_calls = m["solver.solve_lp.calls"]
    m["solver.solve_lp.pivots"] = counts["solver.solve_lp.pivots"]
    m["solver.solve_lp.pivots_per_call"] = (
        counts["solver.solve_lp.pivots"] / lp_calls if lp_calls else 0.0)
    m["solver.solve_lp.unbounded"] = counts["solver.solve_lp.unbounded"]
    m["solver.solve_lp.pivots_unbounded"] = counts["solver.solve_lp.pivots_unbounded"]
    cone_calls = m["solver.solve_cone.calls"]
    m["solver.solve_cone.nnls_solves"] = counts["solver.solve_cone.nnls_solves"]
    m["solver.solve_cone.nnls_per_call"] = (
        counts["solver.solve_cone.nnls_solves"] / cone_calls if cone_calls else 0.0)
    m["solver.solve_cone.infeasible"] = counts["solver.solve_cone.infeasible"]
    m["solver.solve_cone.iteration_limit"] = counts["solver.solve_cone.iteration_limit"]

    estimators = {"estimators." + f for f in ESTIMATORS}
    m["estimators.calls"] = calls(estimators, outer_only=True)
    m["estimators.self_ms"] = self_ms(estimators)

    m["experiments.sampling.ms"] = outer_ms({"experiments." + f for f in SAMPLING}, in_op)
    m["experiments.check_recovery.ms"] = outer_ms({"experiments.check_recovery"}, in_op)
    m["experiments.self_ms"] = self_ms({"experiments." + f for f in SWEEPS})

    writes = {"fileio." + f for f in FILE_WRITES}
    m["fileio.read.ms"] = outer_ms({"fileio." + f for f in FILE_READS}, in_op)
    m["fileio.write.ms"] = outer_ms(writes, in_op)
    m["fileio.write.setup_ms"] = outer_ms(writes, in_setup)
    m["fileio.bytes_written"] = counts["fileio.bytes_written"]

    m["cli.self_ms"] = self_ms({"cli.main"})
    m["bench.self_ms"] = self_ms({ROOT_OP})
    return m

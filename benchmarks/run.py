"""odflow benchmark: one workload, a closed loop from one thread, then checks.

    python3 benchmarks/run.py --workload recovery-sweep --seed 1 --seconds 25 --trace 0

Run from the repository root; odflow is imported from ``src/``.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  Op times are scaled to a reference machine speed (see
``calibrate.py``); the unscaled figures are printed on the line before.
Inputs and outputs go under ``.bench_runs/`` and are removed at the end;
result and trace files stay there.  See ``benchmarks/README.md``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".bench_runs"
# Fresh interpreters that repeat the set-up, besides this process, so that
# setup_s is a median of three.
SETUP_PROBES = 2
# Seconds between speed samples in the timed loop; the host's speed drifts
# over seconds, so ops between two samples share their mean.
CALIBRATE_EVERY_S = 0.25


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   help="recovery-sweep, noisy-l2, vmt-sweep or cli-estimate")
    p.add_argument("--seed", type=nonnegative_int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, then print the set-up time")
    return p.parse_args(argv)


def run_round(ops, r, tracer=None, report=None):
    """Run round ``r`` once; returns (op times in ms, Done records).

    An op that raises counts as failed; the first traceback of the run goes
    to standard error.
    """
    from workloads import Done

    times, done = [], []
    for i, op in enumerate(ops):
        t0 = time.perf_counter_ns()
        try:
            if tracer is None:
                out = op(r)
            else:
                with tracer.span(tracing.ROOT_OP):
                    out = op(r)
        except Exception:
            out = None
            if report is not None and not report:
                traceback.print_exc()
                report.append(r)
        times.append((time.perf_counter_ns() - t0) / 1e6)
        done.append(Done(r, i, out))
    return times, done


def closed_loop(ops, seconds):
    """Whole rounds of ops back to back until ``seconds`` have passed.

    The kernel of :mod:`calibrate` runs before the first round and then
    every ``CALIBRATE_EVERY_S``; each op time is scaled by the mean of the
    two samples around it.  Returns (raw ms, scaled ms, Done records).
    """
    import calibrate

    raw, scaled, done, pending, report = [], [], [], [], []
    k_prev = calibrate.kernel_ms()
    start = last = time.perf_counter()
    r = 0
    while True:
        running = time.perf_counter() - start < seconds
        if pending and (not running or time.perf_counter() - last >= CALIBRATE_EVERY_S):
            k = calibrate.kernel_ms()
            factor = calibrate.REFERENCE_MS / ((k_prev + k) / 2)
            scaled += [t * factor for t in pending]
            pending, k_prev, last = [], k, time.perf_counter()
        if not running:
            break
        t, d = run_round(ops, r, report=report)
        raw += t
        pending += t
        done += d
        r += 1
    return raw, scaled, done


def setup_probes(args) -> list[float]:
    """Set-up seconds of fresh interpreters that only set up."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "odflow" / "__init__.py").is_file():
        print(f"odflow sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    RUNS.mkdir(exist_ok=True)
    workdir = RUNS / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
            with tracer.span(tracing.ROOT_SETUP):
                workload.setup(args.seed, workdir)
            tracer.uninstall()
            tracer.counts.clear()
        else:
            workload.setup(args.seed, workdir)
        setup_s = time.perf_counter() - T_START
        if args.setup_probe:
            print(setup_s)
            return 0
        if tracer is None:
            result = end_to_end(args, workload, setup_s)
        else:
            result = traced(workload, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RUNS / f"result-{suffix}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(RUNS / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


def end_to_end(args, workload, setup_s) -> dict:
    setup_s = statistics.median([setup_s, *setup_probes(args)])
    raw, scaled, done = closed_loop(workload.ops(), args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    answered = sum(workload.answered(d.output) for d in done if d.output is not None)

    def figures(times):
        return {
            "setup_s": (setup_s, "s"),
            "estimates_per_s": (answered / (sum(times) / 1e3), "1/s"),
            "op_ms_p50": (percentile(times, 0.5), "ms"),
            "op_ms_p90": (percentile(times, 0.9), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    unscaled = {k: v for k, (v, _) in figures(raw).items()}
    print(f"{workload.name}: {len(raw)} ops, {answered} estimates; unscaled "
          + json.dumps(unscaled))
    return finish(workload, done, len(raw), figures(scaled))


def traced(workload, tracer) -> dict:
    """Per-layer figures from a fixed number of rounds, so that counts repeat
    exactly.  Each round runs untraced and then traced: the difference
    between the two is the tracing overhead."""
    import calibrate

    ops = workload.ops()
    plain, traced_ms, done, kernel, report = [], [], [], [], []
    for r in range(workload.trace_rounds):
        t, d = run_round(ops, r, report=report)
        plain += t
        done += d
        tracer.install()
        try:
            t, d = run_round(ops, r, tracer, report)
        finally:
            tracer.uninstall()
        traced_ms += t
        done += d
        kernel.append(calibrate.kernel_ms())
    factor = calibrate.REFERENCE_MS / statistics.median(kernel)
    metrics = {}
    for key, value in tracing.layer_metrics(tracer.spans, tracer.counts).items():
        if key.endswith("ms"):
            metrics[key] = (value * factor, "ms")
        else:
            metrics[key] = (value, "B" if key.endswith("bytes_written") else
                            "pivots/call" if key.endswith("pivots_per_call") else
                            "nnls/call" if key.endswith("nnls_per_call") else "count")
    p50_plain = percentile(plain, 0.5) * factor
    p50_traced = percentile(traced_ms, 0.5) * factor
    metrics["tracing.op_ms_p50_untraced"] = (p50_plain, "ms")
    metrics["tracing.op_ms_p50_traced"] = (p50_traced, "ms")
    metrics["tracing.overhead_pct"] = (100.0 * (p50_traced / p50_plain - 1.0), "%")
    return finish(workload, done, len(plain) + len(traced_ms), metrics)


def finish(workload, done, attempted, metrics) -> dict:
    """Check the outputs (untimed) and assemble the result object."""
    errors = workload.check(done)
    for e in errors[:50]:
        print("CHECK FAILED:", e)
    failed = collections.Counter(d.index for d in done if workload.failed(d.output))
    if failed:
        print("failed ops by position in the round:", dict(sorted(failed.items())))
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": sum(failed.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())

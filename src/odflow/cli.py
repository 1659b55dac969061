"""Command-line interface: parses flags and dispatches each command to the
library; :mod:`odflow.fileio` reads every input file.

Every command that writes an output file also writes a manifest beside it
(``<output>.manifest.json``) holding the fully resolved argument vector,
written by :func:`main` once the command returns; ``odflow rerun
<manifest>`` replays it byte-for-byte.

Exit codes: 0 success, 2 usage, 3 parse/validation, 4 infeasible or
unbounded program, 5 iteration limit.  Exit 2 means a bad flag value or
combination, reported before any input is read (``--dynamic`` on a static
count file is found when that file is read).  A flag's own rule lives in its
argparse type or group; a bound that depends on a fixture or input file,
such as ``--m`` above the fixture's link count, is the library's (exit 3).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from fractions import Fraction
from pathlib import Path as FsPath

import numpy as np

from . import __version__
from . import fileio
from .estimators import (
    InfeasibleError,
    IterationLimitError,
    UnboundedError,
    WeightMatrix,
    estimate_l1,
    estimate_l1_noisy,
    estimate_l2,
    estimate_l2_noisy,
    estimate_weighted_l1,
    reweighted_l1,
    vmt_bounds,
)
from .experiments import (
    _RECOVERY_TOL,
    _SEED_MAX,
    TrialConfig,
    grid_path_count,
    grid_paths_max_turns,
    hoeffding_turn_bound,
    run_noisy_cdf,
    run_recovery_sweep,
    run_vmt_sweep,
)
from .fixtures import FIXTURE_NAMES, get_fixture
from .network import (
    NetworkError,
    PathTable,
    build_dynamic_system,
    build_static_incidence,
    enumerate_paths,
    path_lengths,
    split_column_labels,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_INFEASIBLE = 4
EXIT_ITERATION_LIMIT = 5

SEED_ENV_VAR = "ODFLOW_SEED"


class UsageError(ValueError):
    """A flag needed by another flag's value, or at odds with an input file."""


def _resolve_network(spec: str):
    if spec in FIXTURE_NAMES:
        return get_fixture(spec).network
    return fileio.load_network(spec)


def _number(convert, low, high=math.inf, *, strict=False, even=False):
    """argparse type: a finite ``convert`` (int or float) value in
    ``[low, high]``, or in ``(low, high)`` when ``strict``; even if ``even``."""
    kind = "an even integer" if even else {int: "an integer", float: "a number"}[convert]
    if high == math.inf:
        span = f"above {low}" if strict else f"of at least {low}"
    else:
        span = f"strictly between {low} and {high}" if strict else f"in {low}..{high}"

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        inside = low < value < high if strict else low <= value <= high
        if not (inside and abs(value) < math.inf and not (even and value % 2)):
            raise argparse.ArgumentTypeError(f"must be {kind} {span}, got {text!r}")
        return value

    return parse


def _int_list(text: str) -> tuple[int, ...]:
    """argparse type: a nonempty comma-separated integer list."""
    try:
        values = tuple(int(tok) for tok in text.replace(";", ",").split(",") if tok)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"empty integer list {text!r}")
    return values


def _grid(text: str) -> tuple[int, ...]:
    """argparse type of ``--m-grid``: 'lo:hi' (inclusive) or an integer
    list, not empty."""
    if ":" not in text:
        return _int_list(text)
    lo, _, hi = text.partition(":")
    try:
        grid = tuple(range(int(lo), int(hi) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid spec {text!r}") from None
    if not grid:
        raise argparse.ArgumentTypeError(f"empty grid {text!r}")
    return grid


def _supports(text: str) -> tuple[tuple[int, ...], ...]:
    """argparse type of ``--supports``: ';'-separated integer lists."""
    groups = tuple(_int_list(g) for g in text.split(";") if g.strip())
    if not groups:
        raise argparse.ArgumentTypeError(f"empty support list {text!r}")
    return groups


def _od_pair(text: str) -> tuple:
    """argparse type of ``--od``: 'origin,dest', node ids read as a network
    file reads them."""
    toks = text.split(",")
    if len(toks) != 2:
        raise argparse.ArgumentTypeError(f"expected 'origin,dest', got {text!r}")
    return tuple(map(fileio._node_key, toks))


_AT_LEAST_1 = _number(int, 1)
_NONNEGATIVE = _number(float, 0)
_POSITIVE = _number(float, 0, strict=True)
_SEED = _number(int, 0, _SEED_MAX)


def _write_manifest(args) -> None:
    fileio.write_manifest(
        args.output,
        command=args.command,
        argv=_resolved_argv(args),
        seed=getattr(args, "seed", None),
        inputs={
            key: getattr(args, key)
            for key in ("network", "paths", "measurements", "fixture")
            if getattr(args, key, None) is not None
        },
        outputs=[str(args.output)],
    )


def _cmd_enumerate(args) -> int:
    net = _resolve_network(args.network)
    all_paths = []
    for origin, dest in args.od:
        found = enumerate_paths(
            net,
            (origin, dest),
            max_links=args.max_links,
            max_turns=args.max_turns,
            max_length_ratio=args.max_length_ratio,
        )
        if not found:
            print(f"warning: filters excluded every path for OD {origin}-{dest}",
                  file=sys.stderr)
        all_paths.extend(found)
    fileio.save_paths(all_paths, args.output)
    print(f"od_pairs={len(args.od)} paths={len(all_paths)} -> {args.output}")
    return EXIT_OK


def _load_system(args):
    """The network, path table, measurement system and counts that the
    ``--network``, ``--paths`` and ``--measurements`` flags name."""
    net = _resolve_network(args.network)
    table = (get_fixture(args.paths).table if args.paths in FIXTURE_NAMES
             else PathTable.from_paths(fileio.load_paths(args.paths, net)))
    meas = fileio.load_measurements(args.measurements)
    y = np.asarray(meas.counts, dtype=float)
    # A count file holds link ids as text: each names the network link whose
    # id prints the same (validate_network keeps that link unique).
    link = {str(lid): lid for lid in net.link_ids}
    if meas.kind == "dynamic":
        rows = [(link.get(lid, lid), t) for lid, t in meas.row_labels]
        return net, table, build_dynamic_system(table, net, rows), y
    if args.dynamic:
        raise UsageError("--dynamic needs a 'link_id,time,count' measurement file")
    measured = [link.get(lid, lid) for lid in meas.row_labels]
    return net, table, build_static_incidence(table, measured, net), y


def _cmd_estimate(args) -> int:
    method = args.method
    if method in ("l1-noisy", "l2-noisy") and args.delta is None:
        raise UsageError(f"--delta is required for method {method}")
    if method == "weighted" and args.weights is None:
        raise UsageError("--weights FILE is required for method weighted")
    _, _, ms, y = _load_system(args)

    if method == "l1":
        result = estimate_l1(ms, y)
    elif method == "l2":
        result = estimate_l2(ms, y)
    elif method == "l1-noisy":
        result = estimate_l1_noisy(ms, y, args.delta)
    elif method == "l2-noisy":
        result = estimate_l2_noisy(ms, y, args.delta)
    elif method == "weighted":
        lam = WeightMatrix(fileio.load_numbers(args.weights, "weights", ms.n_cols))
        result = estimate_weighted_l1(ms, y, lam)
    else:
        result = reweighted_l1(ms, y, iters=args.iters, epsilon=args.epsilon)

    payload = fileio.result_to_dict(result)
    if args.truth is not None:
        truth = fileio.load_numbers(args.truth, "truth", ms.n_cols)
        nrm = float(np.linalg.norm(truth))
        err = float(np.linalg.norm(result.allocation.x - truth))
        rel = err / nrm if nrm > 0 else err
        payload["recovery"] = {
            "relative_error": rel,
            "exact": bool(rel <= _RECOVERY_TOL),
        }
    fileio.dump_json(payload, args.output)
    print(f"{method}: status={result.status} objective={result.objective:.12g} "
          f"sparsity={payload['sparsity']} -> {args.output}")
    return EXIT_OK


def _cmd_vmt(args) -> int:
    net, table, ms, y = _load_system(args)
    if args.unit:
        lengths = np.ones(table.n_paths)
    elif args.lengths is not None:
        lengths = fileio.load_numbers(args.lengths, "lengths", table.n_paths)
    else:
        lengths = path_lengths(net, table)
    paths, _ = split_column_labels(ms.col_labels)
    bounds = vmt_bounds(ms, y, lengths[paths])
    fileio.dump_json(fileio.bounds_to_dict(bounds), args.output)
    print(f"vmt_lower={bounds.vmt_lower:.12g} vmt_upper={bounds.vmt_upper:.12g} "
          f"-> {args.output}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = TrialConfig(fixture=args.fixture, trials=args.trials, seed=args.seed)
    report = run_recovery_sweep(cfg, m_grid=args.m_grid,
                                supports=list(args.supports or args.sparsity))
    fileio.write_csv(args.output, report.CSV_HEADER, report.csv_rows())
    print(f"{len(report.points)} grid points -> {args.output}")
    return EXIT_OK


def _cmd_noisy_cdf(args) -> int:
    cfg = TrialConfig(fixture=args.fixture, trials=args.trials, seed=args.seed)
    report = run_noisy_cdf(cfg, args.support, args.m, args.nu, delta=args.delta)
    fileio.write_csv(args.output, report.CSV_HEADER, report.csv_rows())
    print(
        f"delta={report.delta:.12g} infeasible_trials={report.infeasible_trials} "
        f"median_l1={report.quantile('l1', 0.5):.6g} "
        f"median_l2={report.quantile('l2', 0.5):.6g} -> {args.output}"
    )
    return EXIT_OK


def _cmd_vmt_sweep(args) -> int:
    cfg = TrialConfig(fixture=args.fixture, trials=args.trials, seed=args.seed)
    report = run_vmt_sweep(cfg, m_grid=args.m_grid)
    fileio.write_csv(args.output, report.CSV_HEADER, report.csv_rows())
    print(f"{len(report.points)} M values -> {args.output}")
    return EXIT_OK


def _cmd_grid(args) -> int:
    count = grid_path_count(args.n)
    turns = args.turns if args.turns is not None else int(args.alpha * args.n)
    few = grid_paths_max_turns(args.n, turns)
    bound = hoeffding_turn_bound(args.alpha, args.n)
    fraction = float(Fraction(few, count))
    print(f"paths={count}")
    print(f"paths_with_at_most_{turns}_turns={few}")
    print(f"exact_fraction={fraction:.12g}")
    print(f"tail_bound={bound:.12g}")
    if args.output:
        fileio.write_csv(
            args.output,
            ("n", "alpha", "turns", "path_count", "few_turn_count",
             "exact_fraction", "tail_bound"),
            [(args.n, args.alpha, turns, count, few, fraction, bound)],
        )
    return EXIT_OK


def _cmd_rerun(args) -> int:
    manifest = fileio.load_manifest(args.manifest)
    argv = list(manifest["argv"])
    if argv[0] == "rerun":
        # odflow never writes a rerun manifest; replaying one could recurse
        raise fileio.FileFormatError(f"manifest {args.manifest} replays a rerun")
    if args.output_dir is not None:
        out_dir = FsPath(args.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, tok in enumerate(argv):
            if tok == "--output" and i + 1 < len(argv):
                argv[i + 1] = str(out_dir / FsPath(argv[i + 1]).name)
    return main(argv)


class _EnvSeed(str):
    """The ``--seed`` default: a marker that :func:`_seed` reads as
    ``$ODFLOW_SEED`` (or 0) at each parse, since the parser outlives the
    environment it was built in."""


def _seed(text: str) -> int:
    """argparse type of ``--seed``, a seed ``TrialConfig`` takes; argparse
    applies it to the string default too, so a bad ``$ODFLOW_SEED`` is a
    usage error like a bad ``--seed``."""
    if isinstance(text, _EnvSeed):
        text = os.environ.get(SEED_ENV_VAR, "0")
    return _SEED(text)


def _add_seed(parser) -> None:
    parser.add_argument(
        "--seed", type=_seed, default=_EnvSeed(),
        help=f"experiment seed (default: ${SEED_ENV_VAR} or 0)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odflow",
        description="Sparse origin-destination flow estimation from link counts",
    )
    parser.add_argument("--version", action="version", version=f"odflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate simple paths for OD pairs")
    p.add_argument("--network", required=True,
                   help=f"network file or fixture name ({', '.join(FIXTURE_NAMES)})")
    p.add_argument("--od", action="append", type=_od_pair, required=True,
                   metavar="O,D", help="OD pair, repeatable")
    p.add_argument("--max-links", type=_AT_LEAST_1, default=None)
    p.add_argument("--max-turns", type=_number(int, 0), default=None)
    p.add_argument("--max-length-ratio", type=_number(float, 1), default=None)
    p.add_argument("--output", required=True, help="path JSON to write")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("estimate", help="recover an allocation from counts")
    p.add_argument("--network", required=True)
    p.add_argument("--paths", required=True,
                   help="path file or fixture name")
    p.add_argument("--measurements", required=True, help="count CSV")
    p.add_argument("--method", required=True,
                   choices=("l1", "l2", "l1-noisy", "l2-noisy", "weighted",
                            "reweighted"))
    p.add_argument("--delta", type=_NONNEGATIVE, default=None,
                   help="ball radius for the noisy methods")
    p.add_argument("--weights", default=None,
                   help="JSON list of per-path weights (weighted method)")
    p.add_argument("--iters", type=_AT_LEAST_1, default=4,
                   help="rounds for the reweighted method")
    p.add_argument("--epsilon", type=_POSITIVE, default=None,
                   help="reweighting damping term")
    p.add_argument("--dynamic", action="store_true",
                   help="expect a dynamic (link,time,count) measurement file")
    p.add_argument("--truth", default=None,
                   help="JSON list with the true allocation, for a recovery check")
    p.add_argument("--output", required=True, help="result JSON to write")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("vmt", help="bound total travel from counts")
    p.add_argument("--network", required=True)
    p.add_argument("--paths", required=True)
    p.add_argument("--measurements", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--lengths", default=None, help="JSON list, one length per path")
    source.add_argument("--unit", action="store_true",
                        help="unit lengths: bound the vehicle count")
    source.add_argument("--link-lengths", action="store_true",
                        help="derive path lengths from the network's link lengths")
    p.add_argument("--dynamic", action="store_true")
    p.add_argument("--output", required=True, help="bounds JSON to write")
    p.set_defaults(func=_cmd_vmt)

    p = sub.add_parser("sweep", help="recovery-rate sweep over measured links")
    p.add_argument("--fixture", default="fig2", choices=FIXTURE_NAMES)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--supports", type=_supports, default=None,
                      help="fixed supports, e.g. '4,8,12;1,7,10,13' (0-based)")
    mode.add_argument("--sparsity", type=_int_list, default=None,
                      help="random-support sparsity levels, e.g. '3,4,5'")
    p.add_argument("--m-grid", type=_grid, default="4:10", help="'lo:hi' or list")
    p.add_argument("--trials", type=_AT_LEAST_1, default=500)
    _add_seed(p)
    p.add_argument("--output", required=True, help="CSV to write")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("noisy-cdf", help="noise-aware l1 vs l2 error comparison")
    p.add_argument("--fixture", default="fig2", choices=FIXTURE_NAMES)
    p.add_argument("--support", type=_int_list, required=True,
                   help="e.g. '4,8,12' (0-based)")
    p.add_argument("--nu", type=_POSITIVE, required=True, help="noise standard deviation")
    p.add_argument("--m", type=_AT_LEAST_1, default=10, help="measured links per trial")
    p.add_argument("--trials", type=_AT_LEAST_1, default=1000)
    p.add_argument("--delta", type=_NONNEGATIVE, default=None,
                   help="ball radius (default nu*sqrt(m))")
    _add_seed(p)
    p.add_argument("--output", required=True, help="CSV to write")
    p.set_defaults(func=_cmd_noisy_cdf)

    p = sub.add_parser("vmt-sweep", help="travel-bound recovery sweep")
    p.add_argument("--fixture", default="nguyen", choices=FIXTURE_NAMES)
    p.add_argument("--m-grid", type=_grid, default="14,18,22,26,30,34,38")
    p.add_argument("--trials", type=_AT_LEAST_1, default=500)
    _add_seed(p)
    p.add_argument("--output", required=True, help="CSV to write")
    p.set_defaults(func=_cmd_vmt_sweep)

    p = sub.add_parser("grid", help="square-grid path counts and turn fractions")
    p.add_argument("--n", type=_number(int, 2, 60, even=True), required=True,
                   help="links per path (even)")
    p.add_argument("--alpha", type=_number(float, 0, 0.5, strict=True), required=True,
                   help="turn fraction, 0 < alpha < 0.5")
    p.add_argument("--turns", type=_number(int, 0), default=None,
                   help="override the turn cap (default floor(alpha*n))")
    p.add_argument("--output", default=None, help="optional CSV")
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("rerun", help="replay a manifest")
    p.add_argument("manifest")
    p.add_argument("--output-dir", default=None,
                   help="redirect outputs into this directory")
    p.set_defaults(func=_cmd_rerun)

    return parser


# One parser per process: building it costs more than parsing with it.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage problems
        return int(exc.code or 0)
    try:
        code = args.func(args)
        if getattr(args, "output", None):
            _write_manifest(args)
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnboundedError as exc:
        detail = f" (path {exc.path_label!r})" if exc.path_label is not None else ""
        print(f"unbounded: {exc}{detail}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except IterationLimitError as exc:
        print(f"iteration limit: {exc}", file=sys.stderr)
        return EXIT_ITERATION_LIMIT
    except (fileio.FileFormatError, NetworkError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


# Flags whose values are input files; absolutized in manifests so a rerun
# works from any working directory.
_INPUT_FILE_KEYS = frozenset(
    {"network", "paths", "measurements", "weights", "truth", "lengths"})
# Input flags that read a fixture name before any file of that name, so
# such a value stays a name.
_FIXTURE_KEYS = frozenset({"network", "paths"})


def _flag_text(value) -> str:
    """A parsed flag value in the syntax its argparse type reads."""
    if isinstance(value, tuple):
        sep = ";" if value and isinstance(value[0], tuple) else ","
        return sep.join(map(_flag_text, value))
    return str(value)


def _resolved_argv(args) -> list[str]:
    """Reconstruct a replayable argument vector from parsed options."""
    argv = [args.command]
    for key, value in sorted(vars(args).items()):
        if key in ("command", "func") or value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif isinstance(value, list):  # a repeatable flag
            for item in value:
                argv += [flag, _flag_text(item)]
        else:
            fixture = key in _FIXTURE_KEYS and value in FIXTURE_NAMES
            if key in _INPUT_FILE_KEYS and not fixture and os.path.exists(value):
                value = os.path.realpath(value)
            argv += [flag, _flag_text(value)]
    return argv


if __name__ == "__main__":
    sys.exit(main())

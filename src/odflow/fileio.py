"""File formats: network/path JSON, measurement CSV, number-list JSON,
result JSON, manifests.  This module reads every input file, through
``_read``, which reports a file it cannot read or decode as a
:class:`FileFormatError` that names the file.

Schemas (stable; see README for examples):

* network JSON: ``{"nodes": [...], "links": [{"id", "tail", "head",
  "length", "travel_time"}, ...], "coords": {node: [x, y]}?}``
* path JSON: ordered list of ``{"od": [o, d], "links": [id, ...]}``
* measurement CSV: header ``link_id,count`` (static) or
  ``link_id,time,count`` (dynamic); rows keep file order
* number-list JSON (weights, truth, lengths): a flat list of finite numbers
* result and bounds JSON: see ``result_to_dict`` / ``bounds_to_dict`` and
  the README; each lists one entry per column, with a ``departure`` in
  dynamic mode

All floating-point output is printed with 12 significant digits so a rerun
of the same manifest is byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path as FsPath
from typing import Sequence

import numpy as np

from . import __version__
from .estimators import Allocation, EstimationResult, VmtBounds
from .network import (
    Link,
    Network,
    Path,
    _is_id,
    split_column_labels,
    validate_network,
    validate_path,
)


class FileFormatError(ValueError):
    """A data file failed to parse or violated its schema."""


def _fmt(value) -> str:
    """12-significant-digit rendering for floats (``nan``, ``inf`` and
    ``-inf`` included); plain str otherwise."""
    return format(value, ".12g") if isinstance(value, float) else str(value)


def _json_float(value: float) -> str:
    """A float's 12-significant-digit value as ``json`` writes it."""
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(float(_fmt(value)))


def _emit(obj, out: list, indent: str) -> None:
    """Append the JSON text of ``obj`` to ``out``, as
    ``json.dumps(obj, indent=2, sort_keys=True)`` writes it but with every
    float at its 12-significant-digit value; ``indent`` is the current
    line's.  Dict keys must be strings."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_json_float(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in obj:
            out.append(sep)
            _emit(item, out, inner)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _emit(obj[key], out, inner)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dump_json(data, path: FsPath | str) -> None:
    """Write ``data`` to ``path`` as sorted, two-space-indented JSON with
    12-significant-digit floats: the one writer of JSON files.  One
    recursive pass builds the text; ``json.dumps`` with ``indent`` would
    run its pure-Python encoder over a rounded copy."""
    out: list = []
    _emit(data, out, "")
    out.append("\n")
    FsPath(path).write_text("".join(out))


def _read(path: FsPath | str, what: str, decode=str):
    """``decode`` of the text of the ``what`` file at ``path``: the one
    read of an input file."""
    try:
        return decode(FsPath(path).read_text())
    except (OSError, ValueError) as exc:
        raise FileFormatError(f"cannot read {what} {path}: {exc}") from exc


def _node_key(raw):
    # JSON object keys are strings; fixture nodes are ints.  Accept both.
    if isinstance(raw, str) and raw.lstrip("-").isdigit():
        return int(raw)
    return raw


def _number(value, name):
    """A JSON number: ``float()`` and ``int()`` would also take a bool or
    a string, which a network file may not give."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"{name} {value!r} is not a number")
    return value


def _whole(value) -> int:
    """A travel time as an int; a float must be integral (``2.0`` is 2)."""
    value = _number(value, "travel_time")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"travel_time {value!r} is not an integer")
    return int(value)


def load_network(path: FsPath | str) -> Network:
    data = _read(path, "network file", json.loads)
    try:
        links = tuple(
            Link(
                id=entry["id"],
                tail=entry["tail"],
                head=entry["head"],
                length=float(_number(entry.get("length", 1.0), "length")),
                travel_time=_whole(entry.get("travel_time", 1)),
            )
            for entry in data["links"]
        )
        coords = data.get("coords")
        if coords is not None:
            coords = {
                _node_key(node): (float(xy[0]), float(xy[1]))
                for node, xy in coords.items()
            }
        net = Network(nodes=tuple(data["nodes"]), links=links, coords=coords)
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed network file {path}: {exc}") from exc
    return validate_network(net)


def save_network(net: Network, path: FsPath | str) -> None:
    data = {
        "nodes": list(net.nodes),
        "links": [
            {
                "id": ln.id,
                "tail": ln.tail,
                "head": ln.head,
                "length": ln.length,
                "travel_time": ln.travel_time,
            }
            for ln in net.links
        ],
    }
    if net.coords is not None:
        data["coords"] = {str(n): list(xy) for n, xy in net.coords.items()}
    dump_json(data, path)


def load_paths(path: FsPath | str, net: Network | None = None) -> tuple[Path, ...]:
    data = _read(path, "path file", json.loads)
    if not isinstance(data, list):
        raise FileFormatError(f"path file {path} must hold a JSON list")
    try:
        paths = tuple(
            Path(od=(entry["od"][0], entry["od"][1]), links=tuple(entry["links"]))
            for entry in data
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise FileFormatError(f"malformed path file {path}: {exc}") from exc
    for p in paths:
        if net is not None:
            validate_path(net, p)
        # without a network nothing else checks the ids, and a list id
        # fails later, unhashable, in ``PathTable.from_paths``
        for v in (*p.od, *p.links):
            if not _is_id(v):
                raise FileFormatError(
                    f"path file {path}: path for OD {p.od} has id {v!r}, "
                    "not a string or an integer")
    return paths


def save_paths(paths: Sequence[Path], path: FsPath | str) -> None:
    data = [{"od": list(p.od), "links": list(p.links)} for p in paths]
    dump_json(data, path)


@dataclass(frozen=True)
class Measurements:
    """Parsed count file: static rows are link ids, dynamic rows are
    (link id, count time) pairs."""

    kind: str                      # "static" | "dynamic"
    row_labels: tuple
    counts: tuple[float, ...]


def load_measurements(path: FsPath | str) -> Measurements:
    reader = csv.reader(io.StringIO(_read(path, "measurement file")))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise FileFormatError(f"measurement file {path} is empty")
    header = [cell.strip().lower() for cell in rows[0]]
    if header == ["link_id", "count"]:
        kind = "static"
    elif header == ["link_id", "time", "count"]:
        kind = "dynamic"
    else:
        raise FileFormatError(
            f"measurement file {path} header must be 'link_id,count' or "
            f"'link_id,time,count', got {rows[0]!r}"
        )
    labels: list = []
    counts: list[float] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise FileFormatError(f"{path}:{lineno}: wrong column count")
        try:
            if kind == "static":
                labels.append(row[0].strip())
                counts.append(float(row[1]))
            else:
                labels.append((row[0].strip(), int(row[1])))
                counts.append(float(row[2]))
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
    return Measurements(kind=kind, row_labels=tuple(labels), counts=tuple(counts))


def load_numbers(path: FsPath | str, what: str, count: int) -> np.ndarray:
    """The flat JSON list of ``count`` finite numbers in a ``what``
    (weights, truth or lengths) file."""
    data = _read(path, f"{what} file", json.loads)
    try:
        flat = isinstance(data, list) and all(
            type(v) in (int, float) and math.isfinite(v) for v in data)
    except OverflowError:  # an integer past the float range
        flat = False
    if not flat:
        raise FileFormatError(f"{what} file {path} must hold a flat JSON list of finite numbers")
    if len(data) != count:
        raise FileFormatError(
            f"{what} file {path} holds {len(data)} numbers where {count} are needed")
    return np.array(data, dtype=float)


def save_measurements(meas: Measurements, path: FsPath | str) -> None:
    lines = []
    if meas.kind == "static":
        lines.append("link_id,count")
        for lbl, cnt in zip(meas.row_labels, meas.counts):
            lines.append(f"{lbl},{_fmt(float(cnt))}")
    else:
        lines.append("link_id,time,count")
        for (lbl, t), cnt in zip(meas.row_labels, meas.counts):
            lines.append(f"{lbl},{t},{_fmt(float(cnt))}")
    FsPath(path).write_text("\n".join(lines) + "\n")


def write_csv(path: FsPath | str, header: Sequence[str], rows) -> None:
    """Deterministic CSV: fixed newline, 12-significant-digit floats."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    FsPath(path).write_text("\n".join(lines) + "\n")


def _entries(alloc: Allocation) -> list[dict]:
    """One ``{"path", "flow"}`` entry per column of ``alloc``, in column
    order, with the column's ``departure`` when it is time-expanded."""
    paths, departures = split_column_labels(alloc.labels)
    flows = alloc.x.tolist()
    if departures is None:
        return [{"path": n, "flow": f} for n, f in zip(paths.tolist(), flows)]
    return [{"path": n, "departure": t, "flow": f}
            for n, t, f in zip(paths.tolist(), departures.tolist(), flows)]


def result_to_dict(result: EstimationResult) -> dict:
    alloc = result.allocation
    table = alloc.table
    entries = _entries(alloc)
    for entry in entries:
        path = table.paths[entry["path"]]
        entry.update(od=list(path.od), links=list(path.links))
    return {
        "method": result.method,
        "status": result.status,
        "objective": float(result.objective),
        "residual_eq": float(result.residual_eq),
        "residual_cone": float(result.residual_cone),
        "iterations": int(result.iterations),
        "sparsity": alloc.sparsity(),
        "allocation": entries,
        "od_flows": [
            {"od": list(od), "flow": float(f)}
            for od, f in zip(table.od_pairs, result.od_flows)
        ],
        "splits": [
            {"path": int(n), "od": list(table.paths[n].od), "split": float(w)}
            for n, w in sorted(result.splits.items())
        ],
        "objective_trace": [float(v) for v in result.objective_trace],
    }


def bounds_to_dict(bounds: VmtBounds) -> dict:
    return {
        "vmt_lower": float(bounds.vmt_lower),
        "vmt_upper": float(bounds.vmt_upper),
        "x_min": _entries(bounds.x_min),
        "x_max": _entries(bounds.x_max),
    }


def write_manifest(
    output_path: FsPath | str,
    command: str,
    argv: Sequence[str],
    seed: int | None,
    inputs: dict,
    outputs: Sequence[str],
) -> FsPath:
    """Drop a re-run recipe beside an output file.

    The manifest records the fully resolved argument vector; replaying it
    reproduces every output byte-for-byte (the manifest's own timestamp is
    the only thing that changes).
    """
    manifest = {
        "tool": "odflow",
        "version": __version__,
        "command": command,
        "argv": list(argv),
        "seed": seed,
        "inputs": inputs,
        "outputs": [str(o) for o in outputs],
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    path = FsPath(str(output_path) + ".manifest.json")
    dump_json(manifest, path)
    return path


def load_manifest(path: FsPath | str) -> dict:
    data = _read(path, "manifest", json.loads)
    argv = data.get("argv") if isinstance(data, dict) else None
    if not (isinstance(argv, list) and argv and all(isinstance(a, str) for a in argv)):
        raise FileFormatError(f"manifest {path} lacks an argv list of strings")
    return data

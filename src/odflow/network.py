"""Traffic network model: links, paths, path catalogs, and measurement systems.

A directed network carries vehicles along catalogued paths between
origin-destination (OD) zones.  Counting stations on links observe the number
of vehicles that cross them, so the vector of link counts is a linear image
of the per-path flow vector.  This module builds that linear map in two
flavors:

* static: one row per measured link, entry 1 when the link lies on the path;
* dynamic: one row per given (measured link, count time) pair, one column
  per (path, departure time) pair that some row observes, entry 1 when a
  vehicle that departed on the path at that time is crossing the link at
  that count time.  The paper's links x times grid is the rows
  ``[(lid, t) for lid in links for t in times]``.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import heapq
import math
import numbers
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

NodeId = int | str
LinkId = int | str
OdPair = tuple[NodeId, NodeId]


class NetworkError(ValueError):
    """Base class for network and path validation failures."""


class SelfLoopError(NetworkError):
    """A link starts and ends at the same node."""


class DuplicateLinkIdError(NetworkError):
    """Two links share an id."""


class DanglingEndpointError(NetworkError):
    """A link references a node that is not declared."""


class UnknownLinkError(NetworkError):
    """A link id does not exist in the network."""


class BrokenChainError(NetworkError):
    """Consecutive links of a path do not share a node."""


class WrongEndpointsError(NetworkError):
    """A path does not start at its origin or end at its destination."""


class RepeatedNodeError(NetworkError):
    """A path visits some node twice."""


class NoPathExistsError(NetworkError):
    """The destination is unreachable from the origin."""


class LinkNotOnPathError(NetworkError):
    """The queried link is not part of the path."""


class UselessRowError(NetworkError):
    """A measured link is crossed by no catalogued path."""


class NegativeEntryError(NetworkError):
    """An allocation vector contains a negative flow."""


@dataclass(frozen=True)
class Link:
    """Unidirectional link from ``tail`` to ``head``.

    ``length`` is in distance units (miles in the bundled fixtures) and
    ``travel_time`` is a whole number of measurement periods; fractional
    travel times must be rounded by the caller before construction.
    """

    id: LinkId
    tail: NodeId
    head: NodeId
    length: float = 1.0
    travel_time: int = 1


@dataclass(frozen=True)
class Network:
    """Directed network with an ordered link sequence.

    The link order is significant: it fixes the canonical ordering of
    measurement rows and of randomly sampled link subsets.
    ``coords`` optionally maps nodes to planar coordinates; they are only
    needed by the turn-count path filter.
    """

    nodes: tuple[NodeId, ...]
    links: tuple[Link, ...]
    coords: Mapping[NodeId, tuple[float, float]] | None = None

    @cached_property
    def node_set(self) -> frozenset:
        return frozenset(self.nodes)

    @cached_property
    def link_by_id(self) -> dict[LinkId, Link]:
        return {ln.id: ln for ln in self.links}

    @cached_property
    def out_links(self) -> dict[NodeId, tuple[Link, ...]]:
        out: dict[NodeId, list[Link]] = {n: [] for n in self.nodes}
        for ln in self.links:
            out.setdefault(ln.tail, []).append(ln)
        return {n: tuple(ls) for n, ls in out.items()}

    @property
    def link_ids(self) -> tuple[LinkId, ...]:
        return tuple(ln.id for ln in self.links)


@dataclass(frozen=True)
class Path:
    """Ordered sequence of link ids from an origin to a destination."""

    od: OdPair
    links: tuple[LinkId, ...]


@dataclass(frozen=True)
class PathTable:
    """Ordered catalog of OD pairs and their alternative paths.

    The order of ``paths`` is the column order of every matrix built from
    the table, so it must be kept stable. ``from_paths`` preserves the
    order it is given; use :func:`canonical_order` to sort freshly
    enumerated paths reproducibly.
    """

    od_pairs: tuple[OdPair, ...]
    paths: tuple[Path, ...]

    @classmethod
    def from_paths(
        cls,
        paths: Iterable[Path],
        od_pairs: Sequence[OdPair] | None = None,
    ) -> "PathTable":
        paths = tuple(paths)
        if od_pairs is None:
            seen: list[OdPair] = []
            for p in paths:
                if p.od not in seen:
                    seen.append(p.od)
            od_pairs = seen
        od_pairs = tuple(tuple(od) for od in od_pairs)
        if len(set(od_pairs)) != len(od_pairs):
            raise NetworkError("duplicate OD pairs in table")
        owned = {od: 0 for od in od_pairs}
        for p in paths:
            if p.od not in owned:
                raise NetworkError(f"path OD {p.od} not among declared OD pairs")
            owned[p.od] += 1
        empty = [od for od, cnt in owned.items() if cnt == 0]
        if empty:
            raise NetworkError(f"OD pairs with no path: {empty}")
        return cls(od_pairs=od_pairs, paths=paths)

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    @property
    def n_od_pairs(self) -> int:
        return len(self.od_pairs)

    @cached_property
    def od_index(self) -> dict[OdPair, int]:
        return {od: k for k, od in enumerate(self.od_pairs)}

    @cached_property
    def od_of_path(self) -> tuple[int, ...]:
        return tuple(self.od_index[p.od] for p in self.paths)

    @cached_property
    def paths_by_od(self) -> tuple[tuple[int, ...], ...]:
        groups: list[list[int]] = [[] for _ in self.od_pairs]
        for n, k in enumerate(self.od_of_path):
            groups[k].append(n)
        return tuple(tuple(g) for g in groups)

    @cached_property
    def link_incidence(self) -> tuple[dict[LinkId, int], np.ndarray]:
        """``(row_of, rows)``: a read-only 0/1 matrix with one row over the
        paths for each link that some path crosses, and each such link's
        row in it."""
        row_of: dict[LinkId, int] = {}
        for p in self.paths:
            for lid in p.links:
                row_of.setdefault(lid, len(row_of))
        rows = np.zeros((len(row_of), self.n_paths))
        for n, p in enumerate(self.paths):
            rows[[row_of[lid] for lid in p.links], n] = 1.0
        rows.flags.writeable = False
        return row_of, rows


@dataclass(frozen=True)
class MeasurementSystem:
    """Binary matrix mapping path flows to link counts.

    ``mode`` is ``"static"`` (rows are link ids, columns are path indices)
    or ``"dynamic"`` (rows are ``(link id, count time)`` pairs, columns are
    ``(path index, departure time)`` pairs).
    """

    matrix: np.ndarray
    row_labels: tuple
    col_labels: tuple
    mode: str
    table: PathTable

    def __post_init__(self):
        self.matrix.flags.writeable = False

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def row_index(self) -> dict:
        return {lbl: i for i, lbl in enumerate(self.row_labels)}

    def subsystem(self, row_labels: Sequence) -> "MeasurementSystem":
        """Restrict to the given rows, in the given order."""
        try:
            idx = [self.row_index[lbl] for lbl in row_labels]
        except KeyError as exc:
            raise UnknownLinkError(f"no measurement row {exc.args[0]!r}") from exc
        return MeasurementSystem(
            matrix=self.matrix[idx, :],  # a fresh row-major array
            row_labels=tuple(row_labels),
            col_labels=self.col_labels,
            mode=self.mode,
            table=self.table,
        )


def split_column_labels(col_labels: Sequence) -> tuple[np.ndarray, np.ndarray | None]:
    """``(paths, departures)``: the path index and departure time of each
    column label.

    Static columns are labelled by path index and have no departure times
    (``departures`` is None); dynamic columns by ``(path index, departure
    time)`` pairs.
    """
    cols = np.array(col_labels, dtype=np.intp)
    if cols.ndim == 2:
        return cols[:, 0], cols[:, 1]
    return cols, None


def _is_id(value) -> bool:
    """A string or an integer, bools excluded: an id that a file can give."""
    return isinstance(value, (str, int, np.integer)) and not isinstance(value, bool)


def _is_node(value) -> bool:
    """An id, or a tuple of ids such as a grid point's coordinates."""
    return _is_id(value) or (isinstance(value, tuple) and all(map(_is_id, value)))


def validate_network(net: Network) -> Network:
    """Check all structural invariants; return the network unchanged.  Link
    ids are strings or integers; node ids may also be tuples of them."""
    for node in net.nodes:
        if not _is_node(node):
            raise NetworkError(f"node id {node!r} is not a string or an integer")
    if len(set(net.nodes)) != len(net.nodes):
        raise NetworkError("duplicate node ids")
    seen_ids, printed = set(), set()
    for ln in net.links:
        if not _is_id(ln.id):
            raise NetworkError(f"link id {ln.id!r} is not a string or an integer")
        if ln.id in seen_ids:
            raise DuplicateLinkIdError(f"duplicate link id {ln.id!r}")
        # count files name links by their printed ids
        if str(ln.id) in printed:
            raise DuplicateLinkIdError(f"link id {ln.id!r} prints like another link's id")
        seen_ids.add(ln.id)
        printed.add(str(ln.id))
        if ln.tail == ln.head:
            raise SelfLoopError(f"link {ln.id!r} is a self loop at node {ln.tail!r}")
        for end, endpoint in (("tail", ln.tail), ("head", ln.head)):
            if not _is_node(endpoint):
                raise NetworkError(
                    f"link {ln.id!r} {end} {endpoint!r} is not a string or an integer")
            if endpoint not in net.node_set:
                raise DanglingEndpointError(
                    f"link {ln.id!r} references undeclared node {endpoint!r}"
                )
        if (isinstance(ln.length, bool) or not isinstance(ln.length, numbers.Real)
                or not (math.isfinite(ln.length) and ln.length >= 0)):
            raise NetworkError(f"link {ln.id!r} length must be a finite nonnegative number")
        if (isinstance(ln.travel_time, bool)
                or not isinstance(ln.travel_time, (int, np.integer)) or ln.travel_time < 0):
            raise NetworkError(
                f"link {ln.id!r} travel_time must be a nonnegative integer"
            )
    return net


def path_nodes(net: Network, p: Path) -> tuple[NodeId, ...]:
    """Node sequence visited by a path (origin first)."""
    if not p.links:
        return (p.od[0],)
    first = net.link_by_id[p.links[0]]
    nodes = [first.tail]
    for lid in p.links:
        nodes.append(net.link_by_id[lid].head)
    return tuple(nodes)


def validate_path(net: Network, p: Path) -> Path:
    """Check contiguity, endpoints and simplicity; return the path unchanged."""
    if not p.links:
        raise WrongEndpointsError(f"path for OD {p.od} has no links")
    for lid in p.links:
        if not _is_id(lid):
            raise NetworkError(
                f"path for OD {p.od} has link id {lid!r}, not a string or an integer")
        if lid not in net.link_by_id:
            raise UnknownLinkError(f"path references unknown link {lid!r}")
    for a, b in zip(p.links, p.links[1:]):
        if net.link_by_id[a].head != net.link_by_id[b].tail:
            raise BrokenChainError(f"links {a!r} and {b!r} do not chain")
    origin, dest = p.od
    if net.link_by_id[p.links[0]].tail != origin:
        raise WrongEndpointsError(
            f"path starts at {net.link_by_id[p.links[0]].tail!r}, expected {origin!r}"
        )
    if net.link_by_id[p.links[-1]].head != dest:
        raise WrongEndpointsError(
            f"path ends at {net.link_by_id[p.links[-1]].head!r}, expected {dest!r}"
        )
    nodes = path_nodes(net, p)
    if len(set(nodes)) != len(nodes):
        raise RepeatedNodeError(f"path for OD {p.od} repeats a node")
    return p


def canonical_sort_key(p: Path):
    """Sort key making path lists reproducible across runs: fewer links
    first, ties broken by the lexicographic link-id sequence."""
    return (len(p.links), tuple(str(lid) for lid in p.links))


def canonical_order(paths: Iterable[Path], od_pairs: Sequence[OdPair]) -> tuple[Path, ...]:
    """Order paths by (OD pair position, link count, lexicographic link ids)."""
    od_rank = {tuple(od): k for k, od in enumerate(od_pairs)}
    return tuple(sorted(paths, key=lambda p: (od_rank[tuple(p.od)],) + canonical_sort_key(p)))


def _heading(net: Network, link: Link) -> float:
    (x0, y0) = net.coords[link.tail]
    (x1, y1) = net.coords[link.head]
    return math.atan2(y1 - y0, x1 - x0)


def _count_turns(net: Network, link_seq: Sequence[Link]) -> int:
    turns = 0
    for a, b in zip(link_seq, link_seq[1:]):
        da = _heading(net, a)
        db = _heading(net, b)
        diff = abs(da - db) % (2 * math.pi)
        if min(diff, 2 * math.pi - diff) > 1e-9:
            turns += 1
    return turns


def _shortest_length(net: Network, origin: NodeId, dest: NodeId) -> float | None:
    """Dijkstra over link lengths; None when unreachable."""
    dist = {origin: 0.0}
    heap = [(0.0, 0, origin)]
    tiebreak = 1
    while heap:
        d, _, node = heapq.heappop(heap)
        if node == dest:
            return d
        if d > dist.get(node, math.inf):
            continue
        for ln in net.out_links.get(node, ()):
            nd = d + ln.length
            if nd < dist.get(ln.head, math.inf):
                dist[ln.head] = nd
                heapq.heappush(heap, (nd, tiebreak, ln.head))
                tiebreak += 1
    return None


def enumerate_paths(
    net: Network,
    od: OdPair,
    *,
    max_links: int | None = None,
    max_turns: int | None = None,
    max_length_ratio: float | None = None,
) -> tuple[Path, ...]:
    """All simple paths for one OD pair that satisfy every filter bound.

    ``max_length_ratio`` caps a path's total length relative to the
    shortest-path length for the OD pair.  ``max_turns`` requires node
    coordinates; without them the bound is ignored with a warning.
    An empty tuple means the filters excluded everything; a disconnected
    OD pair raises :class:`NoPathExistsError` instead.

    Without ``max_links`` the enumeration is exhaustive and can be
    exponential in the network size.
    """
    origin, dest = od
    for endpoint in (origin, dest):
        if endpoint not in net.node_set:
            raise NetworkError(f"unknown node {endpoint!r}")
    if origin == dest:
        raise NetworkError("origin and destination must differ")

    shortest = _shortest_length(net, origin, dest)
    if shortest is None:
        raise NoPathExistsError(f"no path from {origin!r} to {dest!r}")

    use_turns = max_turns is not None
    if use_turns and net.coords is None:
        warnings.warn(
            "max_turns requires node coordinates; filter ignored",
            stacklevel=2,
        )
        use_turns = False

    length_cap = (
        max_length_ratio * shortest if max_length_ratio is not None else None
    )

    found: list[Path] = []
    chain: list[Link] = []
    visited = {origin}

    def dfs(node: NodeId, length: float) -> None:
        if node == dest:
            p = Path(od=(origin, dest), links=tuple(ln.id for ln in chain))
            if not use_turns or _count_turns(net, chain) <= max_turns:
                found.append(p)
            return
        if max_links is not None and len(chain) >= max_links:
            return
        for ln in net.out_links.get(node, ()):
            if ln.head in visited:
                continue
            new_len = length + ln.length
            if length_cap is not None and new_len > length_cap + 1e-12:
                continue
            visited.add(ln.head)
            chain.append(ln)
            dfs(ln.head, new_len)
            chain.pop()
            visited.remove(ln.head)

    dfs(origin, 0.0)
    return tuple(sorted(found, key=canonical_sort_key))


def _check_measured(measured_links: Sequence[LinkId], net: Network | None) -> None:
    if not measured_links:
        raise NetworkError("measured rows must be nonempty")
    if net is not None:
        for lid in measured_links:
            if lid not in net.link_by_id:
                raise UnknownLinkError(f"measured link {lid!r} not in network")


def build_static_incidence(
    pt: PathTable,
    measured_links: Sequence[LinkId],
    net: Network | None = None,
) -> MeasurementSystem:
    """Binary link/path incidence matrix for the measured links.

    Row order follows ``measured_links``; column order follows the table.
    A measured link crossed by no catalogued path is rejected.
    """
    _check_measured(measured_links, net)
    row_of, rows = pt.link_incidence
    try:
        index = [row_of[lid] for lid in measured_links]
    except KeyError as exc:
        raise UselessRowError(
            f"measured link {exc.args[0]!r} lies on no catalogued path") from None
    return MeasurementSystem(
        matrix=rows[index],
        row_labels=tuple(measured_links),
        col_labels=tuple(range(pt.n_paths)),
        mode="static",
        table=pt,
    )


def path_lengths(net: Network, pt: PathTable) -> np.ndarray:
    """Length of each catalogued path, the sum of its link lengths, in
    table order."""
    return np.array([sum(net.link_by_id[lid].length for lid in p.links) for p in pt.paths])


def path_prefix_delay(p: Path, link_id: LinkId, net: Network) -> int:
    """Travel time accumulated before entering ``link_id`` on the path.

    A vehicle that departs at time t is counted on the link at t + delay.
    """
    delay = 0
    for lid in p.links:
        if lid == link_id:
            return delay
        ln = net.link_by_id.get(lid)
        if ln is None:
            raise UnknownLinkError(f"path references unknown link {lid!r}")
        delay += ln.travel_time
    raise LinkNotOnPathError(f"link {link_id!r} is not on the path")


def build_dynamic_system(
    pt: PathTable,
    net: Network,
    row_labels: Sequence[tuple[LinkId, int]],
) -> MeasurementSystem:
    """Time-expanded incidence system of the given (link, count time) rows.

    Rows keep the given order.  Columns are the distinct (path, departure
    time) pairs that some row observes, sorted by (path index, departure
    time); departures earlier than the first count time are kept as unknowns
    rather than assumed zero.  A measured link crossed by no catalogued path
    is rejected.  The links x times grid is the rows
    ``[(lid, t) for lid in links for t in times]``.
    """
    row_labels = tuple(row_labels)
    for row in row_labels:
        if not (isinstance(row, tuple) and len(row) == 2
                and isinstance(row[1], (int, np.integer)) and not isinstance(row[1], bool)):
            raise NetworkError(f"row {row!r} is not a (link, integer time) pair")
    _check_measured([lid for lid, _ in row_labels], net)
    # per measured link: (path index, entry delay) of each path crossing it
    crossings: dict[LinkId, list[tuple[int, int]]] = {lid: [] for lid, _ in row_labels}
    for n, p in enumerate(pt.paths):
        for lid in p.links:
            if lid in crossings:
                crossings[lid].append((n, path_prefix_delay(p, lid, net)))
    for lid, found in crossings.items():
        if not found:
            raise UselessRowError(f"measured link {lid!r} lies on no catalogued path")

    hits = [(i, (n, t - d)) for i, (lid, t) in enumerate(row_labels)
            for n, d in crossings[lid]]
    col_labels = tuple(sorted({col for _, col in hits}))
    col_index = {lbl: j for j, lbl in enumerate(col_labels)}
    mat = np.zeros((len(row_labels), len(col_labels)))
    mat[[i for i, _ in hits], [col_index[col] for _, col in hits]] = 1.0
    return MeasurementSystem(
        matrix=mat,
        row_labels=row_labels,
        col_labels=col_labels,
        mode="dynamic",
        table=pt,
    )


@dataclass(frozen=True)
class DecodedAllocation:
    """OD flows and path splits recovered from a path-flow vector.

    ``od_flows[k]`` is the total flow of the k-th OD pair; ``splits[n]`` is
    the fraction of that flow on path n, present only when the OD flow is
    positive.
    """

    od_flows: tuple[float, ...]
    splits: dict[int, float] = field(default_factory=dict)


def decode_allocation(x: Sequence[float], pt: PathTable) -> DecodedAllocation:
    """Split a path-flow vector into per-OD totals and per-path fractions.

    Summing a pair's path flows gives its OD flow because the fractions on
    each pair's paths add to one; dividing back out recovers the fractions.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (pt.n_paths,):
        raise NetworkError(
            f"allocation length {x.shape} does not match path count {pt.n_paths}"
        )
    bad = x[~np.isfinite(x)]
    if bad.size:
        raise NetworkError(f"allocation has a non-finite entry {bad[0]}")
    if x.min(initial=0.0) < 0:
        raise NegativeEntryError("allocation has a negative entry")
    flows = np.bincount(
        np.asarray(pt.od_of_path, dtype=np.intp), weights=x, minlength=pt.n_od_pairs
    ).tolist()
    splits: dict[int, float] = {}
    for n, k in enumerate(pt.od_of_path):
        if flows[k] > 0:
            splits[n] = float(x[n]) / flows[k]
    return DecodedAllocation(od_flows=tuple(flows), splits=splits)

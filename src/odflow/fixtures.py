"""Built-in demonstration networks and path catalogs.

Three fixtures, addressable by name anywhere the CLI expects a network or
path file:

* ``fig1``:   3 zones, 4 links, 7 paths over 6 OD pairs; small enough to
  check matrices by hand.
* ``fig2``:   4 zones, 10 links; 3 plausible OD pairs with 14 catalogued
  paths.  Most recovery demos run on this one.
* ``nguyen``: the Nguyen-Dupuis benchmark (13 nodes, 38 directed links,
  8 OD pairs).  Its catalog is enumerated with a 5-link cap, giving 66
  paths; unit link lengths make a path's length its link count.

All link ids follow the ``l<tail>-<head>`` convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import network
from .network import (
    Link,
    Network,
    Path,
    PathTable,
    enumerate_paths,
    validate_network,
    validate_path,
)

FIXTURE_NAMES = ("fig1", "fig2", "nguyen")

# Path positions (0-based) of the bundled demo supports on the fig2 catalog.
SUPPORT_3SPARSE = (4, 8, 12)
SUPPORT_4SPARSE = (1, 7, 10, 13)

# Six-link measurement sets used by the recovery demos on fig2: set A pairs
# with the 4-sparse support for the plain-l1 success case; set B is the
# variant on which plain l1 needs weights to succeed.
SIX_LINKS_A = ("l1-2", "l1-3", "l2-1", "l3-2", "l3-4", "l4-3")
SIX_LINKS_B = ("l1-2", "l1-3", "l3-2", "l3-4", "l4-2", "l4-3")

NGUYEN_MAX_LINKS = 5


@dataclass(frozen=True)
class FixtureBundle:
    """A validated network with its canonical path catalog."""

    name: str
    network: Network
    table: PathTable
    description: str

    @cached_property
    def path_lengths(self) -> np.ndarray:
        """:func:`~odflow.network.path_lengths` of the catalog, read-only,
        computed on first use and kept, so that a sweep that runs often
        computes it once."""
        lengths = network.path_lengths(self.network, self.table)
        lengths.flags.writeable = False
        return lengths


def _link(tail, head, length=1.0, travel_time=1) -> Link:
    return Link(id=f"l{tail}-{head}", tail=tail, head=head,
                length=length, travel_time=travel_time)


@lru_cache(maxsize=None)
def fig1() -> FixtureBundle:
    """Triangle network: 3 zones, 4 links, 7 paths over 6 OD pairs."""
    net = validate_network(Network(
        nodes=(1, 2, 3),
        links=(
            _link(1, 2),
            _link(1, 3),
            _link(2, 3),
            _link(3, 1),
        ),
    ))
    paths = (
        Path((1, 2), ("l1-2",)),
        Path((1, 3), ("l1-2", "l2-3")),
        Path((1, 3), ("l1-3",)),
        Path((2, 1), ("l2-3", "l3-1")),
        Path((2, 3), ("l2-3",)),
        Path((3, 1), ("l3-1",)),
        Path((3, 2), ("l3-1", "l1-2")),
    )
    for p in paths:
        validate_path(net, p)
    table = PathTable.from_paths(
        paths,
        od_pairs=((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)),
    )
    return FixtureBundle(
        name="fig1",
        network=net,
        table=table,
        description="3-zone triangle network, 4 links, 7 paths",
    )


@lru_cache(maxsize=None)
def fig2() -> FixtureBundle:
    """4-zone network with 10 links and a 14-path catalog on 3 OD pairs."""
    net = validate_network(Network(
        nodes=(1, 2, 3, 4),
        links=(
            _link(1, 2),
            _link(1, 3),
            _link(2, 1),
            _link(2, 4),
            _link(3, 1),
            _link(3, 2),
            _link(3, 4),
            _link(4, 1),
            _link(4, 2),
            _link(4, 3),
        ),
    ))
    paths = (
        Path((3, 1), ("l3-1",)),
        Path((3, 1), ("l3-2", "l2-1")),
        Path((3, 1), ("l3-2", "l2-4", "l4-1")),
        Path((3, 1), ("l3-4", "l4-1")),
        Path((3, 1), ("l3-4", "l4-2", "l2-1")),
        Path((3, 2), ("l3-1", "l1-2")),
        Path((3, 2), ("l3-2",)),
        Path((3, 2), ("l3-4", "l4-1", "l1-2")),
        Path((3, 2), ("l3-4", "l4-2")),
        Path((4, 2), ("l4-1", "l1-2")),
        Path((4, 2), ("l4-1", "l1-3", "l3-2")),
        Path((4, 2), ("l4-2",)),
        Path((4, 2), ("l4-3", "l3-1", "l1-2")),
        Path((4, 2), ("l4-3", "l3-2")),
    )
    for p in paths:
        validate_path(net, p)
    table = PathTable.from_paths(paths, od_pairs=((3, 1), (3, 2), (4, 2)))
    return FixtureBundle(
        name="fig2",
        network=net,
        table=table,
        description="4-zone network, 10 links, 14 paths on 3 OD pairs",
    )


NGUYEN_EDGES = (
    (1, 5), (1, 12), (4, 5), (4, 9), (5, 6), (5, 9), (6, 7), (6, 10),
    (7, 8), (7, 11), (8, 2), (9, 10), (9, 13), (10, 11), (11, 2), (11, 3),
    (12, 6), (12, 8), (13, 3),
)

NGUYEN_OD_PAIRS = (
    (1, 2), (1, 3), (2, 1), (2, 4), (3, 1), (3, 4), (4, 2), (4, 3),
)


@lru_cache(maxsize=None)
def nguyen() -> FixtureBundle:
    """Nguyen-Dupuis benchmark, both directions of each of the 19 arcs.

    The catalog enumerates every simple path of at most NGUYEN_MAX_LINKS
    links per OD pair (66 paths).  The published route list this stands in
    for is not reproduced anywhere; treat the catalog as an approximation.
    """
    links = tuple(
        [_link(a, b) for a, b in NGUYEN_EDGES]
        + [_link(b, a) for a, b in NGUYEN_EDGES]
    )
    net = validate_network(Network(nodes=tuple(range(1, 14)), links=links))
    paths: list[Path] = []
    for od in NGUYEN_OD_PAIRS:
        paths.extend(enumerate_paths(net, od, max_links=NGUYEN_MAX_LINKS))
    table = PathTable.from_paths(paths, od_pairs=NGUYEN_OD_PAIRS)
    return FixtureBundle(
        name="nguyen",
        network=net,
        table=table,
        description=(
            "Nguyen-Dupuis benchmark: 13 nodes, 38 directed links, "
            f"8 OD pairs, {table.n_paths} enumerated paths"
        ),
    )


def get_fixture(name: str) -> FixtureBundle:
    """Look a fixture up by its CLI name."""
    builders = {"fig1": fig1, "fig2": fig2, "nguyen": nguyen}
    try:
        return builders[name]()
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        ) from None

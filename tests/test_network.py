import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from odflow import (
    Link,
    Network,
    Path,
    PathTable,
    build_dynamic_system,
    build_static_incidence,
    canonical_order,
    decode_allocation,
    enumerate_paths,
    get_fixture,
    path_lengths,
    path_prefix_delay,
    validate_network,
    validate_path,
)
from odflow.network import (
    BrokenChainError,
    DanglingEndpointError,
    DuplicateLinkIdError,
    EmptyWindowError,
    LinkNotOnPathError,
    NegativeEntryError,
    NetworkError,
    NoPathExistsError,
    RepeatedNodeError,
    SelfLoopError,
    UnknownLinkError,
    UselessRowError,
    WrongEndpointsError,
    split_column_labels,
)
from conftest import FOURZONE_MATRIX, TRIANGLE_DYNAMIC_COLUMNS, TRIANGLE_MATRIX
from oracles import (
    simulate_dynamic_counts,
    simulate_static_counts,
    static_incidence_oracle,
)


class TestValidateNetwork:
    def test_triangle_fixture_is_valid(self, fig1):
        assert validate_network(fig1.network) is fig1.network

    def test_empty_network_is_valid(self):
        net = Network(nodes=(), links=())
        assert validate_network(net) is net

    def test_self_loop_rejected(self):
        net = Network(nodes=(1,), links=(Link("a", 1, 1),))
        with pytest.raises(SelfLoopError):
            validate_network(net)

    def test_duplicate_link_id_rejected(self):
        net = Network(nodes=(1, 2), links=(Link("a", 1, 2), Link("a", 2, 1)))
        with pytest.raises(DuplicateLinkIdError):
            validate_network(net)

    def test_dangling_endpoint_rejected(self):
        net = Network(nodes=(1, 2), links=(Link("a", 1, 3),))
        with pytest.raises(DanglingEndpointError):
            validate_network(net)

    def test_negative_length_rejected(self):
        net = Network(nodes=(1, 2), links=(Link("a", 1, 2, length=-1.0),))
        with pytest.raises(NetworkError):
            validate_network(net)

    def test_fractional_travel_time_rejected(self):
        net = Network(nodes=(1, 2), links=(Link("a", 1, 2, travel_time=0.5),))
        with pytest.raises(NetworkError):
            validate_network(net)


class TestValidatePath:
    def test_two_link_chain_valid(self, fig1):
        p = Path((1, 3), ("l1-2", "l2-3"))
        assert validate_path(fig1.network, p) is p

    def test_single_link_valid(self, fig1):
        p = Path((1, 3), ("l1-3",))
        assert validate_path(fig1.network, p) is p

    def test_broken_chain(self, fig1):
        with pytest.raises(BrokenChainError):
            validate_path(fig1.network, Path((1, 1), ("l1-2", "l3-1")))

    def test_wrong_endpoints(self, fig1):
        with pytest.raises(WrongEndpointsError):
            validate_path(fig1.network, Path((2, 3), ("l1-2", "l2-3")))

    def test_no_links(self, fig1):
        with pytest.raises(WrongEndpointsError):
            validate_path(fig1.network, Path((1, 3), ()))

    def test_unknown_link(self, fig1):
        with pytest.raises(UnknownLinkError):
            validate_path(fig1.network, Path((1, 3), ("nope",)))

    def test_repeated_node(self):
        net = validate_network(Network(
            nodes=(1, 2, 3),
            links=(Link("a", 1, 2), Link("b", 2, 3), Link("c", 3, 2),
                   Link("d", 2, 1)),
        ))
        with pytest.raises(RepeatedNodeError):
            validate_path(net, Path((1, 1), ("a", "b", "c", "d")))


class TestEnumeratePaths:
    def test_triangle_two_paths(self, fig1):
        got = enumerate_paths(fig1.network, (1, 3))
        assert [p.links for p in got] == [("l1-3",), ("l1-2", "l2-3")]

    def test_triangle_single_path(self, fig1):
        got = enumerate_paths(fig1.network, (2, 1))
        assert [p.links for p in got] == [("l2-3", "l3-1")]

    def test_fourzone_catalog_recovered(self, fig2):
        enumerated = []
        for od in fig2.table.od_pairs:
            enumerated.extend(enumerate_paths(fig2.network, od))
        assert set(p.links for p in enumerated) == set(
            p.links for p in fig2.table.paths
        )
        assert len(enumerated) == 14

    def test_disconnected_raises(self):
        net = validate_network(Network(
            nodes=(1, 2, 3), links=(Link("a", 1, 2),)
        ))
        with pytest.raises(NoPathExistsError):
            enumerate_paths(net, (1, 3))

    def test_filters_can_empty_without_error(self, fig1):
        got = enumerate_paths(fig1.network, (2, 1), max_links=1)
        assert got == ()

    def test_max_length_ratio(self, fig1):
        got = enumerate_paths(fig1.network, (1, 3), max_length_ratio=1.0)
        assert [p.links for p in got] == [("l1-3",)]

    def test_max_turns_without_coords_warns(self, fig1):
        with pytest.warns(UserWarning, match="coordinates"):
            got = enumerate_paths(fig1.network, (1, 3), max_turns=0)
        assert len(got) == 2

    def test_max_turns_with_coords(self):
        # 2x2 grid, eastward and northward links only
        nodes = [(i, j) for i in range(3) for j in range(3)]
        links = []
        for i in range(3):
            for j in range(3):
                if i < 2:
                    links.append(Link(f"e{i}{j}", (i, j), (i + 1, j)))
                if j < 2:
                    links.append(Link(f"n{i}{j}", (i, j), (i, j + 1)))
        coords = {(i, j): (float(i), float(j)) for i, j in nodes}
        net = validate_network(Network(
            nodes=tuple(nodes), links=tuple(links), coords=coords
        ))
        all_paths = enumerate_paths(net, ((0, 0), (2, 2)))
        one_turn = enumerate_paths(net, ((0, 0), (2, 2)), max_turns=1)
        assert len(all_paths) == 6
        assert len(one_turn) == 2

    def test_canonical_order_sorts_by_od_then_size(self, fig1):
        shuffled = list(fig1.table.paths)[::-1]
        ordered = canonical_order(shuffled, fig1.table.od_pairs)
        by_od = [p.od for p in ordered]
        assert by_od == sorted(by_od, key=fig1.table.od_index.__getitem__)
        # within OD (1, 3) the single-link path comes first
        od13 = [p.links for p in ordered if p.od == (1, 3)]
        assert od13 == [("l1-3",), ("l1-2", "l2-3")]


class TestStaticIncidence:
    def test_triangle_matrix_exact(self, fig1):
        ms = build_static_incidence(
            fig1.table, [l.id for l in fig1.network.links], fig1.network
        )
        assert np.array_equal(ms.matrix, TRIANGLE_MATRIX)
        assert ms.mode == "static"
        assert ms.col_labels == tuple(range(7))

    def test_fourzone_matrix_exact(self, fig2):
        ms = build_static_incidence(
            fig2.table, [l.id for l in fig2.network.links], fig2.network
        )
        assert np.array_equal(ms.matrix, FOURZONE_MATRIX)

    def test_single_path_single_link(self, fig1):
        table = PathTable.from_paths([Path((1, 2), ("l1-2",))])
        ms = build_static_incidence(table, ["l1-2"])
        assert ms.matrix.shape == (1, 1) and ms.matrix[0, 0] == 1.0

    def test_row_order_follows_measured_links(self, fig1):
        ms = build_static_incidence(fig1.table, ["l3-1", "l1-2"], fig1.network)
        assert np.array_equal(ms.matrix[0], TRIANGLE_MATRIX[3])
        assert np.array_equal(ms.matrix[1], TRIANGLE_MATRIX[0])

    def test_useless_row_rejected(self, fig1):
        table = PathTable.from_paths([Path((1, 2), ("l1-2",))])
        with pytest.raises(UselessRowError):
            build_static_incidence(table, ["l1-2", "l2-3"])

    def test_unknown_link_rejected(self, fig1):
        with pytest.raises(UnknownLinkError):
            build_static_incidence(fig1.table, ["nope"], fig1.network)

    def test_empty_measured_rejected(self, fig1):
        with pytest.raises(NetworkError):
            build_static_incidence(fig1.table, [])

    def test_matrix_is_binary_with_correct_column_sums(self, fig2):
        measured = [l.id for l in fig2.network.links]
        ms = build_static_incidence(fig2.table, measured, fig2.network)
        assert set(np.unique(ms.matrix)) <= {0.0, 1.0}
        for n, p in enumerate(fig2.table.paths):
            on_measured = sum(1 for lid in p.links if lid in set(measured))
            assert ms.matrix[:, n].sum() == on_measured

    def test_simulation_oracle_static(self, fig2):
        rng = np.random.default_rng(5)
        measured = [l.id for l in fig2.network.links][:6]
        ms = build_static_incidence(fig2.table, measured, fig2.network)
        for _ in range(20):
            x = rng.integers(0, 7, size=14).astype(float)
            simulated = simulate_static_counts(fig2.network, fig2.table, measured, x)
            assert np.array_equal(ms.matrix @ x, simulated)


class TestStaticIncidenceParity:
    """The incidence built from the table's cached link rows has the bytes
    of the entry-by-entry construction."""

    @pytest.mark.parametrize("name", ["fig1", "fig2", "nguyen"])
    def test_matches_oracle(self, name):
        bundle = get_fixture(name)
        ids = list(bundle.network.link_ids)
        rng = np.random.default_rng(3)
        orders = [ids, ids[::-1], [ids[0], ids[-1], ids[0]]] + [
            [ids[i] for i in rng.choice(len(ids), int(rng.integers(1, len(ids) + 1)),
                                        replace=False)]
            for _ in range(20)
        ]
        for measured in orders:
            ms = build_static_incidence(bundle.table, measured, bundle.network)
            want = static_incidence_oracle(bundle.table, measured)
            assert ms.matrix.dtype == want.dtype and ms.matrix.shape == want.shape
            assert ms.matrix.tobytes() == want.tobytes()
            assert ms.row_labels == tuple(measured)
            assert not ms.matrix.flags.writeable

    def test_cached_rows_are_read_only(self, fig2):
        row_of, rows = fig2.table.link_incidence
        assert not rows.flags.writeable
        assert fig2.table.link_incidence[1] is rows
        ms = build_static_incidence(fig2.table, list(row_of), fig2.network)
        assert not np.shares_memory(ms.matrix, rows)

    def test_first_useless_row_named(self):
        table = PathTable.from_paths([Path((1, 2), ("l1-2",))])
        with pytest.raises(UselessRowError, match="'l2-3'"):
            build_static_incidence(table, ["l1-2", "l2-3", "l3-1"])

    def test_unknown_link_checked_first(self, fig1):
        table = PathTable.from_paths([Path((1, 2), ("l1-2",))])
        with pytest.raises(UnknownLinkError, match="'nope'"):
            build_static_incidence(table, ["l2-3", "nope"], fig1.network)


class TestPrefixDelay:
    def test_second_link_unit_times(self, fig1):
        p = Path((3, 2), ("l3-1", "l1-2"))
        assert path_prefix_delay(p, "l1-2", fig1.network) == 1

    def test_first_link_zero(self, fig1):
        p = Path((3, 2), ("l3-1", "l1-2"))
        assert path_prefix_delay(p, "l3-1", fig1.network) == 0

    def test_mixed_travel_times(self):
        net = validate_network(Network(
            nodes=(1, 2, 3, 4),
            links=(Link("a", 1, 2, travel_time=2),
                   Link("b", 2, 3, travel_time=3),
                   Link("c", 3, 4, travel_time=1)),
        ))
        p = Path((1, 4), ("a", "b", "c"))
        assert path_prefix_delay(p, "c", net) == 5

    def test_link_not_on_path(self, fig1):
        p = Path((3, 2), ("l3-1", "l1-2"))
        with pytest.raises(LinkNotOnPathError):
            path_prefix_delay(p, "l2-3", fig1.network)


class TestPathLengths:
    def test_sums_link_lengths(self):
        net = validate_network(Network(
            nodes=(1, 2, 3),
            links=(Link("a", 1, 2, length=0.5), Link("b", 2, 3, length=2.25),
                   Link("c", 1, 3, length=4.0)),
        ))
        table = PathTable.from_paths([Path((1, 3), ("a", "b")), Path((1, 3), ("c",))])
        assert path_lengths(net, table).tolist() == [2.75, 4.0]

    def test_unit_lengths_count_links(self, nguyen):
        lengths = path_lengths(nguyen.network, nguyen.table)
        assert lengths.tolist() == [len(p.links) for p in nguyen.table.paths]


class TestDynamicSystem:
    def test_triangle_single_time_pattern(self, fig1):
        measured = [l.id for l in fig1.network.links]
        ms = build_dynamic_system(fig1.table, fig1.network, measured, [0])
        assert ms.matrix.shape == (4, 10)
        assert set(ms.col_labels) == set(TRIANGLE_DYNAMIC_COLUMNS)
        for j, label in enumerate(ms.col_labels):
            assert list(ms.matrix[:, j]) == TRIANGLE_DYNAMIC_COLUMNS[label]

    def test_zero_travel_times_collapse_to_static(self, fig1):
        links = tuple(
            Link(l.id, l.tail, l.head, l.length, travel_time=0)
            for l in fig1.network.links
        )
        net0 = validate_network(Network(nodes=fig1.network.nodes, links=links))
        measured = [l.id for l in net0.links]
        dyn = build_dynamic_system(fig1.table, net0, measured, [0])
        static = build_static_incidence(fig1.table, measured, net0)
        assert dyn.col_labels == tuple((n, 0) for n in range(7))
        assert np.array_equal(dyn.matrix, static.matrix)

    def test_two_count_times_by_simulation(self):
        net = validate_network(Network(
            nodes=(1, 2, 3),
            links=(Link("a", 1, 2, travel_time=1), Link("b", 2, 3, travel_time=1)),
        ))
        table = PathTable.from_paths([Path((1, 3), ("a", "b"))])
        ms = build_dynamic_system(table, net, ["a", "b"], [0, 1])
        assert ms.matrix.shape == (4, 3)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.integers(0, 5, size=ms.n_cols).astype(float)
            simulated = simulate_dynamic_counts(
                net, table, ms.row_labels, ms.col_labels, x
            )
            assert np.array_equal(ms.matrix @ x, simulated)

    def test_simulation_oracle_random_instances(self, fig1):
        rng = np.random.default_rng(9)
        measured = [l.id for l in fig1.network.links]
        ms = build_dynamic_system(fig1.table, fig1.network, measured, [0, 1, 2])
        for _ in range(20):
            x = rng.integers(0, 4, size=ms.n_cols).astype(float)
            simulated = simulate_dynamic_counts(
                fig1.network, fig1.table, ms.row_labels, ms.col_labels, x
            )
            assert np.array_equal(ms.matrix @ x, simulated)

    def test_empty_window_rejected(self, fig1):
        with pytest.raises(EmptyWindowError):
            build_dynamic_system(fig1.table, fig1.network, ["l1-2"], [])

    def test_departures_before_window_kept(self, fig1):
        measured = [l.id for l in fig1.network.links]
        ms = build_dynamic_system(fig1.table, fig1.network, measured, [0])
        departures = {dep for (_, dep) in ms.col_labels}
        assert -1 in departures


class TestSplitColumnLabels:
    def test_static_labels_are_paths(self, fig2):
        ms = build_static_incidence(fig2.table, list(fig2.network.link_ids))
        paths, departures = split_column_labels(ms.col_labels)
        assert paths.tolist() == list(range(14))
        assert departures is None

    def test_dynamic_labels_split(self, fig1):
        measured = [l.id for l in fig1.network.links]
        ms = build_dynamic_system(fig1.table, fig1.network, measured, [0])
        paths, departures = split_column_labels(ms.col_labels)
        assert list(zip(paths.tolist(), departures.tolist())) == list(ms.col_labels)


class TestDecodeAllocation:
    def test_split_recovery(self, fig1):
        x = np.zeros(7)
        x[1], x[2] = 3.0, 1.0
        decoded = decode_allocation(x, fig1.table)
        assert decoded.od_flows[1] == pytest.approx(4.0)
        assert decoded.splits[1] == pytest.approx(0.75)
        assert decoded.splits[2] == pytest.approx(0.25)

    def test_zero_allocation(self, fig1):
        decoded = decode_allocation(np.zeros(7), fig1.table)
        assert decoded.od_flows == (0.0,) * 6
        assert decoded.splits == {}

    def test_singleton_od_forces_unit_split(self, fig1):
        x = np.zeros(7)
        x[0] = 7.0
        decoded = decode_allocation(x, fig1.table)
        assert decoded.od_flows[0] == 7.0
        assert decoded.splits[0] == 1.0

    def test_negative_entry_rejected(self, fig1):
        with pytest.raises(NegativeEntryError):
            decode_allocation([-1.0] + [0.0] * 6, fig1.table)

    def test_splits_sum_to_one_per_touched_od(self, fig2):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 10.0, size=14)
        decoded = decode_allocation(x, fig2.table)
        for k, group in enumerate(fig2.table.paths_by_od):
            if decoded.od_flows[k] > 0:
                assert sum(decoded.splits[n] for n in group) == pytest.approx(1.0)

    def test_od_flows_match_per_path_loop(self, nguyen):
        # reference: the per-path loop, summing in path order
        rng = np.random.default_rng(21)
        for _ in range(20):
            x = np.where(rng.random(66) < 0.5, rng.uniform(0.0, 100.0, 66), 0.0)
            want = [0.0] * nguyen.table.n_od_pairs
            for n, k in enumerate(nguyen.table.od_of_path):
                want[k] += float(x[n])
            assert decode_allocation(x, nguyen.table).od_flows == tuple(want)

    @given(st.lists(st.floats(0.0, 1e6), min_size=7, max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_decode_reencode_roundtrip(self, values):
        table = get_table()
        x = np.asarray(values)
        decoded = decode_allocation(x, table)
        rebuilt = np.zeros_like(x)
        for n, k in enumerate(table.od_of_path):
            if decoded.od_flows[k] > 0:
                rebuilt[n] = decoded.splits[n] * decoded.od_flows[k]
        assert np.allclose(rebuilt, x, rtol=1e-12, atol=1e-9)


def get_table():
    from odflow import get_fixture

    return get_fixture("fig1").table


class TestPathTable:
    def test_od_pair_without_path_rejected(self, fig1):
        with pytest.raises(NetworkError):
            PathTable.from_paths(
                [Path((1, 2), ("l1-2",))], od_pairs=[(1, 2), (1, 3)]
            )

    def test_path_with_undeclared_od_rejected(self, fig1):
        with pytest.raises(NetworkError):
            PathTable.from_paths(
                [Path((1, 2), ("l1-2",)), Path((1, 3), ("l1-3",))],
                od_pairs=[(1, 2)],
            )

    def test_construction_order_is_preserved(self, fig2):
        assert fig2.table.paths[1].links == ("l3-2", "l2-1")
        assert fig2.table.paths[2].links == ("l3-2", "l2-4", "l4-1")

import pytest

from odflow import enumerate_paths, get_fixture, path_lengths, validate_network, validate_path
from odflow.fixtures import NGUYEN_EDGES, NGUYEN_MAX_LINKS


class TestFixtureIntegrity:
    def test_names(self):
        with pytest.raises(KeyError):
            get_fixture("nope")

    @pytest.mark.parametrize("name", ["fig1", "fig2", "nguyen"])
    def test_networks_validate(self, name):
        bundle = get_fixture(name)
        assert validate_network(bundle.network) is bundle.network
        for p in bundle.table.paths:
            validate_path(bundle.network, p)

    def test_fig1_shape(self, fig1):
        assert len(fig1.network.nodes) == 3
        assert len(fig1.network.links) == 4
        assert fig1.table.n_od_pairs == 6
        assert fig1.table.n_paths == 7
        # exactly one OD pair owns two paths
        sizes = sorted(len(g) for g in fig1.table.paths_by_od)
        assert sizes == [1, 1, 1, 1, 1, 2]

    def test_fig2_shape(self, fig2):
        assert len(fig2.network.nodes) == 4
        assert len(fig2.network.links) == 10
        assert fig2.table.n_od_pairs == 3
        assert fig2.table.n_paths == 14
        sizes = [len(g) for g in fig2.table.paths_by_od]
        assert sizes == [5, 4, 5]

    def test_nguyen_shape(self, nguyen):
        assert len(nguyen.network.nodes) == 13
        assert len(nguyen.network.links) == 38
        assert nguyen.table.n_od_pairs == 8
        assert nguyen.table.n_paths == 66

    def test_nguyen_links_are_edge_reversals(self, nguyen):
        pairs = {(l.tail, l.head) for l in nguyen.network.links}
        for a, b in NGUYEN_EDGES:
            assert (a, b) in pairs and (b, a) in pairs
        assert len(pairs) == 38

    def test_nguyen_reverse_od_symmetry(self, nguyen):
        # reversing every link maps the path set of (o, d) onto (d, o)
        by_od = {}
        for p in nguyen.table.paths:
            by_od.setdefault(p.od, set()).add(p.links)

        def reverse(links):
            rev = []
            for lid in reversed(links):
                tail, head = lid[1:].split("-")
                rev.append(f"l{head}-{tail}")
            return tuple(rev)

        for (o, d), paths in by_od.items():
            assert {reverse(p) for p in paths} == by_od[(d, o)]

    def test_nguyen_catalog_matches_enumeration(self, nguyen):
        regenerated = []
        for od in nguyen.table.od_pairs:
            regenerated.extend(
                enumerate_paths(nguyen.network, od, max_links=NGUYEN_MAX_LINKS)
            )
        assert tuple(regenerated) == nguyen.table.paths

    def test_unit_lengths_and_travel_times(self, nguyen):
        assert all(l.length == 1.0 for l in nguyen.network.links)
        assert all(l.travel_time == 1 for l in nguyen.network.links)

    @pytest.mark.parametrize("name", ["fig1", "fig2", "nguyen"])
    def test_path_lengths_cached_read_only(self, name):
        bundle = get_fixture(name)
        lengths = bundle.path_lengths
        assert lengths is bundle.path_lengths
        assert lengths.tobytes() == path_lengths(bundle.network, bundle.table).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            lengths[0] = 2.0

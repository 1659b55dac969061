import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from odflow import (
    Link,
    Network,
    PathTable,
    build_static_incidence,
    estimate_l1,
    get_fixture,
    validate_network,
)
from odflow.fileio import (
    FileFormatError,
    Measurements,
    dump_json,
    load_manifest,
    load_measurements,
    load_network,
    load_numbers,
    load_paths,
    result_to_dict,
    save_measurements,
    save_network,
    save_paths,
    write_csv,
    write_manifest,
)
from odflow.network import NetworkError
from oracles import json_text_oracle


@pytest.fixture(params=["fig1", "fig2", "nguyen"])
def bundle(request):
    return get_fixture(request.param)


class TestNetworkRoundTrip:
    def test_round_trip(self, bundle, tmp_path):
        path = tmp_path / "net.json"
        save_network(bundle.network, path)
        loaded = load_network(path)
        assert loaded.nodes == bundle.network.nodes
        assert loaded.links == bundle.network.links

    def test_coords_round_trip(self, tmp_path):
        net = validate_network(Network(
            nodes=(1, 2),
            links=(Link("a", 1, 2),),
            coords={1: (0.0, 0.0), 2: (1.0, 2.0)},
        ))
        path = tmp_path / "net.json"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.coords == {1: (0.0, 0.0), 2: (1.0, 2.0)}

    def test_malformed_network_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nodes": [1, 2]}')
        with pytest.raises(FileFormatError):
            load_network(path)
        path.write_text("not json")
        with pytest.raises(FileFormatError):
            load_network(path)

    def test_invalid_network_rejected(self, tmp_path):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps({
            "nodes": [1],
            "links": [{"id": "a", "tail": 1, "head": 1}],
        }))
        from odflow.network import SelfLoopError

        with pytest.raises(SelfLoopError):
            load_network(path)

    def write_link(self, tmp_path, text):
        """A two-node network file whose one link has the fields ``text``."""
        path = tmp_path / "net.json"
        path.write_text(
            '{"nodes": [1, 2], "links": [{"id": "a", "tail": 1, "head": 2, %s}]}' % text)
        return path

    def test_fractional_travel_time_rejected(self, tmp_path):
        with pytest.raises(FileFormatError, match="travel_time 2.9"):
            load_network(self.write_link(tmp_path, '"travel_time": 2.9'))

    def test_integral_float_travel_time_accepted(self, tmp_path):
        net = load_network(self.write_link(tmp_path, '"travel_time": 2.0'))
        assert net.links[0].travel_time == 2
        assert isinstance(net.links[0].travel_time, int)

    @pytest.mark.parametrize("length", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_length_rejected(self, tmp_path, length):
        # Python's json reads NaN and Infinity as floats
        with pytest.raises(NetworkError, match="finite"):
            load_network(self.write_link(tmp_path, f'"length": {length}'))

    @pytest.mark.parametrize("source,field,value", [
        ("file", "length", "true"), ("file", "travel_time", "true"),
        ("file", "length", '"2"'), ("file", "travel_time", '"2"'),
        ("api", "length", True), ("api", "travel_time", True), ("api", "length", "2"),
    ])
    def test_length_and_travel_time_must_be_numbers(self, tmp_path, source, field, value):
        # float() and int() take a bool or a numeric string
        if source == "file":
            with pytest.raises(FileFormatError, match=field):
                load_network(self.write_link(tmp_path, f'"{field}": {value}'))
        else:
            net = Network(nodes=(1, 2), links=(Link("a", 1, 2, **{field: value}),))
            with pytest.raises(NetworkError, match=field):
                validate_network(net)


class TestPathsRoundTrip:
    def test_round_trip(self, bundle, tmp_path):
        path = tmp_path / "paths.json"
        save_paths(bundle.table.paths, path)
        loaded = load_paths(path, bundle.network)
        assert loaded == bundle.table.paths
        table = PathTable.from_paths(loaded)
        assert table.od_pairs == bundle.table.od_pairs

    def test_validation_against_network(self, fig1, tmp_path):
        path = tmp_path / "paths.json"
        path.write_text(json.dumps([{"od": [1, 3], "links": ["nope"]}]))
        from odflow.network import UnknownLinkError

        with pytest.raises(UnknownLinkError):
            load_paths(path, fig1.network)

    def test_malformed_paths_rejected(self, tmp_path):
        path = tmp_path / "paths.json"
        path.write_text('{"a": 1}')
        with pytest.raises(FileFormatError):
            load_paths(path)

    @pytest.mark.parametrize("entry,bad", [
        ({"od": [[1], 3], "links": ["a"]}, "[1]"),
        ({"od": [1, None], "links": ["a"]}, "None"),
        ({"od": [1, 3], "links": ["a", ["b"]]}, "['b']"),
        ({"od": [1, 3], "links": [1.5]}, "1.5"),
    ], ids=["od-list", "od-null", "link-list", "link-float"])
    def test_ids_checked_without_a_network(self, tmp_path, entry, bad):
        # a list id loaded, then failed unhashable in PathTable.from_paths
        path = tmp_path / "paths.json"
        path.write_text(json.dumps([{"od": [1, 3], "links": ["a"]}, entry]))
        with pytest.raises(FileFormatError, match=re.escape(f"has id {bad},")):
            load_paths(path)


class TestMeasurements:
    def test_static_round_trip(self, tmp_path):
        meas = Measurements(
            kind="static",
            row_labels=("l1-2", "l3-1"),
            counts=(4.0, 1.5),
        )
        path = tmp_path / "m.csv"
        save_measurements(meas, path)
        loaded = load_measurements(path)
        assert loaded == meas

    def test_dynamic_round_trip(self, tmp_path):
        meas = Measurements(
            kind="dynamic",
            row_labels=(("l1-2", 0), ("l1-2", 1), ("l3-1", 0)),
            counts=(4.0, 0.0, 2.25),
        )
        path = tmp_path / "m.csv"
        save_measurements(meas, path)
        assert load_measurements(path) == meas

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(FileFormatError):
            load_measurements(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("link_id,count\nl1-2,abc\n")
        with pytest.raises(FileFormatError):
            load_measurements(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(FileFormatError):
            load_measurements(path)


class TestReadDoor:
    """Every loader reads its file through ``fileio._read``, so a file that
    is missing or not text is a ``FileFormatError`` naming it; a count
    file of bad bytes raised a bare ``UnicodeDecodeError``."""

    @pytest.mark.parametrize("load", [
        load_network, load_paths, load_measurements, load_manifest,
        lambda path: load_numbers(path, "weights", 3),
    ], ids=["network", "paths", "measurements", "manifest", "numbers"])
    @pytest.mark.parametrize("content", [None, b"\xff"], ids=["missing", "not-utf8"])
    def test_unreadable_file_named(self, tmp_path, load, content):
        path = tmp_path / "input"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(FileFormatError) as info:
            load(path)
        assert str(path) in str(info.value)


class TestResultSerialization:
    def test_result_dict_schema(self, fig2):
        ms = build_static_incidence(
            fig2.table, [l.id for l in fig2.network.links], fig2.network
        )
        x = np.zeros(14)
        x[1] = 10.0
        res = estimate_l1(ms, ms.matrix @ x)
        payload = result_to_dict(res)
        assert payload["method"] == "l1"
        assert payload["status"] == "optimal"
        assert len(payload["allocation"]) == 14
        assert payload["allocation"][1]["flow"] == pytest.approx(10.0)
        assert payload["od_flows"][0] == {"od": [3, 1], "flow": 10.0}
        assert payload["sparsity"] == 1

    def test_twelve_digit_rendering(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ("a", "b"), [(1 / 3, 2), (math.nan, math.inf), (-math.inf, -math.nan)])
        text = path.read_text()
        assert text == "a,b\n0.333333333333,2\nnan,inf\n-inf,nan\n"


class TestManifest:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "result.json"
        out.write_text("{}")
        manifest_path = write_manifest(
            out,
            command="estimate",
            argv=["estimate", "--output", str(out)],
            seed=7,
            inputs={"network": "fig1"},
            outputs=[str(out)],
        )
        manifest = load_manifest(manifest_path)
        assert manifest["command"] == "estimate"
        assert manifest["argv"][0] == "estimate"
        assert manifest["seed"] == 7
        assert "created_utc" in manifest

    def test_missing_argv_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{}")
        with pytest.raises(FileFormatError):
            load_manifest(path)


# Strings with non-ASCII characters, quotes, backslashes and control
# characters; floats at every edge json writes.
_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\u2028é')))
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 1e-15, 1e15]),
)
_PAYLOADS = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, _TEXT),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_TEXT, kids, max_size=4),
    ),
    max_leaves=24,
)


class TestJsonWriter:
    """``dump_json`` writes the bytes of ``json``'s own encoder over a
    12-significant-digit copy of its data (``oracles.json_text_oracle``)."""

    @settings(max_examples=300, deadline=None)
    @given(data=_PAYLOADS)
    def test_matches_json(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "payload.json"
        dump_json(data, path)
        assert path.read_bytes() == json_text_oracle(data).encode("ascii")

    def test_saved_network_and_paths(self, bundle, tmp_path, json_writes):
        net = validate_network(Network(
            nodes=(1, 2, "é"),
            links=(Link("a", 1, 2, length=1 / 3), Link('b"\\', 2, "é", length=1e-15)),
            coords={1: (-0.0, 2 / 3), 2: (1e15 + 0.5, 5e-324), "é": (math.pi, 1e308)},
        ))
        save_network(net, tmp_path / "coords.json")
        save_network(bundle.network, tmp_path / "net.json")
        save_paths(bundle.table.paths, tmp_path / "paths.json")
        assert len(json_writes) == 3
        for path, text in json_writes:
            assert path.read_bytes() == text.encode("ascii")

    @pytest.mark.parametrize("data", [
        {"x": [np.int64(1)]}, {"x": {1, 2}}, np.float32(1.0), {1: "a"},
    ])
    def test_other_types_rejected(self, tmp_path, data):
        path = tmp_path / "x.json"
        with pytest.raises(TypeError):
            dump_json(data, path)
        assert not path.exists()

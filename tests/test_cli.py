import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from odflow import (
    PathTable,
    __version__,
    build_dynamic_system,
    build_static_incidence,
    experiments,
    fileio,
    path_lengths,
)
from odflow import cli
from odflow.cli import main
from odflow.fixtures import SIX_LINKS_A
from odflow.network import NetworkError
from oracles import grid_rows


def write_counts(path, links, counts):
    lines = ["link_id,count"] + [f"{l},{c}" for l, c in zip(links, counts)]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture()
def demo_counts(tmp_path, fig2):
    """Counts of the bundled 4-sparse demo over its six-link set."""
    ms = build_static_incidence(fig2.table, SIX_LINKS_A, fig2.network)
    x = np.zeros(14)
    x[1], x[7], x[10], x[13] = 10.0, 20.0, 10.0, 30.0
    y = ms.matrix @ x
    counts = tmp_path / "counts.csv"
    write_counts(counts, SIX_LINKS_A, y)
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps(list(x)))
    return counts, truth, x


class TestEnumerate:
    def test_triangle_seven_paths(self, tmp_path, capsys):
        out = tmp_path / "paths.json"
        rc = main([
            "enumerate", "--network", "fig1",
            "--od", "1,2", "--od", "1,3", "--od", "2,1",
            "--od", "2,3", "--od", "3,1", "--od", "3,2",
            "--output", str(out),
        ])
        assert rc == 0
        assert "paths=7" in capsys.readouterr().out
        assert len(json.loads(out.read_text())) == 7
        assert (tmp_path / "paths.json.manifest.json").exists()

    def test_disconnected_od_fails_with_parse_code(self, tmp_path):
        net = tmp_path / "net.json"
        net.write_text(json.dumps({
            "nodes": [1, 2, 3],
            "links": [{"id": "a", "tail": 1, "head": 2}],
        }))
        rc = main([
            "enumerate", "--network", str(net), "--od", "1,3",
            "--output", str(tmp_path / "p.json"),
        ])
        assert rc == 3

    def test_filters_excluding_everything_warn(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        rc = main([
            "enumerate", "--network", "fig1", "--od", "2,1",
            "--max-links", "1", "--output", str(out),
        ])
        assert rc == 0
        assert "excluded" in capsys.readouterr().err
        assert json.loads(out.read_text()) == []


class TestEstimate:
    def test_l1_end_to_end_recovery(self, tmp_path, demo_counts, capsys):
        counts, truth, _ = demo_counts
        out = tmp_path / "result.json"
        rc = main([
            "estimate", "--network", "fig2", "--paths", "fig2",
            "--measurements", str(counts), "--method", "l1",
            "--truth", str(truth), "--output", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["recovery"]["exact"] is True
        assert payload["sparsity"] == 4

    def test_l2_not_exact(self, tmp_path, demo_counts):
        counts, truth, _ = demo_counts
        out = tmp_path / "result.json"
        rc = main([
            "estimate", "--network", "fig2", "--paths", "fig2",
            "--measurements", str(counts), "--method", "l2",
            "--truth", str(truth), "--output", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["recovery"]["exact"] is False
        assert payload["recovery"]["relative_error"] > 0.1

    def test_zero_counts_zero_allocation(self, tmp_path):
        counts = tmp_path / "counts.csv"
        write_counts(counts, SIX_LINKS_A, [0.0] * 6)
        out = tmp_path / "result.json"
        rc = main([
            "estimate", "--network", "fig2", "--paths", "fig2",
            "--measurements", str(counts), "--method", "l1",
            "--output", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert all(entry["flow"] == 0.0 for entry in payload["allocation"])

    def test_missing_delta_is_usage_error(self, tmp_path, demo_counts):
        counts, _, _ = demo_counts
        rc = main([
            "estimate", "--network", "fig2", "--paths", "fig2",
            "--measurements", str(counts), "--method", "l1-noisy",
            "--output", str(tmp_path / "r.json"),
        ])
        assert rc == 2

    def test_negative_delta_is_usage_error(self, tmp_path, demo_counts):
        counts, _, _ = demo_counts
        rc = main([
            "estimate", "--network", "fig2", "--paths", "fig2",
            "--measurements", str(counts), "--method", "l1-noisy",
            "--delta", "-1", "--output", str(tmp_path / "r.json"),
        ])
        assert rc == 2

    def test_infeasible_counts_exit_code(self, tmp_path):
        counts = tmp_path / "counts.csv"
        write_counts(counts, ["l1-3", "l3-2"], [5.0, 0.0])
        rc = main([
            "estimate", "--network", "fig2", "--paths", "fig2",
            "--measurements", str(counts), "--method", "l1",
            "--output", str(tmp_path / "r.json"),
        ])
        assert rc == 4

    def test_weighted_needs_weights(self, tmp_path, demo_counts):
        counts, _, _ = demo_counts
        rc = main([
            "estimate", "--network", "fig2", "--paths", "fig2",
            "--measurements", str(counts), "--method", "weighted",
            "--output", str(tmp_path / "r.json"),
        ])
        assert rc == 2

    def test_weighted_with_file(self, tmp_path, demo_counts):
        counts, truth, _ = demo_counts
        weights = tmp_path / "w.json"
        lam = [1.0] * 14
        for i in (1, 7, 10, 13):
            lam[i] = 0.1
        weights.write_text(json.dumps(lam))
        out = tmp_path / "r.json"
        rc = main([
            "estimate", "--network", "fig2", "--paths", "fig2",
            "--measurements", str(counts), "--method", "weighted",
            "--weights", str(weights), "--truth", str(truth),
            "--output", str(out),
        ])
        assert rc == 0
        assert json.loads(out.read_text())["recovery"]["exact"] is True

    def test_reweighted(self, tmp_path, demo_counts):
        counts, truth, _ = demo_counts
        out = tmp_path / "r.json"
        rc = main([
            "estimate", "--network", "fig2", "--paths", "fig2",
            "--measurements", str(counts), "--method", "reweighted",
            "--iters", "3", "--truth", str(truth), "--output", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["objective_trace"]) == 3

    def test_dynamic_measurement_file(self, tmp_path, fig1):
        from odflow import build_dynamic_system

        measured = [l.id for l in fig1.network.links]
        ms = build_dynamic_system(fig1.table, fig1.network, grid_rows(measured, [0, 1]))
        x = np.zeros(ms.n_cols)
        x[ms.col_labels.index((1, 0))] = 6.0
        y = ms.matrix @ x
        counts = tmp_path / "dyn.csv"
        lines = ["link_id,time,count"]
        for (lid, t), c in zip(ms.row_labels, y):
            lines.append(f"{lid},{t},{c}")
        counts.write_text("\n".join(lines) + "\n")
        out = tmp_path / "r.json"
        rc = main([
            "estimate", "--network", "fig1", "--paths", "fig1",
            "--measurements", str(counts), "--method", "l1",
            "--dynamic", "--output", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        flows = {tuple(e["od"]): e["flow"] for e in payload["od_flows"]}
        assert flows[(1, 3)] == pytest.approx(6.0, abs=1e-8)
        assert any("departure" in e for e in payload["allocation"])

    def test_bad_file_is_parse_error(self, tmp_path):
        rc = main([
            "estimate", "--network", "missing.json", "--paths", "fig2",
            "--measurements", "missing.csv", "--method", "l1",
            "--output", str(tmp_path / "r.json"),
        ])
        assert rc == 3

    def test_file_ingestion_at_case_study_scale(self, tmp_path, nguyen):
        # 10 counted links against a 33-path catalog, everything from files
        from odflow.fileio import save_network, save_paths

        paths = nguyen.table.paths[:33]
        table = PathTable.from_paths(paths)
        net_file = tmp_path / "net.json"
        paths_file = tmp_path / "paths.json"
        save_network(nguyen.network, net_file)
        save_paths(paths, paths_file)

        rng = np.random.default_rng(33)
        x = np.zeros(33)
        x[rng.choice(33, size=4, replace=False)] = rng.uniform(5.0, 50.0, 4)
        covered = sorted({lid for p in paths for lid in p.links})
        measured = [covered[i] for i in sorted(rng.permutation(len(covered))[:10])]
        ms = build_static_incidence(table, measured, nguyen.network)
        counts = tmp_path / "counts.csv"
        write_counts(counts, measured, ms.matrix @ x)

        out = tmp_path / "r.json"
        rc = main([
            "estimate", "--network", str(net_file), "--paths", str(paths_file),
            "--measurements", str(counts), "--method", "l1",
            "--output", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["allocation"]) == 33
        assert payload["status"] == "optimal"


class TestVmt:
    def test_unit_lengths_pinned_instance(self, tmp_path, fig1, capsys):
        links = [l.id for l in fig1.network.links]
        ms = build_static_incidence(fig1.table, links, fig1.network)
        x = np.zeros(7)
        x[5] = 7.0
        counts = tmp_path / "counts.csv"
        write_counts(counts, links, ms.matrix @ x)
        out = tmp_path / "vmt.json"
        rc = main([
            "vmt", "--network", "fig1", "--paths", "fig1",
            "--measurements", str(counts), "--unit", "--output", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["vmt_lower"] == pytest.approx(7.0, abs=1e-3)
        assert payload["vmt_upper"] == pytest.approx(7.0, abs=1e-3)

    def test_lengths_source_required(self, tmp_path, demo_counts):
        counts, _, _ = demo_counts
        rc = main([
            "vmt", "--network", "fig2", "--paths", "fig2",
            "--measurements", str(counts), "--output", str(tmp_path / "v.json"),
        ])
        assert rc == 2

    def test_unbounded_exit_code(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        write_counts(counts, ["l1-3", "l4-3"], [0.0, 0.0])
        rc = main([
            "vmt", "--network", "fig2", "--paths", "fig2",
            "--measurements", str(counts), "--unit",
            "--output", str(tmp_path / "v.json"),
        ])
        assert rc == 4
        assert "unbounded" in capsys.readouterr().err

    def test_link_lengths(self, tmp_path, fig2):
        links = [l.id for l in fig2.network.links]
        ms = build_static_incidence(fig2.table, links, fig2.network)
        x = np.zeros(14)
        x[1], x[7] = 5.0, 2.0
        counts = tmp_path / "counts.csv"
        write_counts(counts, links, ms.matrix @ x)
        out = tmp_path / "v.json"
        rc = main([
            "vmt", "--network", "fig2", "--paths", "fig2",
            "--measurements", str(counts), "--link-lengths",
            "--output", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        true_value = 2 * 5.0 + 3 * 2.0  # link counts of paths 1 and 7
        assert payload["vmt_lower"] <= true_value + 1e-6
        assert payload["vmt_upper"] >= true_value - 1e-6

    @pytest.mark.parametrize("name,lengths,said", [
        ("fig2", "--link-lengths", True), ("fig1", "--link-lengths", True),
        ("fig1", "--unit", False)])
    def test_identified_when_bounds_meet(self, tmp_path, request, capsys,
                                         name, lengths, said):
        # every link measured, 7 on paths 0 and 5: link-summed path lengths
        # lie in the row space, so the counts fix travel; fig1's unit
        # lengths do not (bounds 7 and 14)
        bundle = request.getfixturevalue(name)
        links = list(bundle.network.link_ids)
        ms = build_static_incidence(bundle.table, links, bundle.network)
        x = np.zeros(ms.n_cols)
        x[[0, 5]] = 7.0
        counts = tmp_path / "counts.csv"
        write_counts(counts, links, ms.matrix @ x)
        out = tmp_path / "v.json"
        rc = main(["vmt", "--network", name, "--paths", name,
                   "--measurements", str(counts), lengths, "--output", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert (payload["vmt_lower"] == payload["vmt_upper"]) is said
        assert (" identified -> " in capsys.readouterr().out) is said

    def test_dynamic_file_off_the_grid(self, tmp_path, fig2):
        # each link counted at only one of two times: 16 of the 44 columns
        # of the links x times grid cross no counted row, and their travel
        # would be unbounded; the file's own columns bound it exactly
        links = list(fig2.network.link_ids)
        rows = [(lid, 2 + i % 2) for i, lid in enumerate(links)]
        ms = build_dynamic_system(fig2.table, fig2.network, grid_rows(links, [2, 3])).subsystem(rows)
        observed = np.flatnonzero(ms.matrix.any(axis=0))
        assert (ms.n_cols, observed.size) == (44, 28)
        own = build_dynamic_system(fig2.table, fig2.network, rows)
        assert own.col_labels == tuple(ms.col_labels[j] for j in observed)
        x = np.zeros(ms.n_cols)
        x[observed[[0, 5, 10]]] = [20.0, 30.0, 40.0]
        counts = tmp_path / "dyn.csv"
        lines = ["link_id,time,count"]
        lines += [f"{lid},{t},{c}" for (lid, t), c in zip(rows, ms.matrix @ x)]
        counts.write_text("\n".join(lines) + "\n")
        common = ["--network", "fig2", "--paths", "fig2", "--measurements", str(counts)]
        out = tmp_path / "v.json"
        assert main(["vmt", *common, "--unit", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["vmt_lower"] == pytest.approx(90.0, rel=1e-9)
        assert payload["vmt_upper"] == pytest.approx(90.0, rel=1e-9)
        out = tmp_path / "r.json"
        assert main(["estimate", *common, "--method", "l1", "--output", str(out)]) == 0
        allocation = json.loads(out.read_text())["allocation"]
        assert len(allocation) == 28

    def test_saved_nguyen_counts_are_feasible(self, tmp_path, nguyen):
        # save_measurements keeps 12 significant digits; on this
        # rank-deficient system that rounding must not read as infeasible
        links = list(nguyen.network.link_ids)
        ms = build_static_incidence(nguyen.table, links, nguyen.network)
        rng = np.random.default_rng(1)
        x = np.zeros(ms.n_cols)
        for group in nguyen.table.paths_by_od:
            x[group[rng.integers(len(group))]] = rng.uniform(1.0, 100.0)
        counts = tmp_path / "counts.csv"
        fileio.save_measurements(
            fileio.Measurements("static", tuple(links), tuple(ms.matrix @ x)),
            counts,
        )
        out = tmp_path / "v.json"
        rc = main([
            "vmt", "--network", "nguyen", "--paths", "nguyen",
            "--measurements", str(counts), "--link-lengths",
            "--output", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["vmt_lower"] <= payload["vmt_upper"]


class TestIntegerLinkIds:
    """A network file may give JSON integer link ids; a count file names
    each link by its id as text."""

    LINKS = [{"id": 1, "tail": 1, "head": 2}, {"id": 2, "tail": 2, "head": 3},
             {"id": 3, "tail": 1, "head": 3}]

    def write_network(self, tmp_path, links):
        net = tmp_path / "net.json"
        net.write_text(json.dumps({"nodes": [1, 2, 3], "links": links}))
        return net

    @pytest.mark.parametrize("kind", ["static", "dynamic"])
    def test_count_files_name_integer_ids(self, tmp_path, kind):
        net_file = self.write_network(tmp_path, self.LINKS)
        paths_file = tmp_path / "paths.json"
        assert main(["enumerate", "--network", str(net_file), "--od", "1,3", "--od", "1,2",
                     "--output", str(paths_file)]) == 0
        net = fileio.load_network(net_file)
        table = PathTable.from_paths(fileio.load_paths(paths_file, net))
        if kind == "static":
            ms = build_static_incidence(table, [1, 2, 3], net)
        else:
            ms = build_dynamic_system(table, net, grid_rows([1, 2, 3], [0, 1]))
        x = np.linspace(2.0, 5.0, ms.n_cols)
        counts = tmp_path / "counts.csv"
        fileio.save_measurements(
            fileio.Measurements(kind, ms.row_labels, tuple(ms.matrix @ x)), counts)
        common = ["--network", str(net_file), "--paths", str(paths_file),
                  "--measurements", str(counts)]
        assert main(["estimate", *common, "--method", "l1",
                     "--output", str(tmp_path / "r.json")]) == 0
        assert main(["vmt", *common, "--unit", "--output", str(tmp_path / "v.json")]) == 0
        bounds = json.loads((tmp_path / "v.json").read_text())
        assert bounds["vmt_lower"] <= bounds["vmt_upper"]

    def test_ids_that_print_alike_rejected(self, tmp_path, capsys):
        links = self.LINKS[:2] + [{"id": "1", "tail": 1, "head": 3}]
        rc = main(["enumerate", "--network", str(self.write_network(tmp_path, links)),
                   "--od", "1,3", "--output", str(tmp_path / "p.json")])
        assert rc == 3
        assert "prints like" in capsys.readouterr().err


class TestSweepCommands:
    def test_sweep_and_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--fixture", "fig2", "--supports", "4,8,12",
            "--m-grid", "8:10", "--trials", "30", "--seed", "11",
            "--output", str(out),
        ])
        assert rc == 0
        rerun_dir = tmp_path / "again"
        rc = main([
            "rerun", str(out) + ".manifest.json",
            "--output-dir", str(rerun_dir),
        ])
        assert rc == 0
        assert (rerun_dir / "sweep.csv").read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("argv,digest", [
        (["sweep", "--fixture", "fig2", "--supports", "4,8,12;1,7,10,13",
          "--m-grid", "4:10"],
         "aade58792edc729004f6574f95ecb86e463dfae41719423dad6794cf215ec943"),
        (["vmt-sweep", "--fixture", "nguyen"],
         "dda7ec90f87dba6cc12d80db8f171f1d0951744800eda0f73b245da8658cde3d"),
        (["sweep", "--fixture", "fig2", "--sparsity", "3,4,5", "--m-grid", "5:10"],
         "f1731c410c668a9dfa76ac5c8ff805134291e5b64c3d039b00dc57e1fbfd571d"),
        (["noisy-cdf", "--fixture", "fig2", "--support", "4,8,12", "--nu", "0.1"],
         "8d69fa88767f59c3cb7e7cd24615dfb03e342c04cd15901ef14a933cf5566c4e"),
    ])
    def test_csv_digest_pinned(self, tmp_path, argv, digest):
        # The first two digests come from the simplex that factored the
        # basis afresh at every pivot and ran a separate phase 1 per program,
        # the other two from the sweeps that built an incidence per trial and
        # jumped a fresh Philox per substream; seeded sweeps must not move
        # when the LP layer or the trial scheme is reworked.
        out = tmp_path / "out.csv"
        rc = main(argv + ["--trials", "20", "--seed", "3", "--output", str(out)])
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_multi_stack_sweep_digest_pinned(self, tmp_path):
        # more trials than one stack of the stacked simplex holds, so each
        # spec's programs are solved in several stacks; the digest comes
        # from the sweep that solved one program at a time
        assert experiments._STACK_TRIALS < 100
        out = tmp_path / "out.csv"
        rc = main(["sweep", "--fixture", "fig2", "--sparsity", "2,3,4,5,6",
                   "--m-grid", "3:10", "--trials", "100", "--seed", "12",
                   "--output", str(out)])
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "a9789b6f056873836910011f2b4edb4f44b8732911a0490d730f745ef39cc696")

    def test_sweep_requires_exactly_one_mode(self, tmp_path):
        rc = main([
            "sweep", "--fixture", "fig2", "--m-grid", "8:10",
            "--trials", "5", "--output", str(tmp_path / "s.csv"),
        ])
        assert rc == 2
        rc = main([
            "sweep", "--fixture", "fig2", "--supports", "4,8,12",
            "--sparsity", "3", "--m-grid", "8:10", "--trials", "5",
            "--output", str(tmp_path / "s.csv"),
        ])
        assert rc == 2

    SWEEPS = [
        ["sweep", "--sparsity", "3"],
        ["noisy-cdf", "--support", "4,8,12", "--nu", "0.1"],
        ["vmt-sweep"],
    ]

    @pytest.mark.parametrize("trials", ["0", "-1"])
    @pytest.mark.parametrize("argv", SWEEPS)
    def test_trial_count_must_be_positive(self, tmp_path, capsys, argv, trials):
        # no trials used to divide by zero or index an empty sample, and
        # negative counts wrote rates of -0
        out = tmp_path / "out.csv"
        rc = main(argv + ["--trials", trials, "--output", str(out)])
        assert rc == 2
        assert "argument --trials" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("empty", ["", ","])
    @pytest.mark.parametrize("argv", [
        SWEEPS[0] + ["--m-grid"], SWEEPS[2] + ["--m-grid"], ["sweep", "--sparsity"],
    ])
    def test_empty_grid_is_usage_error(self, tmp_path, capsys, argv, empty):
        # these wrote a header-only CSV and exited 0
        out = tmp_path / "out.csv"
        rc = main(argv + [empty, "--trials", "2", "--output", str(out)])
        assert rc == 2
        assert f"argument {argv[-1]}: empty" in capsys.readouterr().err
        assert not out.exists()

    def test_noisy_cdf_csv(self, tmp_path):
        out = tmp_path / "cdf.csv"
        rc = main([
            "noisy-cdf", "--fixture", "fig2", "--support", "4,8,12",
            "--nu", "0.1", "--m", "10", "--trials", "20", "--seed", "3",
            "--output", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "method,error,cdf"
        assert len(lines) == 1 + 2 * 20

    def test_vmt_sweep_csv(self, tmp_path):
        out = tmp_path / "vmt.csv"
        rc = main([
            "vmt-sweep", "--fixture", "nguyen", "--m-grid", "38",
            "--trials", "10", "--seed", "5", "--output", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == (
            "M,rate_min,rate_max,mean_ratio_min,mean_ratio_max,unbounded_count"
        )
        assert len(lines) == 2

    def test_grid_command(self, tmp_path, capsys):
        rc = main(["grid", "--n", "50", "--alpha", "0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "paths=126410606437752" in out
        assert "exact_fraction" in out

    def test_grid_csv_output(self, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main(["grid", "--n", "10", "--alpha", "0.2", "--output", str(out)])
        assert rc == 0
        assert out.read_text().startswith("n,alpha,turns,")

    def test_grid_turns_override_sets_the_fraction(self, tmp_path, capsys):
        # the fraction is the ratio of the two printed counts, for the
        # --turns cap, not for floor(alpha * n)
        out = tmp_path / "grid.csv"
        rc = main(["grid", "--n", "10", "--alpha", "0.2", "--turns", "5",
                   "--output", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "paths_with_at_most_5_turns=162" in printed
        assert f"exact_fraction={162 / 252:.12g}" in printed
        row = out.read_text().splitlines()[1].split(",")
        assert row[2:6] == ["5", "252", "162", f"{162 / 252:.12g}"]

    @pytest.mark.parametrize("argv,message", [
        (["sweep", "--supports", "4,x"], "integer list"),
        (["sweep", "--supports", "4,8;,"], "argument --supports: empty"),
        (["noisy-cdf", "--support", "4,8,12", "--nu", "0.1", "--delta", "-1"],
         "argument --delta: must be"),
        (["sweep", "--supports", ";"], "empty support list"),
        (["sweep", "--sparsity", "3", "--m-grid", "4:x"], "bad grid spec"),
    ])
    def test_bad_values_are_usage_errors(self, tmp_path, capsys, argv, message):
        # these exited 3, with a raw int() message or after trials ran
        out = tmp_path / "out.csv"
        rc = main(argv + ["--trials", "2", "--output", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_without_command(self):
        assert main([]) == 2

    def test_malformed_env_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ODFLOW_SEED", "7x")
        out = tmp_path / "s.csv"
        rc = main([
            "sweep", "--fixture", "fig2", "--supports", "4,8,12",
            "--m-grid", "10", "--trials", "3", "--output", str(out),
        ])
        assert rc == 2
        assert "argument --seed: invalid int value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "env"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                              source, seed):
        # -1 exited 3 from numpy's Philox after the fixture was loaded
        out = tmp_path / "s.csv"
        argv = ["sweep", "--fixture", "fig2", "--supports", "4,8,12",
                "--m-grid", "10", "--trials", "3", "--output", str(out)]
        if source == "flag":
            argv += ["--seed", seed]
        else:
            monkeypatch.setenv("ODFLOW_SEED", seed)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --seed: must be an integer in 0..{2**64 - 1}" in captured.err
        assert not out.exists() and not (tmp_path / "s.csv.manifest.json").exists()

    def test_one_parser_reads_env_seed_per_call(self, tmp_path, monkeypatch, capsys):
        # the parser is built once per process, so $ODFLOW_SEED must be
        # read when each command is parsed
        sweep = ["sweep", "--supports", "4,8,12", "--m-grid", "10", "--trials", "2"]

        def seed_of(*flags):
            out = tmp_path / "s.csv"
            assert main(sweep + [*flags, "--output", str(out)]) == 0
            return json.loads((tmp_path / "s.csv.manifest.json").read_text())["seed"]

        monkeypatch.setenv("ODFLOW_SEED", "77")
        assert seed_of() == 77
        built = cli._parser.cache_info().misses
        monkeypatch.setenv("ODFLOW_SEED", "78")
        assert seed_of() == 78
        monkeypatch.setenv("ODFLOW_SEED", "7x")
        capsys.readouterr()
        bad = tmp_path / "bad.csv"
        assert main(sweep + ["--output", str(bad)]) == 2
        assert "argument --seed: invalid int value: '7x'" in capsys.readouterr().err
        assert not bad.exists() and not (tmp_path / "bad.csv.manifest.json").exists()
        monkeypatch.setenv("ODFLOW_SEED", "78")
        assert seed_of("--seed", "5") == 5
        monkeypatch.delenv("ODFLOW_SEED")
        assert seed_of() == 0
        assert cli._parser.cache_info().misses == built

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ODFLOW_SEED", "77")
        out_a = tmp_path / "a.csv"
        rc = main([
            "sweep", "--fixture", "fig2", "--supports", "4,8,12",
            "--m-grid", "10", "--trials", "10", "--output", str(out_a),
        ])
        assert rc == 0
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["seed"] == 77


@pytest.fixture()
def inputs(tmp_path, demo_counts, fig1, fig2):
    """Input files of fig2 commands (``all`` counts every link, so travel is
    bounded), plus a fig1 dynamic count file; ``fig1_lengths`` and
    ``fig2_lengths`` hold the link-derived length of each path."""
    counts, truth, x = demo_counts
    links = [l.id for l in fig2.network.links]
    all_counts = tmp_path / "all.csv"
    write_counts(all_counts, links,
                 build_static_incidence(fig2.table, links, fig2.network).matrix @ x)
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps([0.1 if i in (1, 7, 10, 13) else 1.0 for i in range(14)]))
    lengths = tmp_path / "lengths.json"
    lengths.write_text(json.dumps([2.0] * 14))
    fig2_lengths = tmp_path / "fig2_lengths.json"
    fig2_lengths.write_text(json.dumps(path_lengths(fig2.network, fig2.table).tolist()))
    fig1_lengths = tmp_path / "fig1_lengths.json"
    fig1_lengths.write_text(json.dumps(path_lengths(fig1.network, fig1.table).tolist()))
    measured = [l.id for l in fig1.network.links]
    ms = build_dynamic_system(fig1.table, fig1.network, grid_rows(measured, [0, 1]))
    x = np.zeros(ms.n_cols)
    x[ms.col_labels.index((1, 0))] = 6.0
    dyn = tmp_path / "dyn.csv"
    lines = ["link_id,time,count"]
    lines += [f"{lid},{t},{c}" for (lid, t), c in zip(ms.row_labels, ms.matrix @ x)]
    dyn.write_text("\n".join(lines) + "\n")
    return {"counts": counts, "all": all_counts, "truth": truth, "weights": weights,
            "lengths": lengths, "fig1_lengths": fig1_lengths,
            "fig2_lengths": fig2_lengths, "dyn": dyn}


FIG2 = ["--network", "fig2", "--paths", "fig2", "--measurements", "{counts}"]
FIG2_ALL = FIG2[:-1] + ["{all}"]
DYN = ["--network", "fig1", "--paths", "fig1", "--measurements", "{dyn}", "--dynamic"]


def fill(argv, inputs):
    return [tok.format(**inputs) for tok in argv]


class TestFlagValues:
    # each of these exited 0 or 3 (after reading inputs or running
    # trials), or gave a usage error from the command body; the two
    # vmt-sweep cases cover that command's flags
    @pytest.mark.parametrize("argv,flag", [
        (["vmt-sweep", "--m-grid", "38", "--trials", "0"], "--trials"),
        (["vmt-sweep", "--m-grid", "38", "--trials", "2", "--fixture", "sioux"],
         "--fixture"),
        (["enumerate", "--network", "fig1", "--od", "1,3", "--max-links", "-1"],
         "--max-links"),
        (["enumerate", "--network", "fig1", "--od", "1,3", "--max-turns", "-1"],
         "--max-turns"),
        (["enumerate", "--network", "fig1", "--od", "1,3", "--max-length-ratio", "0.5"],
         "--max-length-ratio"),
        (["enumerate", "--network", "fig1", "--od", "1,3,2"], "--od"),
        (["estimate", *FIG2, "--method", "l1", "--delta", "-3"], "--delta"),
        (["estimate", *FIG2, "--method", "l2-noisy", "--delta", "inf"], "--delta"),
        (["estimate", *FIG2, "--method", "reweighted", "--iters", "0"], "--iters"),
        (["estimate", *FIG2, "--method", "reweighted", "--epsilon", "-1"], "--epsilon"),
        (["sweep", "--sparsity", "3", "--m-grid", "10:4", "--trials", "2"], "--m-grid"),
        (["vmt", *FIG2_ALL, "--unit", "--lengths", "{lengths}"], "--lengths"),
        (["vmt", *FIG2_ALL, "--unit", "--link-lengths"], "--link-lengths"),
        (["vmt", *FIG2_ALL, "--link-lengths", "--lengths", "{lengths}"], "--lengths"),
        (["noisy-cdf", "--support", "4,8,12", "--nu", "-0.1", "--trials", "2"], "--nu"),
        (["noisy-cdf", "--support", "4,8,12", "--nu", "0", "--trials", "2"], "--nu"),
        (["noisy-cdf", "--support", "4,8,12", "--nu", "0.1", "--m", "0",
          "--trials", "2"], "--m"),
        (["noisy-cdf", "--support", "", "--nu", "0.1", "--trials", "2"], "--support"),
        (["sweep", "--supports", "4,8,12", "--sparsity", "3", "--trials", "2"],
         "--sparsity"),
        (["grid", "--n", "10", "--alpha", "0.2", "--turns", "-1"], "--turns"),
        (["grid", "--n", "7", "--alpha", "0.2"], "--n"),
        (["grid", "--n", "62", "--alpha", "0.2"], "--n"),
        (["grid", "--n", "10", "--alpha", "0.7"], "--alpha"),
        (["grid", "--n", "10", "--alpha", "0"], "--alpha"),
    ])
    def test_bad_flag_value_exits_2_before_any_work(self, tmp_path, capsys, inputs,
                                                     argv, flag):
        out = tmp_path / "out"
        rc = main(fill(argv, inputs) + ["--output", str(out)])
        assert rc == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "out.manifest.json").exists()

    def test_enumerate_needs_an_od(self, tmp_path, capsys):
        rc = main(["enumerate", "--network", "fig1", "--output", str(tmp_path / "p")])
        assert rc == 2
        assert "--od" in capsys.readouterr().err

    def test_fixture_bound_stays_with_the_library(self, tmp_path, capsys):
        # fig2 has 10 links: only the fixture knows that --m 11 is too many
        out = tmp_path / "out"
        rc = main(["noisy-cdf", "--support", "4,8,12", "--nu", "0.1", "--m", "11",
                   "--trials", "2", "--output", str(out)])
        assert rc == 3
        assert not out.exists()


class TestManifestRoundTrip:
    @pytest.mark.parametrize("argv", [
        ["enumerate", "--network", "fig1", "--od", "1,3", "--od", "2,1",
         "--max-links", "3"],
        ["estimate", *FIG2, "--method", "l1", "--truth", "{truth}"],
        ["estimate", *FIG2, "--method", "l2"],
        ["estimate", *FIG2, "--method", "l1-noisy", "--delta", "0.5"],
        ["estimate", *FIG2, "--method", "l2-noisy", "--delta", "0.5"],
        ["estimate", *FIG2, "--method", "weighted", "--weights", "{weights}"],
        ["estimate", *FIG2, "--method", "reweighted", "--iters", "3",
         "--epsilon", "0.01"],
        ["estimate", "--network", "fig1", "--paths", "fig1", "--measurements", "{dyn}",
         "--method", "l1", "--dynamic"],
        ["vmt", *FIG2_ALL, "--unit"],
        ["vmt", *FIG2_ALL, "--lengths", "{lengths}"],
        ["vmt", *FIG2_ALL, "--link-lengths"],
        ["sweep", "--supports", "4,8,12;1,7,10,13", "--m-grid", "4:10",
         "--trials", "4", "--seed", "3"],
        ["sweep", "--sparsity", "3,4", "--m-grid", "8,10", "--trials", "4"],
        ["noisy-cdf", "--support", "4,8,12", "--nu", "0.1", "--m", "7",
         "--delta", "0.3", "--trials", "4"],
        ["vmt-sweep", "--m-grid", "30,38", "--trials", "3"],
        ["grid", "--n", "10", "--alpha", "0.2", "--turns", "3"],
    ])
    def test_rerun_reproduces_output_bytes(self, tmp_path, inputs, argv):
        out = tmp_path / "out"
        assert main(fill(argv, inputs) + ["--output", str(out)]) == 0
        again = tmp_path / "again"
        rc = main(["rerun", str(out) + ".manifest.json", "--output-dir", str(again)])
        assert rc == 0
        assert (again / "out").read_bytes() == out.read_bytes()


class TestBadInputFiles:
    # objects and huge integers raised out of main; NaN, inf and true entries
    # were read as numbers
    @pytest.mark.parametrize("argv", [
        ["estimate", *FIG2, "--method", "weighted", "--weights", "{bad}"],
        ["estimate", *FIG2, "--method", "l1", "--truth", "{bad}"],
        ["vmt", *FIG2_ALL, "--lengths", "{bad}"],
    ])
    @pytest.mark.parametrize("text", [
        '{"a": 1}', "[[1.0]]",
        # 14 entries, one per fig2 path, the last one bad
        *(f"[{'1, ' * 13}{last}]" for last in ("NaN", "1e999", "true", "1" + "0" * 400)),
    ], ids=["object", "nested", "nan", "inf", "bool", "huge-int"])
    def test_number_list_must_be_flat_and_finite(self, tmp_path, capsys, inputs,
                                                  argv, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "out"
        rc = main(fill(argv, {**inputs, "bad": bad}) + ["--output", str(out)])
        assert rc == 3
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ['{"argv": 5}', '{"argv": null}',
                                      '{"argv": [1, 2]}', '{"argv": []}', "null", "[1, 2]"])
    def test_manifest_needs_an_argv_list_of_strings(self, tmp_path, capsys, text):
        manifest = tmp_path / "m.json"
        manifest.write_text(text)
        assert main(["rerun", str(manifest)]) == 3
        assert "argv list of strings" in capsys.readouterr().err

    def test_manifest_with_dropped_recovery_tol_exits_2(self, tmp_path, capsys):
        # vmt-sweep manifests once recorded --recovery-tol, a flag since
        # removed: argparse refuses the replay before any trial runs
        out = tmp_path / "vmt.csv"
        manifest = tmp_path / "vmt.csv.manifest.json"
        manifest.write_text(json.dumps({
            "argv": ["vmt-sweep", "--fixture", "nguyen", "--m-grid", "30,38",
                     "--output", str(out), "--recovery-tol", "0.001",
                     "--seed", "0", "--trials", "3"],
            "command": "vmt-sweep",
            "created_utc": "2026-01-01T00:00:00+00:00",
            "inputs": {"fixture": "nguyen"},
            "outputs": [str(out)],
            "seed": 0,
            "tool": "odflow",
            "version": "0.1.0",
        }))
        assert main(["rerun", str(manifest)]) == 2
        assert "unrecognized arguments: --recovery-tol 0.001" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_manifest_not_replayed(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"argv": ["rerun", str(manifest)]}))
        assert main(["rerun", str(manifest)]) == 3
        assert "replays a rerun" in capsys.readouterr().err


class TestInputErrors:
    """The documented exits of a bad input file or of a count file at odds
    with ``--dynamic``."""

    @pytest.mark.parametrize("argv,code,message", [
        (["estimate", *FIG2, "--method", "l1", "--dynamic"], 2, "--dynamic needs"),
        (["vmt", *FIG2_ALL, "--unit", "--dynamic"], 2, "--dynamic needs"),
        (["estimate", *FIG2[:-1], "{ragged}", "--method", "l1"], 3, ":3: wrong column count"),
        (["estimate", "--network", "fig2", "--paths", "{no_links}", "--measurements",
          "{counts}", "--method", "l1"], 3, "malformed path file"),
        (["estimate", "--network", "fig2", "--paths", "{missing}", "--measurements",
          "{counts}", "--method", "l1"], 3, "cannot read path file"),
        (["estimate", *FIG2[:-1], "{missing}", "--method", "l1"], 3,
         "cannot read measurement file"),
        (["rerun", "{missing}"], 3, "cannot read manifest"),
    ])
    def test_exit_code_and_message(self, tmp_path, capsys, inputs, argv, code, message):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("link_id,count\nl1-2,1\nl2-3,1,2\n")
        no_links = tmp_path / "no_links.json"
        no_links.write_text(json.dumps([{"od": [1, 3]}]))
        names = {**inputs, "ragged": ragged, "no_links": no_links,
                 "missing": tmp_path / "missing"}
        out = tmp_path / "out"
        extra = [] if argv[0] == "rerun" else ["--output", str(out)]
        assert main(fill(argv, names) + extra) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    # each raised TypeError (unhashable type: 'list') out of main
    @pytest.mark.parametrize("network,paths,bad", [
        ({"nodes": [1, 2], "links": [{"id": [1], "tail": 1, "head": 2}]}, None, "link id [1]"),
        ({"nodes": [[1], 2], "links": [{"id": "a", "tail": 2, "head": 1}]}, None,
         "node id [1]"),
        ({"nodes": [1, 2], "links": [{"id": "a", "tail": 1, "head": 2}]},
         [{"od": [1, 2], "links": [["a"]]}], "link id ['a']"),
    ], ids=["link-id", "node-id", "path-link-id"])
    def test_malformed_ids_exit_3(self, tmp_path, capsys, network, paths, bad):
        net, path_file = tmp_path / "net.json", tmp_path / "paths.json"
        net.write_text(json.dumps(network))
        path_file.write_text(json.dumps(paths or []))
        counts = tmp_path / "counts.csv"
        write_counts(counts, ["a"], [1.0])
        with pytest.raises(NetworkError, match=re.escape(bad)):
            fileio.load_paths(path_file, fileio.load_network(net))
        argv = (["enumerate", "--network", str(net), "--od", "1,2"] if paths is None
                else ["estimate", "--network", str(net), "--paths", str(path_file),
                      "--measurements", str(counts), "--method", "l1"])
        out = tmp_path / "out.json"
        assert main(argv + ["--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert bad in err and "Traceback" not in err
        assert not out.exists()


class TestJsonBytes:
    """Every JSON file a command writes, its manifest included, holds the
    bytes of ``json``'s own encoder over its payload (``json_writes``)."""

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--network", "fig1", "--od", "1,3", "--od", "2,1"],
        *(["estimate", *FIG2, "--method", method, "--truth", "{truth}", *extra]
          for method, extra in [
              ("l1", []), ("l2", []), ("l1-noisy", ["--delta", "0.5"]),
              ("l2-noisy", ["--delta", "0.5"]), ("weighted", ["--weights", "{weights}"]),
              ("reweighted", ["--iters", "3"])]),
        *(["estimate", *DYN, "--method", method] for method in ("l1", "l2", "reweighted")),
        ["vmt", *FIG2_ALL, "--link-lengths"],
        ["vmt", *DYN, "--unit"],
        ["vmt", *DYN, "--lengths", "{fig1_lengths}"],
    ])
    def test_written_bytes_match_json(self, tmp_path, inputs, json_writes, argv):
        out = tmp_path / "out"
        assert main(fill(argv, inputs) + ["--output", str(out)]) == 0
        assert [path.name for path, _ in json_writes] == ["out", "out.manifest.json"]
        for path, text in json_writes:
            assert path.read_bytes() == text.encode("ascii")


class TestOutputBytes:
    """Pinned digests of a static and a dynamic result and a static bounds
    file, whose bytes the per-column entry encoder keeps; the entries of
    dynamic bounds files are checked by ``TestVmtLengthSources``."""

    @pytest.mark.parametrize("argv,digest", [
        (["estimate", *FIG2, "--method", "l1", "--truth", "{truth}"],
         "8bad040a0b5990b1598febfd779452ecafbd3b5abd8069170c856b9710b0a26e"),
        # iterations counts the presolved program's pivots (3, where the
        # full program took 11); every other byte is the full program's
        (["estimate", *DYN, "--method", "l1"],
         "18a2201fd0b2d832a3e926aeb185f725a7bb874bffc2d998e7fce427eb27ff11"),
        (["vmt", *FIG2_ALL, "--link-lengths"],
         "6626e03cfad79ed8cbf89c22f9fe94dc04ae460fcab784a5bda40cfa7d766c69"),
    ])
    def test_digest_pinned(self, tmp_path, inputs, argv, digest):
        out = tmp_path / "out"
        assert main(fill(argv, inputs) + ["--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestVmtLengthSources:
    """Each length source gives one length per catalogued path, mapped to
    the columns of a static or dynamic system."""

    @pytest.mark.parametrize("source", [
        ["--unit"], ["--lengths", "{fig1_lengths}"], ["--link-lengths"]])
    def test_dynamic_entries_are_the_columns(self, tmp_path, inputs, fig1, source):
        out = tmp_path / "v.json"
        assert main(fill(["vmt", *DYN, *source, "--output", str(out)], inputs)) == 0
        payload = json.loads(out.read_text())
        rows = fileio.load_measurements(inputs["dyn"]).row_labels
        columns = build_dynamic_system(fig1.table, fig1.network, rows).col_labels
        for key in ("x_min", "x_max"):
            pairs = [(e["path"], e["departure"]) for e in payload[key]]
            assert pairs == list(columns)
            assert len(set(pairs)) == len(pairs)

    @pytest.mark.parametrize("counts,lengths", [
        (FIG2_ALL, "{fig2_lengths}"), (DYN, "{fig1_lengths}")], ids=["static", "dynamic"])
    def test_lengths_file_matches_link_lengths(self, tmp_path, inputs, counts, lengths):
        by_file, by_links = tmp_path / "file", tmp_path / "links"
        for out, source in [(by_file, ["--lengths", lengths]), (by_links, ["--link-lengths"])]:
            assert main(fill(["vmt", *counts, *source, "--output", str(out)], inputs)) == 0
        assert by_file.read_bytes() == by_links.read_bytes()

    @pytest.mark.parametrize("counts,entries,paths", [
        (FIG2_ALL, 13, 14), (DYN, 28, 7)], ids=["static", "dynamic"])
    def test_wrong_length_exits_3(self, tmp_path, capsys, inputs, counts, entries, paths):
        # 28 is the dynamic file's column count: one length per column is
        # not one per path
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([1.0] * entries))
        out = tmp_path / "v.json"
        rc = main(fill(["vmt", *counts, "--lengths", str(bad), "--output", str(out)], inputs))
        assert rc == 3
        assert f"holds {entries} numbers where {paths} are needed" in capsys.readouterr().err
        assert not out.exists()


def test_symlinked_input_recorded_as_its_target(tmp_path, demo_counts):
    counts, _, _ = demo_counts
    link = tmp_path / "link.csv"
    link.symlink_to(counts)
    out = tmp_path / "out.json"
    assert main(["estimate", "--network", "fig2", "--paths", "fig2",
                 "--measurements", str(link), "--method", "l1",
                 "--output", str(out)]) == 0
    argv = json.loads((tmp_path / "out.json.manifest.json").read_text())["argv"]
    assert argv[argv.index("--measurements") + 1] == str(counts.resolve())
    again = tmp_path / "again"
    assert main(["rerun", str(out) + ".manifest.json", "--output-dir", str(again)]) == 0
    assert (again / "out.json").read_bytes() == out.read_bytes()


def test_fixture_name_stays_a_name_in_manifests(tmp_path, monkeypatch, demo_counts):
    # a directory named like the fixture must not become the rerun's input
    counts, _, _ = demo_counts
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fig2").mkdir()
    out = tmp_path / "out.json"
    assert main(["estimate", "--network", "fig2", "--paths", "fig2",
                 "--measurements", str(counts), "--method", "l1",
                 "--output", str(out)]) == 0
    argv = json.loads((tmp_path / "out.json.manifest.json").read_text())["argv"]
    assert argv[argv.index("--network") + 1] == "fig2"
    assert argv[argv.index("--paths") + 1] == "fig2"
    assert argv[argv.index("--measurements") + 1] == str(counts.resolve())
    again = tmp_path / "again"
    assert main(["rerun", str(out) + ".manifest.json", "--output-dir", str(again)]) == 0
    assert (again / "out.json").read_bytes() == out.read_bytes()


def test_module_runs_as_a_process():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH="src")

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "odflow.cli", *argv], cwd=root,
                              env=env, capture_output=True, text=True, timeout=60)

    done = run("--version")
    assert (done.returncode, done.stdout) == (0, f"odflow {__version__}\n")
    done = run("grid", "--n", "10", "--alpha", "0.2")
    assert done.returncode == 0
    assert done.stdout.splitlines() == [
        "paths=252",
        "paths_with_at_most_2_turns=10",
        "exact_fraction=0.0396825396825",
        "tail_bound=0.165298888222",
    ]
    done = run("grid", "--n", "7", "--alpha", "0.2")
    assert done.returncode == 2
    assert "argument --n" in done.stderr

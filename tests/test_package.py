import importlib.util
import os
import subprocess
import sys
from dataclasses import fields
from importlib import import_module
from pathlib import Path

import odflow
from odflow import experiments


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from odflow import *", namespace)
    for name in odflow.__all__:
        assert name in namespace, name
        assert namespace[name] is getattr(odflow, name)
    assert len(set(odflow.__all__)) == len(odflow.__all__)


def test_benchmark_tracer_targets_exist():
    # The benchmark's tracer looks each traced function up with no default,
    # so a function removed from odflow would break only a traced run.
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("odflow_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing._targets()
    assert targets
    missing = [(mod, attr) for mod, attr, *_ in targets
               if not hasattr(import_module(mod), attr)]
    assert missing == []


def test_benchmark_config_reads_exist():
    # The benchmark builds its sweep configs from these fields and grades
    # its replays with ``TrialConfig().tol``.
    assert [f.name for f in fields(experiments.TrialConfig)] == ["fixture", "trials", "seed"]
    assert experiments.TrialConfig().tol == experiments._RECOVERY_TOL


def test_cli_import_leaves_scipy_optimize_out():
    # scipy.optimize takes longer to import than a command takes to run;
    # the cone solver imports it on its first solve
    root = Path(__file__).resolve().parents[1]
    code = ("import odflow, odflow.cli, sys; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    done = subprocess.run([sys.executable, "-c", code], cwd=root,
                          env=dict(os.environ, PYTHONPATH="src"),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[]\n"


def test_failing_property_reports_one_failure(tmp_path):
    # hypothesis imports more of itself to report a failing property; under
    # the suite's warning filters that must not stop the session
    root = Path(__file__).resolve().parents[1]
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "\n"
        "@settings(database=None, derandomize=True)\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 10\n"
        "\n"
        "def test_passes():\n"
        "    pass\n"
    )
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(root / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.stdout.splitlines()[-1].startswith("1 failed, 1 passed")

import os
import subprocess
import sys
from pathlib import Path

import odflow


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from odflow import *", namespace)
    for name in odflow.__all__:
        assert name in namespace, name
        assert namespace[name] is getattr(odflow, name)
    assert len(set(odflow.__all__)) == len(odflow.__all__)


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

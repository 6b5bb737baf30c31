"""No CLI command loads SciPy: classify, sweep, the galleries, every trace
(closed-form or solved), the render of an n >= 2 catenoid and verify load
no scipy module; the tests use SciPy only as an oracle.  Each check runs in
a fresh interpreter, since the pytest process itself has SciPy loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_RUN = """
import contextlib, io, json, sys
from heisenberg_cmc.cli import main

for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, (argv, code)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _scipy_modules_after(argvs, tmp_path):
    """Names of the scipy modules loaded by running argvs through main."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN, json.dumps(argvs)], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_reports_load_no_scipy(tmp_path):
    argvs = [
        ["classify", "--n", "1", "--h", "0", "--e", "0"],       # hyperplane
        ["classify", "--n", "2", "--h", "0", "--e", "0.5"],     # catenoid
        ["classify", "--n", "1", "--h", "1", "--e", "0"],       # sphere
        ["classify", "--n", "1", "--h", "1", "--e", "0.25"],    # cylinder
        ["classify", "--n", "2", "--h", "1", "--e", "0.05"],    # unduloid
        ["classify", "--n", "3", "--h", "0.5", "--e=-0.1"],     # nodoid
        ["classify", "--n", "3", "--h", "0.5", "--e=-0.1", "--json"],
        ["sweep", "--n", "1,2", "--h=-0.5:0.5:3", "--e=-0.25:0.25:3",
         "--out", "sweep.csv"],
        ["sweep", "--n", "1,2", "--h=-0.5:0.5:3", "--e=-0.25:0.25:3",
         "--format", "json", "--out", "sweep.json"],
        ["render", "--panel", "all", "--n", "1", "--out", "panel.svg"],
    ]
    assert _scipy_modules_after(argvs, tmp_path) == []


def test_closed_form_traces_load_no_scipy(tmp_path):
    argvs = [
        ["trace", "--n", "2", "--h", "1", "--e", "0",
         "--stop-event", "AxisContact", "--out", "sphere.csv"],
        ["trace", "--n", "2", "--h", "1", "--e", "0.05",
         "--max-arclength", "5", "--out", "unduloid.csv"],
        ["trace", "--n", "2", "--h", "1", "--e", "0.05",
         "--max-arclength", "5", "--format", "json", "--out", "trace.json"],
        ["render", "--trace", "trace.json", "--out", "trace.svg"],
    ]
    assert _scipy_modules_after(argvs, tmp_path) == []


def test_solving_commands_load_no_scipy(tmp_path):
    argvs = [
        ["trace", "--n", "2", "--h", "0", "--e", "0.5",          # catenoid
         "--max-arclength", "2", "--out", "catenoid.csv"],
        ["trace", "--n", "1", "--h", "1", "--x0", "0.7", "--sigma0", "0",
         "--max-arclength", "2", "--out", "explicit.csv"],
        ["render", "--n", "2", "--h", "0", "--e", "0.5", "--out", "cat.svg"],
        ["verify", "all", "--out", "verify.txt"],
        # on two CPUs, all runs these three in a forked worker, whose
        # imports never reach this process's sys.modules
        ["verify", "curvature", "--out", "curvature.txt"],
        ["verify", "classification", "--out", "classification.txt"],
        ["verify", "measures", "--out", "measures.txt"],
    ]
    assert _scipy_modules_after(argvs, tmp_path) == []

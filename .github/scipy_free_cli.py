"""Run classify, trace, sweep and verify through the installed package and
fail if any SciPy module was imported.  Run it from outside the checkout so
that the installed package, not ./src, is imported."""

import sys

from heisenberg_cmc.cli import main

assert main(["classify", "--n", "2", "--h", "1", "--e", "0.1"]) == 0
for neck in (["--n", "3", "--h", "10", "--e", "1e-50"],
             ["--n", "4", "--h", "1", "--e", "1e-15"],
             ["--n", "2", "--h", "1", "--e", "1e-45"],
             ["--n", "3", "--h", "1", "--e=-1e-75"]):
    assert main(["classify", *neck]) == 0, neck
assert main(["trace", "--n", "2", "--h", "1", "--e", "0.05",
             "--max-arclength", "5", "--out", "trace.csv"]) == 0
assert main(["trace", "--n", "2", "--h", "0", "--e", "0.5",
             "--max-arclength", "5", "--out", "catenoid.csv"]) == 0
assert main(["trace", "--n", "1", "--h", "1", "--x0", "0.7",
             "--sigma0", "0", "--max-arclength", "5",
             "--out", "explicit.csv"]) == 0
assert main(["sweep", "--n", "1,2,3", "--h=-2:2:9",
             "--e=-1:0.5:20", "--out", "sweep.csv"]) == 0
assert main(["verify", "all", "--out", "verify.txt"]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
sys.exit(f"{len(loaded)} scipy modules imported: {loaded[:5]} ..."
         if loaded else 0)

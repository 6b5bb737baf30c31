"""Run classify, trace, sweep and verify through the installed package and
fail if any SciPy module was imported in this process.  Also check that the
package declares and imports orjson, its JSON writer, and that the JSON
documents of trace and verify all parse as strict JSON (no NaN or
Infinity), that render --trace draws the same points from a trace's JSON
and CSV, and that it refuses a NaN literal, which only json's fallback
reads, that a sweep axis ends at its HI and holds finite values where
HI - LO overflows, and that a sweep writes every row past one whose
half-period series is unresolved.  The ODE's events are checked on an
explicit-start trace, whose critical radii and vertical tangents
alternate, and on a ray into the axis.  Run it from outside the checkout
so that the installed package, not ./src, is imported."""

import csv
import json
import math
import re
import sys
from importlib.metadata import requires

from heisenberg_cmc.cli import main


def strict_load(path):
    def refuse(name):
        raise ValueError(f"{path}: {name} is not JSON")

    with open(path, encoding="utf-8") as handle:
        return json.loads(handle.read(), parse_constant=refuse)


declared = [r for r in requires("heisenberg-cmc") or ()
            if r.split(";")[0].strip().startswith("orjson")]
assert declared, "heisenberg-cmc does not declare orjson"
assert "orjson" in sys.modules, "heisenberg_cmc.cli did not import orjson"

assert main(["classify", "--n", "2", "--h", "1", "--e", "0.1"]) == 0
assert main(["classify", "--n", "2", "--h", "1", "--e", "0.1", "--json",
             "--out", "classify.json"]) == 0
for neck in (["--n", "3", "--h", "10", "--e", "1e-50"],
             ["--n", "4", "--h", "1", "--e", "1e-15"],
             ["--n", "2", "--h", "1", "--e", "1e-45"],
             ["--n", "3", "--h", "1", "--e=-1e-75"],
             ["--n", "1", "--h", "1e-20", "--e", "1"],
             ["--n", "1", "--h=-2.15e-57", "--e=-677.6"]):
    assert main(["classify", *neck]) == 0, neck
# -E / H overflows a float, and so does the report's H^2: exit 2; the band
# edges are searched in log x, so a neck at H = 1.77e26 and deep nodoids
# whose x2 Brent's method in x could not find report: exit 0
assert main(["classify", "--n", "1", "--h", "5.68e-296", "--e=-4.68e275"]) == 2
assert main(["classify", "--n", "3", "--h", "1.7707690497454343e26", "--e",
             "2.0416154308151617e-134"]) == 0
assert main(["classify", "--n", "4", "--h", "100", "--e=-50"]) == 0
assert main(["sweep", "--n", "4", "--h", "100", "--e=-50:-1:3",
             "--out", "nodoids.csv"]) == 0
# a sphere whose H^{2n+1} underflows exits 2 with one error line; a sweep
# axis ends at HI exactly, and HI - LO past the largest float leaves every
# E finite: the rows that overflow are blanked, the sweep exits 2
assert main(["classify", "--n", "1", "--h", "1e-120", "--e", "0"]) == 2
for axis, es in (("--e=-1.6739607329403806e196:-1:2",
                  [-1.6739607329403806e196, -1.0]),
                 ("--e=-1e308:1e308:3", [-1e308, 0.0, 1e308])):
    assert main(["sweep", "--n", "1", "--h", "1", axis,
                 "--out", "axis.csv"]) == 2, axis
    with open("axis.csv", newline="", encoding="utf-8") as handle:
        assert [float(row["e"]) for row in csv.DictReader(handle)] == es, axis
assert main(["trace", "--n", "2", "--h", "1", "--e", "0.05",
             "--max-arclength", "5", "--out", "trace.csv"]) == 0
assert main(["trace", "--n", "2", "--h", "1", "--e", "0.05",
             "--max-arclength", "5", "--format", "json",
             "--out", "trace.json"]) == 0
assert main(["render", "--trace", "trace.json", "--out", "trace.svg"]) == 0
assert main(["render", "--trace", "trace.csv", "--out", "trace-csv.svg"]) == 0
with open("trace.svg", encoding="utf-8") as svg, \
        open("trace-csv.svg", encoding="utf-8") as svg_csv:
    points = re.compile(r'points="([^"]*)"')
    assert points.findall(svg.read()) == points.findall(svg_csv.read())
with open("nan.json", "w", encoding="utf-8") as handle:
    handle.write('{"n": 1, "h": 1, "samples": [[0, NaN, 1], [1, 2, 3]]}')
assert main(["render", "--trace", "nan.json", "--out", "nan.svg"]) == 2
assert main(["trace", "--n", "2", "--h", "0", "--e", "0.5",
             "--max-arclength", "5", "--out", "catenoid.csv"]) == 0
assert main(["trace", "--n", "1", "--h", "1", "--x0", "0.7",
             "--sigma0", "0", "--max-arclength", "5",
             "--out", "explicit.csv"]) == 0
assert main(["sweep", "--n", "1,2,3", "--h=-2:2:9",
             "--e=-1:0.5:20", "--out", "sweep.csv"]) == 0
assert main(["sweep", "--n", "1,2,3", "--h=-2:2:9",
             "--e=-1:0.5:20", "--format", "json", "--out", "sweep.json"]) == 0
# the event roots of an explicit start: critical radii and vertical tangents
# alternate up to the arclength limit, sigma a multiple of pi at each
# critical radius; a ray into the axis ends at its one AxisContact
assert main(["trace", "--n", "2", "--h", "0.5", "--x0", "1.4", "--sigma0",
             "1", "--max-arclength", "20", "--format", "json",
             "--out", "events.json"]) == 0
events = strict_load("events.json")["events"]
assert [ev["kind"] for ev in events] == [
    "CriticalRadius", "VerticalTangent"] * 5, events
arclengths = [ev["s"] for ev in events]
assert 0.0 < arclengths[0] and arclengths[-1] <= 20.0, arclengths
assert all(a < b for a, b in zip(arclengths, arclengths[1:])), arclengths
for ev in events[::2]:
    sigma = ev["state"][2]
    assert sigma == math.pi * round(sigma / math.pi), ev
assert main(["trace", "--n", "1", "--h", "0", "--x0", "0.5",
             "--sigma0=-1.5707963267948966", "--max-arclength", "7",
             "--format", "json", "--out", "ray.json"]) == 0
assert [ev["kind"] for ev in strict_load("ray.json")["events"]] == [
    "AxisContact"]
# a row whose half-period series stays unresolved is blanked: the sweep
# writes both rows and exits 3
assert main(["sweep", "--n", "3", "--h", "3.398348647757604e-47:1:2",
             "--e=-0.5", "--out", "unresolved.csv"]) == 3
with open("unresolved.csv", newline="", encoding="utf-8") as handle:
    assert [row["family"] for row in csv.DictReader(handle)] == [
        "", "Nodoid"]
# verify all runs curvature, classification and measures in a forked worker,
# whose imports this process never sees; run them here one by one as well
for suite in ("all", "curvature", "classification", "measures"):
    assert main(["verify", suite, "--out", "verify.txt"]) == 0, suite
assert main(["verify", "all", "--json", "--out", "verify.json"]) == 0
assert len(strict_load("trace.json")["samples"]) > 1
assert strict_load("verify.json")["passed"] is True
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
sys.exit(f"{len(loaded)} scipy modules imported: {loaded[:5]} ..."
         if loaded else 0)

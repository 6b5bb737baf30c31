"""Render the six-family gallery and a nodoid close-up as standalone SVG.

The gallery tiles one panel per family (sphere, cylinder, unduloid, nodoid,
catenoid type, hyperplane) for a chosen dimension index.  The nodoid panel
is worth a closer look: its generating curve self-intersects, which is easy
to see once it is traced over a few periods.

Usage: python demos/05_gallery.py [output-directory]
"""

import pathlib
import sys

from heisenberg_cmc.classify import classify
from heisenberg_cmc.render import family_polyline, render_gallery, render_panel


def main():
    out = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path(".")
    out.mkdir(parents=True, exist_ok=True)

    for n in (1, 2):
        path = out / f"gallery_n{n}.svg"
        path.write_text(render_gallery(n), encoding="utf-8")
        print(f"wrote {path}")

    pts = family_polyline(classify(1, 1.0, -0.15))
    path = out / "nodoid_closeup.svg"
    path.write_text(render_panel([pts], "Nodoid, n = 1, H = 1, E = -0.15"),
                    encoding="utf-8")
    print(f"wrote {path} ({len(pts)} points; look for the self-crossing)")


if __name__ == "__main__":
    main()

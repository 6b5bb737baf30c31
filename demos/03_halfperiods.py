"""Half-period heights across the periodic families, and an n = 1 surprise.

The height t2 gained while the radius sweeps its band once comes from a
Chebyshev series of dt/dtheta across the band, x = m - r cos(theta); the
profile flow provides an independent check, since integrating to the first
critical-radius event must gain exactly t2.  For n = 1 the integral
collapses to pi / (4 H^2) whatever E is, so the whole column of the table is
constant; for n >= 2 the height genuinely depends on E.
"""

import math

from heisenberg_cmc.classify import cylinder_energy
from heisenberg_cmc.closed_forms import nodoid_halfperiod, unduloid_halfperiod
from heisenberg_cmc.profile_ode import EventKind, SolveConfig, integrate


def halfperiod(n, h, e):
    if e < 0.0:
        return nodoid_halfperiod(n, h, e).value
    return unduloid_halfperiod(n, h, e).value


def main():
    h = 1.0
    print(f"H = {h}: half-period height t2 by energy\n")
    header = f"{'E':>12s}" + "".join(f"  n={n:<10d}" for n in (1, 2, 3))
    print(header)
    for frac in (-0.8, -0.3, 0.25, 0.6, 0.9):
        row = []
        for n in (1, 2, 3):
            e = frac * (1.0 if frac < 0 else cylinder_energy(n, h))
            row.append(f"{halfperiod(n, h, e):12.8f}")
        label = f"{frac:+.2f}*E_cyl" if frac > 0 else f"{frac:+.2f}"
        print(f"{label:>12s}  " + "  ".join(row))
    print(f"\nn = 1 column is pi / (4 H^2) = {math.pi / 4.0:.8f} for every E")

    print("\nseries vs profile flow (first critical-radius event):")
    for n, h_, e in ((1, 1.0, -0.4), (2, 0.75, -0.2), (3, 1.5, 0.2)):
        e = e if e < 0 else e * cylinder_energy(n, h_)
        series = halfperiod(n, h_, e)
        cfg = SolveConfig(stop_event=(EventKind.CRITICAL_RADIUS, 1))
        ode = abs(integrate(n, h_, e=e, config=cfg).states[-1, 1])
        print(f"  n={n} H={h_:<5g} E={e:+8.4f}: series {series:.10f}  "
              f"ode {ode:.10f}  gap {abs(series - ode):.2e}")


if __name__ == "__main__":
    main()

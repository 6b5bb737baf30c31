"""Catenoid-type minimal profiles: slab confinement and its n = 1 failure.

For n >= 2 the minimal profile with E > 0 stays inside a slab |t| < t_inf:
the height integral converges even though the radius grows without bound.
Its value is the Beta function (x1^2 / 2p) B(1/2, 1/2 - 1/p), p = 2n - 1,
printed beside the x-integral done by singular_quadrature.  For n = 1 the same integrand tends to the constant E at large radius, so the
partial heights grow linearly with the cutoff and the slab half-width is
reported divergent rather than silently truncated.
"""

import math

from heisenberg_cmc.closed_forms import catenoid_slab_halfwidth, singular_quadrature
from heisenberg_cmc.errors import DivergentIntegralError
from heisenberg_cmc.verify import slab_halfwidth_quadrature


def main():
    print("slab half-width t_inf for n >= 2, closed form and quadrature:\n")
    print(f"{'n':>2s} {'E':>6s}  {'Beta closed form':>19s}  "
          f"{'quadrature':>19s}  {'relative gap':>12s}")
    for n in (2, 3):
        for e in (0.5, 1.0, 2.0):
            exact = catenoid_slab_halfwidth(n, e)
            reference = slab_halfwidth_quadrature(n, e)
            print(f"{n:2d} {e:6.2f}  {exact:19.16f}  {reference:19.16f}  "
                  f"{abs(exact / reference - 1.0):12.1e}")

    print("\nn = 1, E = 1: partial heights up to a radius cutoff")
    print("(integrand x / sqrt(x^2 - 1), exact partial height sqrt(X^2 - 1))")

    def height(cut):
        f = lambda x, da, db: x / math.sqrt(da * (x + 1.0))
        return singular_quadrature(f, 1.0, cut, "lower").value

    prev = None
    for cut in (10.0, 20.0, 40.0, 80.0):
        t = height(cut)
        gain = "" if prev is None else f"  (+{t - prev:.3f})"
        print(f"  X = {cut:5.0f}: t = {t:9.4f}{gain}")
        prev = t

    try:
        catenoid_slab_halfwidth(1, 1.0)
    except DivergentIntegralError as exc:
        print(f"\ncatenoid_slab_halfwidth(1, 1.0) -> {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    main()

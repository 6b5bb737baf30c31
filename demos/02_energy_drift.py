"""Integrate a hard nodoid and watch the conserved quantity hold.

Nodoids wind the turning angle sigma by a full turn every period, so a long
trace accumulates hundreds of radians while x and t stay bounded.  The
integrator propagates (cos sigma, sin sigma) instead of sigma itself, which
keeps the error control honest at any winding number, projects every step
back onto the level set of the conserved quantity, and re-runs itself at
tighter tolerance if the corrections that projection applied still sum past
the configured bound.  From its canonical start a nodoid is solved over one
half period and mirrored at its critical radii; started explicitly from the
same state, the solver runs through every period.  This demo prints both
solves of a heavily wound trace side by side, with the gated drift,
energy_drift(), and the right-hand-side evaluations each paid, and shows the
retry machinery waking up on a deliberately tight bound for an n = 3
sphere, which reaches the axis.
"""

from heisenberg_cmc.profile_ode import SolveConfig, initial_state, integrate


def main():
    # a nodoid that winds sigma by about -130 radians over arclength 25
    n, h, e = 1, 2.0, -0.125
    cfg = SolveConfig(max_arclength=25.0)
    solves = (
        ("mirrored half period", integrate(n, h, e=e, config=cfg)),
        ("direct, every period",
         integrate(n, h, initial=initial_state(n, h, e), config=cfg)),
    )
    print(f"nodoid n={n} H={h} E={e} over arclength {cfg.max_arclength:g}:")
    print(f"  {'solve':<22}{'sigma at end':>14}{'drift':>12}{'rhs evals':>11}")
    for name, traj in solves:
        print(f"  {name:<22}{traj.states[-1, 2]:>+14.2f}"
              f"{traj.energy_drift():>12.3e}{traj.stats.rhs_evals:>11d}")
    for note in solves[0][1].notes:
        print(f"  note: {note}")

    # a tight drift bound makes the first attempt fail and retry
    cfg = SolveConfig(max_arclength=50.0, drift_tolerance=1e-11)
    traj = integrate(3, 0.25, e=0.0, config=cfg)
    print("\nsphere n=3 H=0.25 with drift bound 1e-11:")
    print(f"  reaches {traj.events[-1].kind.value} at x = "
          f"{traj.states[-1, 0]:.1e} after arclength {traj.s_end:.6f}")
    print(f"  final drift {traj.energy_drift():.3e}")
    for note in traj.notes:
        print(f"  note: {note}")


if __name__ == "__main__":
    main()

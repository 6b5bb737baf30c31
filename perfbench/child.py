"""One workload in its own process: a single client in a closed loop.

Usage: python3 child.py --workload W --seed N --seconds T --trace 0|1
       --src SRC --work DIR

Prints one JSON line.  Untraced, it runs whole cycles until T seconds have
passed and reports the end-to-end figures.  Traced, it runs cycle 0 once
without tracing and once with it, and reports the per-layer metrics of the
traced pass plus the tracing overhead (traced minus untraced wall time).
"""

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback


def summary(values):
    """Samples with their median and quartiles."""
    if len(values) < 2:
        return {"values": values, "median": values[0], "q1": values[0],
                "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import numpy
    import scipy

    from heisenberg_cmc import cli, closed_forms, measures, profile_ode
    from heisenberg_cmc import render, verify

    src = os.path.realpath(args.src)
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"heisenberg_cmc imported from {cli.__file__}, "
                         f"not from {src}")

    import tracer as tracing
    import workloads

    tracer = None

    def run(argv):
        """One CLI call: exit code, wall seconds, stderr text.

        An exception escaping main is what a user would see as a traceback
        and exit code 1; it is reported as that, so the loop keeps going.
        """
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    rc = tracer.call("cli.main", cli.main, argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # noqa: BLE001 - reported as a failed call
                traceback.print_exc()
                rc = 1
        return rc, time.perf_counter() - start, err.getvalue()

    if args.workload == "sweep":
        workload = workloads.Sweep(args.seed, args.work)
    elif args.workload == "trace":
        workload = workloads.Trace(args.seed, args.work,
                                   closed_forms.halfperiod_heights)
    else:
        workload = workloads.Verify(args.seed, args.work,
                                    split=bool(args.trace))

    missed = workloads.selftest(run, args.work)
    workload.warmup(run)

    result = {
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "selftest_missed": missed,
    }
    outcomes = []
    if args.trace:
        ops = workload.cycle(0)
        start = time.perf_counter()
        for op in ops:
            workload.run(op, run)
        untraced = time.perf_counter() - start
        tracer = tracing.Tracer()
        tracer.install({"cli": cli, "closed_forms": closed_forms,
                        "measures": measures, "profile_ode": profile_ode,
                        "render": render, "verify": verify})
        start = time.perf_counter()
        try:
            for index, op in enumerate(ops):
                tracer.op = index
                outcomes.append(workload.run(op, run))
        finally:
            tracer.uninstall()
        traced = time.perf_counter() - start
        units = sum(o.passed for o in outcomes)
        layers = tracing.layer_metrics(tracer.spans, units)
        layers["tracing.overhead_s"] = (traced - untraced, "s")
        layers["tracing.spans"] = (len(tracer.spans), "count")
        result["layers"] = layers
        result["spans"] = [span.as_dict() for span in tracer.spans]
    else:
        cycles = []
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            done = [workload.run(op, run) for op in workload.cycle(len(cycles))]
            outcomes += done
            cycles.append((sum(o.wall for o in done),
                           sum(o.passed for o in done),
                           sum(o.attempted for o in done)))
        result["cycles"] = len(cycles)
        wall = sum(c[0] for c in cycles)
        passed = sum(c[1] for c in cycles)
        attempted = sum(c[2] for c in cycles)
        result["e2e"] = {
            "goodput_per_s": passed / wall,
            "pass_frac": passed / attempted,
        }
        result["samples"] = {
            "goodput_per_s": summary([p / w for w, p, _ in cycles]),
            "pass_frac": summary([p / a for _, p, a in cycles]),
            "cycle_wall_s": summary([w for w, _, _ in cycles]),
            "op_wall_s": summary([o.wall for o in outcomes]),
        }
    result["attempted"] = sum(o.attempted for o in outcomes)
    result["failed"] = sum(o.failed for o in outcomes)
    result["known_failed"] = {}
    unknown = []
    for o in outcomes:
        if o.failed and o.known:
            result["known_failed"][o.known] = (
                result["known_failed"].get(o.known, 0) + o.failed)
        elif o.failed:
            unknown.append(o.failures)
    result["unknown_failures"] = unknown[:10]
    result["correct"] = not missed and not unknown
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()

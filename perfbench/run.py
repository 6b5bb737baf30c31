"""Benchmark of the heisenberg-cmc command line, run from a source checkout.

    python3 perfbench/run.py --workload sweep|trace|verify --seed N
                             --seconds T --trace 0|1

Run it from the root of the checkout; the package is imported from ./src.
It first times fresh interpreters importing heisenberg_cmc.cli (the set-up
every CLI call pays), then runs the workload in a child process through
heisenberg_cmc.cli.main(argv), one call at a time.  The last line of stdout
is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a traced run.  The line before it is the environment
record (versions, machine, commit, seed, per-operation samples with median
and quartiles); it and, for traced runs, the spans are also written to
.perfbench_out/.  Exit code 1 without a result means the run could not be
measured.
"""

import argparse
import contextlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import time

from child import summary

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep", "trace", "verify")
SETUP_PROBES = 3
IMPORT_PROBES = 3
# modules whose cumulative -X importtime cost is reported, and their names
IMPORT_MODULES = {
    "heisenberg_cmc.cli": "setup.cli_import_s",
    "heisenberg_cmc.classify": "setup.classify_import_s",
    "heisenberg_cmc.profile_ode": "setup.profile_ode_import_s",
    "heisenberg_cmc.closed_forms": "setup.closed_forms_import_s",
    "scipy": "setup.scipy_import_s",
}
DEADLINE_S = 170.0


def import_once(env, root, timeout, importtime=False):
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += ["-c", "import heisenberg_cmc.cli"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True, timeout=timeout)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr.strip()}")
    return wall, proc.stderr


def import_costs(text):
    """Seconds per IMPORT_MODULES entry from -X importtime output.

    scipy is the sum over scipy modules imported by a module outside scipy,
    since the package itself loads its submodules lazily.
    """
    entries = []
    for line in text.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if match:
            entries.append((len(match.group(3)), match.group(4),
                            int(match.group(2)) * 1e-6))
    costs = dict.fromkeys(IMPORT_MODULES.values(), 0.0)
    # entries are listed children first; walk backwards to see parents first
    parents = []
    for depth, name, cumulative in reversed(entries):
        while parents and parents[-1][0] >= depth:
            parents.pop()
        outer = parents[-1][1] if parents else ""
        if name in IMPORT_MODULES and name != "scipy":
            costs[IMPORT_MODULES[name]] = cumulative
        elif name.split(".")[0] == "scipy" and outer.split(".")[0] != "scipy":
            costs["setup.scipy_import_s"] += cumulative
        parents.append((depth, name))
    return costs


def machine(root):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "commit": commit,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "heisenberg_cmc", "cli.py")):
        print(f"error: no src/heisenberg_cmc/cli.py under {root}; run from "
              "the root of a heisenberg-cmc checkout", file=sys.stderr)
        return 1
    env = dict(os.environ, PYTHONPATH=src)
    out_dir = os.path.join(root, ".perfbench_out")
    work = os.path.join(root, ".perfbench_work", str(os.getpid()))
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(work, exist_ok=True)

    def remaining():
        return DEADLINE_S - (time.perf_counter() - started)

    try:
        # the first import compiles bytecode; it is not a set-up sample
        import_once(env, root, remaining())
        if args.trace:
            costs = [import_costs(import_once(env, root, remaining(), True)[1])
                     for _ in range(IMPORT_PROBES)]
            setup = {name: summary([c[name] for c in costs])
                     for name in IMPORT_MODULES.values()}
        else:
            setup = {"setup_s": summary(
                [import_once(env, root, remaining())[0]
                 for _ in range(SETUP_PROBES)])}

        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--src", src, "--work", work]
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            stdout, stderr = proc.communicate(timeout=max(remaining(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print("error: workload did not finish in time", file=sys.stderr)
            return 1
        if proc.returncode != 0 or not stdout.strip():
            print(f"error: workload exited {proc.returncode}\n{stderr}",
                  file=sys.stderr)
            return 1
        child = json.loads(stdout.strip().splitlines()[-1])
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            os.rmdir(os.path.dirname(work))

    if args.trace:
        metrics = {name: {"value": s["median"], "unit": "s"}
                   for name, s in setup.items()}
        metrics.update({name: {"value": value, "unit": unit}
                        for name, (value, unit) in child["layers"].items()})
        samples = setup
    else:
        units = {"goodput_per_s": "1/s", "pass_frac": "ratio"}
        metrics = {"setup_s": {"value": setup["setup_s"]["median"],
                               "unit": "s"}}
        metrics.update({name: {"value": value, "unit": units[name]}
                        for name, value in child["e2e"].items()})
        metrics["peak_rss_mb"] = {"value": child["peak_rss_mb"], "unit": "MB"}
        samples = dict(setup, **child["samples"])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": dict(machine(root), **child["versions"]),
        "samples": samples,
        "cycles": child.get("cycles"),
        "attempted": child["attempted"],
        "failed": child["failed"],
        "known_failed": child["known_failed"],
        "unknown_failures": child["unknown_failures"],
        "selftest_missed": child["selftest_missed"],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, stem + ".json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if args.trace:
        with open(os.path.join(out_dir, stem + "-spans.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(child["spans"], handle)
    print(json.dumps(record))
    print(json.dumps({
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

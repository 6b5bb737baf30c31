"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload trace --seeds 1-10 [--seconds T]

Runs perfbench/run.py once per seed (untraced, from the current directory,
which must be the checkout root), then prints for each metric its ten
values, median, quartiles and the quartile distance as a share of the
median, next to the metric's bound in BENCHMARK.json and a third of it.
Quartiles are statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in result["metrics"].items()), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    print(f"\n{args.workload}, {len(args.seeds)} seeds, "
          f"{args.seconds} s runs")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        print(f"{name:16s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {share:.4f}  bound {bounds[name]}  "
              f"{'ok' if share < bounds[name] / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Run from the repository root after building once through run.sh:

    python3 perfbench/steady.py --workload mc-yield --seeds 1-10 --seconds 15

For every metric it prints the median, the quartiles and the distance
between the quartiles as a share of the median (Python's
statistics.quantiles, n=4) -- the figure each metric's bound in
BENCHMARK.json must cover. --json writes the raw values too.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="15")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--json", help="write {metric: [values]} here")
    args = ap.parse_args()

    values = {}
    units = {}
    for seed in seeds(args.seeds):
        cmd = [".bench_build/perfbench", "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        run = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
        if run.returncode != 0:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr}")
        res = json.loads(run.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: {res['failed']} of {res['attempted']} failed")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: attempted {res['attempted']}", file=sys.stderr)

    print(f"{'metric':28} {'unit':8} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:28} {units[name]:8} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(values, f, indent=1)


if __name__ == "__main__":
    main()

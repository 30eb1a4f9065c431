#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed on each
named workload and prints, per metric, the median and the distance
between the first and third quartiles as a share of the median
(statistics.quantiles, n=4). With --sets 2 it runs every seed twice,
the two sets interleaved seed by seed so that both see the same host,
and also prints how far the second set's median lies from the first's.
Run it from the repository root:

    python3 perfbench/spread.py --seeds 1-10 --seconds 20 --sets 2 philly-mlfh
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--sets", type=int, default=1, help="interleaved sets of runs")
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    with open("BENCHMARK.json") as f:
        cmd = json.load(f)["command"]
    failures = 0
    for w in args.workloads:
        values = [{} for _ in range(args.sets)]
        for seed in range(first, last + 1):
            for s in range(args.sets):
                out = subprocess.run(
                    cmd + ["--workload", w, "--seed", str(seed), "--seconds", args.seconds,
                           "--trace", "0"],
                    capture_output=True, text=True)
                result = json.loads(out.stdout.strip().splitlines()[-1])
                if out.returncode != 0 or not result["correct"]:
                    print(f"{w} seed {seed}: CHECK FAILED\n{out.stdout}", file=sys.stderr)
                    failures += 1
                    continue
                if result["failed"]:
                    print(f"{w} seed {seed}: {result['failed']} of {result['attempted']}"
                          " operations failed")
                for name, m in result["metrics"].items():
                    values[s].setdefault(name, []).append(m["value"])
                print(f"{w} set {s} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name in values[0]:
            medians = []
            for s, vals in enumerate(values):
                xs = vals[name]
                med = statistics.median(xs)
                q1, _, q3 = statistics.quantiles(xs, n=4)
                share = (q3 - q1) / med if med else float("nan")
                medians.append(med)
                print(f"{w:14} {name:16} set {s} median {med:12.6g}  IQR/median {share:7.4f}"
                      f"  n={len(xs)}")
            for s, med in enumerate(medians[1:], 1):
                print(f"{w:14} {name:16} set {s} vs set 0: {med / medians[0] - 1:+.4f}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run-to-run steadiness check, the way the benchmark contract judges it.

Runs BENCHMARK.json's command N times per workload (default 10), each with
another --seed, and prints for every end-to-end metric the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median, next to the metric's bound. A spread above a third of the
bound is flagged. Run from the root of the checkout:

    python3 bench/spread.py [-n 10] [--first-seed 1] [workload ...]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("-n", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    bad = 0
    for name in names:
        values = {m["name"]: [] for m in metrics}
        t0 = time.time()
        for i in range(args.n):
            cmd = spec["command"] + ["--workload", name, "--seed", str(args.first_seed + i),
                                     "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, check=False).stdout.decode()
            res = json.loads(out.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                print(f"{name} seed {args.first_seed + i}: correct={res['correct']} failed={res['failed']}")
                bad += 1
            if set(res["metrics"]) != set(values):
                print(f"{name}: metric names differ from BENCHMARK.json")
                bad += 1
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"== {name}: {args.n} runs in {time.time() - t0:.0f} s")
        for m in metrics:
            xs = values[m["name"]]
            med = statistics.median(xs)
            line = f"  {m['name']:<34} median {med:<12.6g} {m['unit']:<7}"
            if len(xs) >= 2 and med:
                q = statistics.quantiles(xs, n=4)
                spread = abs(q[2] - q[0]) / abs(med)
                line += f" spread {100 * spread:6.2f}%"
                if "bound" in m:
                    flag = "" if spread <= m["bound"] / 3 else ("  > bound/3" if spread <= m["bound"] else "  > BOUND")
                    line += f"  bound {100 * m['bound']:.0f}%{flag}"
                    bad += spread > m["bound"] and m["name"] != "setup_s"
            print(line)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()

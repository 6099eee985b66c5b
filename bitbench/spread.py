#!/usr/bin/env python3
"""Run-to-run spread of the benchmark: runs one workload once per seed and
prints, for every metric, its median and its quartile spread (distance
between the first and third quartile as a share of the median) next to the
metric's bound in BENCHMARK.json.

    python3 bitbench/spread.py --workload chase --seeds 1-10 [--trace 0]
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: exit {out.returncode}, result {result}")
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
            if k in bounds), flush=True)
    for name, vals in values.items():
        med = stats.median(vals)
        spread = stats.quartile_spread(vals) if len(vals) > 1 and med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else (
                "WITHIN BOUND" if spread <= bound else "OVER BOUND")
        print(f"{name:36s} median={med:<14.6g} spread={spread:7.4f} "
              f"bound={bound} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

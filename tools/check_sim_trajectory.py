#!/usr/bin/env python3
"""Regenerates the simulator's perf documents and diffs them against the
committed ones at the repository root.

    python3 tools/check_sim_trajectory.py <build-dir> [--jobs N]

The simulated backend runs in virtual time, so its numbers do not depend on
the host. Three documents are checked:

  BENCH_dapc.json       in full, byte for byte (fig5-fig12, fig_async_window);
  BENCH_tsi.json        byte for byte once the host-wall `real_host_*` fields
                        are removed from both sides (table1-table6);
  BENCH_workloads.json  its sim series (`fig_workloads --backends sim`), line
                        for line; the shm series are host wall clock.

Exit status 0 when all three match, 1 on any difference (each differing
entry is printed where it departs), 2 when a bench fails to run. The benches run in full
mode whatever TC_BENCH_FAST says, since the committed documents are full
sweeps.
"""

import argparse
import concurrent.futures
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DAPC = ["fig5_dapc_depth_thor_bf2", "fig6_dapc_depth_ookami",
        "fig7_dapc_depth_thor_xeon", "fig8_dapc_depth_julia",
        "fig9_dapc_scale_thor_bf2", "fig10_dapc_scale_ookami",
        "fig11_dapc_scale_thor_xeon", "fig12_dapc_scale_julia",
        "fig_async_window"]
TSI = ["table1_tsi_ookami", "table2_tsi_bf2", "table3_tsi_xeon",
       "table4_rates_ookami", "table5_rates_bf2", "table6_rates_xeon"]
WORKLOADS_SIM = ["fig_workloads", "--backends", "sim"]

HOST_WALL = re.compile(r',"real_host_[a-z_]+":[^,}\]]+')
SIM_SERIES = re.compile(r'"bench":"[a-z_]+_sim"')


def run_bench(build_dir, command, tmp_dir):
    """Runs one bench with --json into its own file; returns its objects,
    one JSON object per line, as append_json wrote them."""
    out = os.path.join(tmp_dir, command[0] + ".json")
    env = {k: v for k, v in os.environ.items() if k != "TC_BENCH_FAST"}
    result = subprocess.run(
        [os.path.join(build_dir, command[0])] + command[1:] + ["--json", out],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env)
    if result.returncode != 0:
        raise RuntimeError(" ".join(command) + " failed:\n" +
                           result.stderr.decode(errors="replace"))
    with open(out) as f:
        return object_lines(f.read())


def object_lines(document):
    """The top-level objects of a bench document, without the array
    brackets and separating commas."""
    return [line.rstrip(",") for line in document.splitlines()
            if line not in ("[", "]")]


def compare(name, expected, actual):
    if expected == actual:
        print(f"{name}: identical ({len(actual)} entries)")
        return True
    print(f"{name}: DIFFERS")
    for i in range(max(len(expected), len(actual))):
        want = expected[i] if i < len(expected) else "<missing>"
        got = actual[i] if i < len(actual) else "<missing>"
        if want != got:
            # The entries are long one-line objects: show where they part.
            at = next((k for k, (a, b) in enumerate(zip(want, got)) if a != b),
                      min(len(want), len(got)))
            lo = max(0, at - 60)
            print(f"  entry {i}, from character {lo}:\n"
                  f"    committed:   {want[lo:at + 40]}\n"
                  f"    regenerated: {got[lo:at + 40]}")
    return False


def committed(name):
    with open(os.path.join(ROOT, name)) as f:
        return object_lines(f.read())


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("build_dir")
    parser.add_argument("--jobs", type=int, default=4)
    args = parser.parse_args()

    commands = [[b] for b in DAPC] + [[b] for b in TSI] + [WORKLOADS_SIM]
    with tempfile.TemporaryDirectory() as tmp_dir, \
            concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        futures = [pool.submit(run_bench, args.build_dir, c, tmp_dir)
                   for c in commands]
        try:
            outputs = [f.result() for f in futures]
        except RuntimeError as error:
            print(error, file=sys.stderr)
            return 2

    dapc = [line for out in outputs[:len(DAPC)] for line in out]
    tsi = [line for out in outputs[len(DAPC):len(DAPC) + len(TSI)]
           for line in out]
    workloads = outputs[-1]

    with open(os.path.join(ROOT, "BENCH_dapc.json")) as f:
        dapc_bytes = f.read()
    ok = compare("BENCH_dapc.json", committed("BENCH_dapc.json"), dapc)
    if ok and dapc_bytes != "[\n" + ",\n".join(dapc) + "\n]\n":
        print("BENCH_dapc.json: same entries, different framing")
        ok = False
    ok &= compare("BENCH_tsi.json (without real_host_*)",
                  [HOST_WALL.sub("", e) for e in committed("BENCH_tsi.json")],
                  [HOST_WALL.sub("", e) for e in tsi])
    ok &= compare("BENCH_workloads.json (sim series)",
                  [e for e in committed("BENCH_workloads.json")
                   if SIM_SERIES.search(e)],
                  workloads)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

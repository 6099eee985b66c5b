#!/usr/bin/env python3
"""Repository benchmark: builds bitbench_driver, runs one workload, checks
its answers and invariants, and reports every metric by name and unit.

    python3 bitbench/run.py --workload chase --seed 1 --seconds 10 --trace 0

Run from the repository root. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. The lines before it
record the run's context (seed, host, build, source digest) and every metric
as "name value unit". Exit status: 0 when every request was right and every
invariant held, 1 when a result was wrong or an invariant broke (the JSON
line still says what was measured), 2 when the build or the driver failed.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "bitbench")
DRIVER = os.path.join(BUILD, "bitbench_driver")
WORKLOADS = ("chase", "probe-socket", "bfs-interp", "cold-deploy")
CHASE_DEPTH = 16
# End-to-end metrics are medians over this many consecutive windows of a
# run; even cold-deploy, the slowest, keeps about 100 requests per window,
# so its p90 has about 10 samples beyond it.
WINDOWS = 8
# A driver run measures --seconds of requests plus a few set-ups; anything
# far beyond that is a hang.
DRIVER_SLACK_S = 120


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def child_env():
    """The environment for the build and the driver: temporary files go
    inside the checkout too."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures once, then (re)builds only the library and the driver."""
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(BUILD, g)) for g in generated):
        step = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=child_env()).returncode:
            return False
    step = ["cmake", "--build", BUILD, "--target", "bitbench_driver",
            "-j", str(min(4, os.cpu_count() or 1))]
    return subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=child_env()).returncode == 0


def read_first(path, prefix=None):
    try:
        with open(path) as f:
            for line in f:
                if prefix is None:
                    return line.strip()
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unreadable"


def cache_value(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the sources the driver is built from (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HERE]
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files += [os.path.join(dirpath, n) for n in sorted(filenames)
                      if not n.endswith(".pyc")]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def context(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {
            "nproc": os.cpu_count(),
            "cpu_model": read_first("/proc/cpuinfo", "model name"),
            "governor": read_first(
                "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
            "kernel": platform.release(),
        },
        "build": {
            "type": cache_value("CMAKE_BUILD_TYPE"),
            "llvm": cache_value("TC_WITH_LLVM"),
            "compiler": cache_value("CMAKE_CXX_COMPILER"),
        },
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def per_req(count, requests):
    return count / requests if requests else 0.0


def end_to_end(record):
    """--trace 0: the user-visible metrics of the untraced phase, each the
    median over WINDOWS consecutive windows of the run's requests."""
    p = record["untraced"]
    lat, cpu, units = p["latency_ns"], p["cpu_ns"], p["units"]

    def over_windows(fn):
        return stats.window_median(len(lat), WINDOWS, fn)

    return {
        "setup_s": (stats.median(record["setup_s"]), "s"),
        "ops_per_s": (over_windows(
            lambda w: sum(units[w]) / (sum(lat[w]) / 1e9)), "1/s"),
        "latency_p50_us": (over_windows(
            lambda w: stats.percentile(lat[w], 50) / 1e3), "us"),
        "latency_p90_us": (over_windows(
            lambda w: stats.percentile(lat[w], 90) / 1e3), "us"),
        "cpu_us_per_op": (over_windows(
            lambda w: sum(cpu[w]) / 1e3 / sum(units[w])), "us"),
        "peak_rss_mb": (record["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(record):
    """--trace 1: per-layer metrics. Counters come from the untraced phase,
    span self times and the benchmark-side call split from the traced one."""
    workload = record["workload"]
    u, t = record["untraced"], record["traced"]
    c = u["counters"]
    n_u, n_t = len(u["latency_ns"]), len(t["latency_ns"])
    spans = t["spans"]
    cold = workload == "cold-deploy"

    def lat_p50(phase):
        return stats.percentile(phase["latency_ns"], 50)

    def med_or_zero(values):
        return stats.median(values) if values else 0.0

    get_p50 = stats.percentile(u["get_ns"], 50) / 1e3 if u["get_ns"] else 0.0
    get_p90 = stats.percentile(u["get_ns"], 90) / 1e3 if u["get_ns"] else 0.0
    lookups = c["cache_hits"] + c["cache_misses"]
    if cold:
        # Simulated servers trace in virtual time, so the request's wall time
        # is attributed to the benchmark-side layer spans instead.
        covered_ns = 1e6 * (sum(t["create_ms"]) + sum(t["build_ms"]) +
                            sum(t["compile_ms"])) + t["send_call_ns"]
    else:
        covered_ns = spans["covered_ns"]
    unaccounted_us = (sum(t["latency_ns"]) - covered_ns) / n_t / 1e3
    attempted = u["attempted"] + t["attempted"]
    failed = u["failed"] + t["failed"]

    m = {
        "failed_ops": (stats.failure_fraction(failed, attempted)[0], "ratio"),
        "hetsim.cluster_create_ms": (
            med_or_zero(u["create_ms"] if cold else record["cluster_create_ms"]),
            "ms"),
        "ir.library_build_ms": (
            med_or_zero(u["build_ms"] if cold else record["library_build_ms"]),
            "ms"),
        "ir.archive_bytes": (record["archive_bytes"], "bytes"),
        "core.send_call_us": (t["send_call_ns"] / n_t / 1e3, "us"),
        "core.wait_us": (t["wait_ns"] / n_t / 1e3, "us"),
        "core.frames_full_per_req": (per_req(c["frames_full"], n_u), "count"),
        "core.frames_truncated_per_req": (
            per_req(c["frames_truncated"], n_u), "count"),
        "core.code_bytes_per_req": (per_req(c["code_bytes"], n_u), "bytes"),
        "core.forwards_per_req": (per_req(c["forwards"], n_u), "count"),
        "core.nacks": (c["nacks"] + t["counters"]["nacks"], "count"),
        "core.protocol_errors": (
            c["protocol_errors"] + t["counters"]["protocol_errors"], "count"),
        "core.send_retries": (
            c["send_retries"] + t["counters"]["send_retries"], "count"),
        "jit.compiles_per_req": (per_req(c["jit_compiles"], n_u), "count"),
        "jit.compile_ms": (med_or_zero(u["compile_ms"]), "ms"),
        "jit.parse_ms": (med_or_zero(u["parse_ms"]), "ms"),
        "jit.optimize_ms": (med_or_zero(u["optimize_ms"]), "ms"),
        "jit.codegen_ms": (med_or_zero(u["codegen_ms"]), "ms"),
        "jit.cache_hit_ratio": (
            c["cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "vm.interp_executions_per_req": (
            per_req(c["interp_executions"], n_u), "count"),
        "vm.interp_instrs_per_req": (per_req(c["interp_instrs"], n_u), "count"),
        "vm.instrs_per_s": (
            c["interp_instrs"] / (sum(u["latency_ns"]) / 1e9), "1/s"),
        "fabric.shm_ops_per_req": (per_req(c["shm_ops"], n_u), "count"),
        "fabric.shm_producer_stalls": (c["shm_stalls"], "count"),
        "fabric.shm_backpressure_failures": (c["shm_backpressure"], "count"),
        "fabric.get_p50_us": (get_p50, "us"),
        "fabric.get_p90_us": (get_p90, "us"),
        "fabric.get_hop_us": (get_p50 / CHASE_DEPTH, "us"),
        "fabric.socket_frames_per_req": (
            per_req(c["socket_frames"], n_u), "count"),
        "fabric.socket_bytes_per_req": (
            per_req(c["socket_bytes"], n_u), "bytes"),
        "fabric.socket_partial_writes": (c["socket_partial_writes"], "count"),
        "fabric.socket_backpressure_rejects": (
            c["socket_backpressure"], "count"),
        "proc.voluntary_csw_per_req": (
            per_req(u["voluntary_csw"], n_u), "count"),
        "proc.involuntary_csw_per_req": (
            per_req(u["involuntary_csw"], n_u), "count"),
        "obs.decode_us": (spans["decode_ns"] / n_t / 1e3, "us"),
        "obs.tier_lookup_us": (spans["tier_lookup_ns"] / n_t / 1e3, "us"),
        "obs.compile_us": (spans["compile_ns"] / n_t / 1e3, "us"),
        "obs.execute_us": (spans["execute_ns"] / n_t / 1e3, "us"),
        "obs.forward_send_us": (spans["forward_send_ns"] / n_t / 1e3, "us"),
        "obs.reply_send_us": (spans["reply_send_ns"] / n_t / 1e3, "us"),
        "obs.unaccounted_us": (unaccounted_us, "us"),
        "obs.dropped_events": (spans["dropped_events"], "count"),
        "obs.tracing_overhead": (lat_p50(t) / lat_p50(u), "ratio"),
    }
    return m


def describe_tails(record):
    """p99 / max and the percentile rule, printed but not gated."""
    lines = []
    phases = [("untraced", record["untraced"])]
    if "traced" in record:
        phases.append(("traced", record["traced"]))
    for label, p in phases:
        for series in ("latency_ns", "get_ns"):
            samples = p[series]
            if not samples:
                continue
            n = len(samples)
            top = stats.highest_reportable_percentile(n)
            p99 = (f"{stats.percentile(samples, 99) / 1e3:.3f} us"
                   if top is not None and top >= 99 else "n/a (<10 beyond)")
            lines.append(
                f"# {label} {series[:-3]}: n={n} highest reportable "
                f"percentile=p{top} p99={p99} max={max(samples) / 1e3:.3f} us")
    return lines


def check(record):
    """Every reason the run is not a valid measurement of its code path."""
    problems = []
    for label in ("untraced", "traced"):
        if label not in record:
            continue
        p = record[label]
        problems += [f"{label}: {v}" for v in p["violations"]]
        if p["failed"]:
            problems.append(f"{label}: {p['failed']}/{p['attempted']} "
                            "requests returned a wrong answer")
        if not p["latency_ns"]:
            problems.append(f"{label}: no request completed")
    if "traced" in record and record["traced"]["spans"]["dropped_events"]:
        problems.append("traced: trace rings dropped events (partial window)")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        log("bitbench: build failed")
        return 2
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             env=child_env(),
                             timeout=args.seconds + DRIVER_SLACK_S)
    except subprocess.TimeoutExpired:
        log("bitbench: driver timed out")
        return 2
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        log(f"bitbench: driver exited with {out.returncode}")
        return 2
    record = json.loads(out.stdout)

    problems = check(record)
    phases = [record["untraced"]] + ([record["traced"]] if args.trace else [])
    if any(not p["latency_ns"] for p in phases):
        for problem in problems:
            log(f"bitbench: {problem}")
        return 1
    metrics = per_layer(record) if args.trace else end_to_end(record)
    ctx = context(args)
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(BUILD, "results", name), "w") as f:
        json.dump({"context": ctx, "metrics": metrics, "problems": problems},
                  f, indent=1)

    print("# context " + json.dumps(ctx, sort_keys=True))
    for line in describe_tails(record):
        print(line)
    u = record["untraced"]
    if u["get_ns"]:
        ratio = (stats.percentile(u["get_ns"], 50) /
                 stats.percentile(u["latency_ns"], 50))
        print(f"# paper comparison: GET-walk p50 / X-RDMA p50 = {ratio:.3f}x "
              "(paper: 1.7x)")
    if args.trace and record["traced"]["latency_ns"]:
        t = record["traced"]
        n = len(t["latency_ns"])
        print(f"# traced request mean {sum(t['latency_ns']) / n / 1e3:.3f} us;"
              " core.send_call_us + core.wait_us = "
              f"{(t['send_call_ns'] + t['wait_ns']) / n / 1e3:.3f} us")
    for problem in problems:
        print(f"# FAILED: {problem}")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")

    attempted = u["attempted"] + record.get("traced", {}).get("attempted", 0)
    failed = u["failed"] + record.get("traced", {}).get("failed", 0)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit}
                    for k, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

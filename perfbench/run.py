#!/usr/bin/env python3
"""The repo benchmark: builds perfbench from source, runs one workload,
checks its outputs and prints its metrics.

Usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> \
        --trace <0|1> [--record results.jsonl]

--trace 0 prints every end-to-end metric of BENCHMARK.json, --trace 1
every per-layer metric; a layer the workload does not exercise reads 0.
The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it give
the run context and a human-readable row. --record appends the reduced
run (context included) to a JSON-lines file that compare.py reads.

The native half builds under $CARGO_TARGET_DIR (default .bench_build)
with CMake. Exits nonzero, without a result line, when the build or the
run fails, and with correct=false when an output check fails.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # keep perfbench/ free of caches
sys.path.insert(0, HERE)

import benchstats  # noqa: E402

RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench; returns the binary path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    if os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs from need not be a git repository)."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".h", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def end_to_end(raw, tail_info):
    attempted = raw["attempted"]
    # Failed work arrives as null and counts as +inf.
    windows = [[math.inf if x is None else x for x in w]
               for w in raw["latency_ms"]]
    pct, tail_value, per_window, count = benchstats.windowed_tail(windows)
    tail_info.update({"latency_samples": sum(len(w) for w in windows),
                      "tail_percentile": pct, "tail_windows": count,
                      "tail_window_min_samples": per_window})
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "latency_ms_p50": benchstats.windowed(windows, 50.0),
        "latency_ms_tail": tail_value,
        "throughput_per_s": raw["throughput_per_s"],
        "ok_frac": (attempted - raw["failed"]) / attempted,
        "speedup_geomean": raw["speedup_geomean"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw, names):
    values = dict(raw["layers"])
    for name, samples in raw["layer_samples"].items():
        values[name + "_tail"] = benchstats.tail(samples)[1]
    # A layer this workload does not exercise reads 0.
    return {name: values.get(name, 0.0) for name in names}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the reduced run to this "
                                     "JSON-lines file")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload: " + args.workload)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench timed out")
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        log("perfbench exited with %d" % proc.returncode)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    context = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "git_commit": git_commit(),
        "source_digest": source_digest(),
    }
    context.update(raw["build"])
    context.update(raw["notes"])
    if args.trace:
        values = per_layer(raw, [m["name"] for m in wanted])
    else:
        values = end_to_end(raw, context)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    correct = (not raw["errors"] and raw["attempted"] >= 1 and
               all(math.isfinite(v["value"]) for v in metrics.values()))
    for err in raw["errors"]:
        log("check failed: " + err)
    print("context " + json.dumps(context, sort_keys=True))
    print("row %s | " % args.workload + " | ".join(
        "%s %.6g %s" % (k, v["value"], v["unit"]) for k, v in metrics.items()))
    result = {"correct": correct, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"context": context, "result": result},
                               sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log("perfbench: " + str(e))
        sys.exit(1)

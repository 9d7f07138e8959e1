#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload syscall_mix --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (and the SVA libraries under src/) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs rebuild incrementally. The
benchmark binary then measures the workload, checks every output, and this
script prints its report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The exit status is 0 only when every output was right and
every canary was caught. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("syscall_mix", "http_c10k", "bytecode_exec")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds svabench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no SVA sources next to perfbench/ (expected src/CMakeLists.txt)")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "svabench", "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(out, "svabench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(binary, args, extra=()):
    """Runs the binary; returns (exit code, report lines, result dict)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += list(extra)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if not lines:
        fail("benchmark printed nothing (exit %d)" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark's last line is not JSON: " + lines[-1][:200])
    return done.returncode, lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    binary = build()
    want = expected_metrics(args.trace)
    spans = os.path.join(build_dir(), "spans")
    os.makedirs(spans, exist_ok=True)
    code, report, result = run(binary, args, ["--span-dir", spans])

    metrics = result.get("metrics", {})
    if set(metrics) != set(want):
        fail("metric set differs from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(want) - set(metrics)),
                sorted(set(metrics) - set(want))), 3)
    for name, unit in want.items():
        if metrics[name]["unit"] != unit:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, metrics[name]["unit"], unit), 3)

    for line in report:
        print(line)
    print("workload %s, seed %d, %s run: attempted %d, failed %d"
          % (args.workload, args.seed, "traced" if args.trace else "untraced",
             result["attempted"], result["failed"]))
    for name in sorted(metrics):
        print("  %-40s %18.6f %s" % (name, metrics[name]["value"],
                                     metrics[name]["unit"]))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    if code != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()

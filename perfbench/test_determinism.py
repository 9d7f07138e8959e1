#!/usr/bin/env python3
"""Tests of the benchmark's own code: seeding, deterministic counts, canaries.

    python3 perfbench/test_determinism.py

Builds svabench like perfbench/run.py does, then, for every workload:
  * the same seed gives the same operation sequence and identical
    deterministic counts on two runs;
  * a different seed gives a different sequence;
  * a run whose safety canary is disarmed (so nothing is caught) fails.
Exits 0 when every check holds.
"""
import json
import subprocess
import sys

import run

# Operations per run: enough that every workload injects several canaries
# (one in 2048 or 4096 operations on average).
OPS = 24576
# Counts that must repeat exactly for a given seed, per workload.
DETERMINISTIC = {
    "syscall_mix": ["kernel.syscalls_per_op", "runtime.checks_per_op",
                    "runtime.registrations_per_op", "runtime.failed_checks"],
    "http_c10k": ["kernel.syscalls_per_op", "runtime.checks_per_op",
                  "net.tx_frames_per_req", "net.rx_violations"],
    "bytecode_exec": ["svm.steps_per_call", "runtime.checks_per_op",
                      "safety.checks_inserted", "runtime.failed_checks"],
}
# The count that shows the canaries fired (and were caught).
CANARY_COUNT = {
    "syscall_mix": "runtime.failed_checks",
    "http_c10k": "net.rx_violations",
    "bytecode_exec": "runtime.failed_checks",
}


def fixed_run(binary, workload, seed, disarm=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "0", "--ops", str(OPS)]
    if disarm:
        cmd.append("--disarm-canary")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
    return done.returncode, json.loads(done.stdout.splitlines()[-1])


def main():
    binary = run.build()
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload, keys in DETERMINISTIC.items():
        code_a, a = fixed_run(binary, workload, 7)
        code_b, b = fixed_run(binary, workload, 7)
        _, c = fixed_run(binary, workload, 8)
        check(code_a == 0 and a["correct"] and a["failed"] == 0,
              "%s: seeded run is correct" % workload)
        check(a["digests"] == b["digests"],
              "%s: same seed, same operation sequence" % workload)
        for key in keys:
            check(a["metrics"][key]["value"] == b["metrics"][key]["value"],
                  "%s: same seed, same %s (%r)"
                  % (workload, key, a["metrics"][key]["value"]))
        check(a["digests"]["sequence"] != c["digests"]["sequence"],
              "%s: another seed, another operation sequence" % workload)
        caught = a["metrics"][CANARY_COUNT[workload]]["value"]
        check(caught > 0, "%s: canaries fired and were caught (%d)"
              % (workload, caught))
        code_d, d = fixed_run(binary, workload, 7, disarm=True)
        check(code_d != 0 and not d["correct"] and d["failed"] > 0,
              "%s: an uncaught canary fails the run" % workload)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Shows that the benchmark's correctness checks can fail.

Runs each workload once cleanly (it must pass, with no failed operation)
and then with a fault injected into the benchmark's record of the
program's outputs (it must fail: a non-zero exit, "correct": false and at
least one failed operation):

    flip  one served verdict has one node's decision flipped
    drop  one response is dropped
    dup   one response is recorded twice (a duplicated seq)

Usage (from the repository root): python3 perfbench/selftest.py
Exits 0 when every case behaves as expected.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

CASES = [
    ("batch_t8", None), ("delta_stream", None), ("serve_open_loop", None),
    ("serve_open_loop", "flip"), ("serve_open_loop", "drop"),
    ("serve_open_loop", "dup"), ("batch_t8", "flip"), ("batch_t8", "drop"),
    ("delta_stream", "flip"), ("delta_stream", "dup"),
]


def run(workload, inject):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", "0"]
    if inject:
        command += ["--inject", inject]
    proc = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=600)
    lines = proc.stdout.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
        return proc.returncode, result["correct"], result["failed"]
    except (IndexError, ValueError, KeyError):
        return proc.returncode, None, None


def main():
    ok = True
    for workload, inject in CASES:
        code, correct, failed = run(workload, inject)
        if inject is None:
            good = code == 0 and correct is True and failed == 0
        else:
            good = code != 0 and correct is False and failed is not None \
                and failed > 0
        ok = ok and good
        print("%-16s %-6s exit=%d correct=%s failed=%s  %s" % (
            workload, inject or "clean", code, correct, failed,
            "ok" if good else "UNEXPECTED"))
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

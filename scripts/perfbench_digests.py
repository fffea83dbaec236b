#!/usr/bin/env python3
"""Runs the workload benchmark's selftest and checks its seed-1 digests.

Run from the repository root:

    python3 scripts/perfbench_digests.py

It runs `python3 perfbench/run.py --selftest`, echoing its output, and fails
unless the selftest passes and every workload's seed-1 digest (its
"seed 1, 2 threads" row) equals the value pinned below.  On a mismatch it
names each workload whose digest drifted.  A change that is meant to alter
simulated results re-pins the digests here and says so in CHANGES.md.
"""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINNED = {
    "map": "96b5177d3edea917",
    "elastic": "3ba2b080a7a7fa1e",
    "serve": "2a56c46e661615ad",
    "serve_traced": "2a5ee913436f1c70",
}
# The selftest's first row per workload: `<workload> seed 1, 2 threads
# digest=<hex> ok|FAILED`.
ROW = re.compile(r"^(\w+)\s+seed 1, 2 threads\s+digest=(\w+)")


def main():
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--selftest"]
    digests = {}
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            row = ROW.match(line)
            if row:
                digests[row.group(1)] = row.group(2)
    ok = proc.returncode == 0
    if not ok:
        print(f"perfbench_digests: the selftest failed "
              f"(exit {proc.returncode})", file=sys.stderr)
    for workload, pinned in PINNED.items():
        got = digests.get(workload)
        if got != pinned:
            ok = False
            print(f"perfbench_digests: {workload} drifted: seed-1 digest "
                  f"{got}, pinned {pinned}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

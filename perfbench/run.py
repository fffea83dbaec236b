#!/usr/bin/env python3
"""Builds and runs the MARS workload benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload map --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --selftest

A run builds the `perfbench` crate next to this file in release mode
(`cargo build --offline`, into `$CARGO_TARGET_DIR`, default `.bench_build`),
then runs it with `MARS_THREADS` set to the benchmark's worker-thread count.
Its standard output is the benchmark's; the last line is the JSON result.
If the build fails the script exits with cargo's status and prints no result.

`--selftest` checks, for every workload, that the simulated-output digest is
identical across two runs at one seed, at 1 and 2 worker threads, and with
tracing on; that a second seed also passes every check; and that the printed
metric names match `BENCHMARK.json`.  It prints the simulated metrics at both
seeds.
"""

import argparse
import json
import os
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["map", "elastic", "serve", "serve_traced"]
# Worker threads of every workload: the searches' `with_threads` and the
# sharded simulations' `MARS_THREADS`.
THREADS = 2
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark binary and returns its path; exits on failure."""
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        # Cargo's own output goes to stderr, so stdout stays the benchmark's.
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: building the benchmark failed: {e}", file=sys.stderr)
        sys.exit(3)
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    return target.resolve() / "release" / "perfbench"


def bench_args(workload, seed, seconds, trace):
    return ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--out-dir", str(ROOT / ".bench_out")]


def run(binary, args, threads=THREADS, capture=False):
    """Runs the benchmark binary; returns the completed process."""
    env = dict(os.environ, MARS_THREADS=str(threads))
    try:
        return subprocess.run([str(binary), *args], env=env, text=True,
                              capture_output=capture, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: the benchmark ran past {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        sys.exit(124)


def selftest(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    ok = True
    for workload in WORKLOADS:
        digests = {}
        for label, threads, seed, trace in [
                ("seed 1, 2 threads", 2, 1, 0),
                ("seed 1, 2 threads, again", 2, 1, 0),
                ("seed 1, 1 thread", 1, 1, 0),
                ("seed 1, 2 threads, traced", 2, 1, 1),
                ("seed 2, 2 threads", 2, 2, 0)]:
            proc = run(binary, bench_args(workload, seed, 0, trace), threads,
                       capture=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            digest = re.search(r"^digest=(\w+)", proc.stdout, re.M)
            sim = re.search(r"^sim: (.*)$", proc.stdout, re.M)
            good = (proc.returncode == 0 and result.get("correct") is True
                    and list(result.get("metrics", {})) == names[trace])
            ok &= good
            digests[label] = digest.group(1) if digest else None
            print(f"{workload:13} {label:26} digest={digests[label]} "
                  f"{'ok' if good else 'FAILED'}"
                  + (f"  {sim.group(1)}" if sim and trace == 0 else ""))
        same_seed = [d for label, d in digests.items()
                     if label.startswith("seed 1")]
        if None in same_seed or len(set(same_seed)) != 1:
            ok = False
            print(f"{workload}: digests differ at seed 1: {same_seed}")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    binary = build()
    if args.selftest:
        return selftest(binary)
    proc = run(binary, bench_args(args.workload, args.seed, args.seconds,
                                  args.trace))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

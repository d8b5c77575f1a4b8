#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the real stack.

    python3 bench/e2e/run.py --workload rr1_tcp64 --seed 1 --seconds 10 --trace 0

Configures and builds bench/e2e (a CMake package that compiles ../../src)
under .bench_build/e2e at the checkout root, runs ldlp_e2e, and passes its
standard output through: human-readable metrics, then one JSON line with
"correct", "attempted", "failed" and "metrics". Build output goes to
standard error. The exit code is the benchmark's (0 only when every check
passed); it is non-zero without a result line when the build fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
# The benchmark itself stays under three minutes; the build may not.
RUN_TIMEOUT_S = 175


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="one workload (default: all)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", choices=["0", "1"],
                   help="0: end-to-end metrics, 1: per-layer metrics")
    return p.parse_args()  # unknown flags exit with status 2


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    # A configure that failed leaves a cache but no build file; redo it.
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "ldlp_e2e",
                    "-j", jobs], stdout=sys.stderr, check=True)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this --trace mode."""
    spec = ROOT / "BENCHMARK.json"
    if trace is None or not spec.exists():
        return None
    key = "end_to_end" if trace == "0" else "per_layer"
    return {m["name"] for m in json.loads(spec.read_text())[key]}


def main():
    args = parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1
    cmd = [str(BUILD / "ldlp_e2e"), "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--out_dir", str(BUILD / "out")]
    if args.workload:
        cmd += ["--workload", args.workload]
    if args.trace is not None:
        cmd += ["--trace", args.trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: ldlp_e2e timed out", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    want = expected_metrics(args.trace) if args.workload else None
    if want is not None and proc.returncode == 0:
        got = set(json.loads(proc.stdout.splitlines()[-1])["metrics"])
        if got != want:
            print(f"run.py: metrics differ from BENCHMARK.json: "
                  f"missing {sorted(want - got)}, extra {sorted(got - want)}")
            return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

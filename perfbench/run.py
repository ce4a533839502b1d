#!/usr/bin/env python3
"""Build perfbench, generate a workload's inputs from the seed, run it.

    python3 perfbench/run.py --workload compare-wide --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Everything it builds or writes goes under
.bench_build/ in that checkout: the Go build cache, the binary, the generated
inputs and the trace files. The last line of standard output is the result
JSON; build and generation output goes to standard error. Exits non-zero
without a result when the build, the generation or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["compare-wide", "serve-small", "lake-rank"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
        GOTELEMETRY="off",
        GOTMPDIR=os.path.join(BUILD, "tmp"),
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    inputs = os.path.join(BUILD, "inputs", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(inputs, ignore_errors=True)
    gen = subprocess.run([binary, "gen", "--workload", args.workload,
                          "--seed", str(args.seed), "--dir", inputs],
                         cwd=ROOT, env=env, stdout=sys.stderr)
    if gen.returncode != 0:
        print("run.py: input generation failed", file=sys.stderr)
        return 1

    run = subprocess.run([binary, "run", "--workload", args.workload,
                          "--seed", str(args.seed), "--seconds", str(args.seconds),
                          "--trace", str(args.trace), "--dir", inputs, "--out", BUILD],
                         cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

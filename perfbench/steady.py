#!/usr/bin/env python3
"""Steadiness tool: run one workload over several seeds, report each metric's spread.

    python3 perfbench/steady.py --workload serve-small --seeds 1-10 --save a.json
    python3 perfbench/steady.py --workload serve-small --seeds 11-20 --against a.json

Each run is a fresh process (perfbench/run.py). For every metric it prints the
median, the first and third quartiles (statistics.quantiles(values, n=4)), the
spread (q3 - q1) / median, and the metric's bound from BENCHMARK.json. A
spread under a third of the bound is steady. With --against it also compares
this set's medians with a saved set's: "worse" is the change in the metric's
bad direction as a share of the saved median, which must stay within the bound.
Exits non-zero if any run fails or any check misses.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(s):
    out = []
    for part in s.split(","):
        if "-" in part:
            a, b = part.split("-")
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--save", help="write this set's values to a JSON file")
    ap.add_argument("--against", help="compare medians with a set saved by --save")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    values = {}
    ok = True
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", str(args.trace)]
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            print(f"seed {seed}: run failed (exit {p.returncode})")
            ok = False
            continue
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            ok = False
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
              flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    saved = {}
    if args.against:
        with open(args.against) as f:
            saved = json.load(f)
    print(f"\n{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else float("inf")
        m = spec.get(name, {})
        bound = m.get("bound")
        verdict = ""
        if bound is not None:
            if spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound, not steady"
            else:
                verdict = "TOO NOISY"
                ok = False
            if name in saved:
                old = statistics.median(saved[name])
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                agree = worse <= bound
                ok = ok and agree
                verdict += f"; vs saved median {old:.6g}: worse by {worse:+.2%} -> {'agrees' if agree else 'DISAGREES'}"
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} {bound if bound is not None else '':>6}  {verdict}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

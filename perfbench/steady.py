#!/usr/bin/env python3
"""Steadiness of the benchmark: run workloads N times and report spreads.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 [--seed0 1] [--workload table1-sweep ...]
                                [--out DIR] [--baseline DIR]

Each run uses the command, run length and metrics of BENCHMARK.json, with
seeds seed0, seed0+1, ... For every end-to-end metric of every workload it
prints the median, the first and third quartiles (statistics.quantiles with
n=4) and the spread (q3 - q1) / median, next to the metric's bound, as a
Markdown table. With --baseline, it also prints how far each median moved
in the metric's worse direction from the set saved in that directory, as a
share of the baseline median.

A metric is OVER when its spread, or its median's move against the
baseline, exceeds its bound; a spread above a third of the bound is marked
wide, which does not fail the set. The failed/attempted share must be the
same in every run of a workload and of the baseline. Every run's result
line is saved to DIR/steady-<workload>.json (default perfbench/out).
Exits 1 if any run is incorrect or fails, any share differs, or any metric
is OVER.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(bench, workload, seed, trace=0):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def summary(results, name):
    vals = [r["metrics"][name]["value"] for r in results]
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def fail_shares(results):
    return {r["failed"] / r["attempted"] for r in results}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--out", default="perfbench/out",
                    help="directory the runs' results are saved to")
    ap.add_argument("--baseline",
                    help="directory holding an earlier set's results to compare medians with")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bad = False
    os.makedirs(args.out, exist_ok=True)
    for w in workloads:
        results = []
        for k in range(args.runs):
            seed = args.seed0 + k
            r = run_once(bench, w, seed)
            if not r["correct"]:
                print(f"{w} seed {seed}: INCORRECT", file=sys.stderr)
                bad = True
            results.append(r)
            print(f"  {w} seed {seed} done", file=sys.stderr, flush=True)
        with open(os.path.join(args.out, f"steady-{w}.json"), "w") as f:
            json.dump({"seeds": list(range(args.seed0, args.seed0 + args.runs)),
                       "results": results}, f, indent=1)
        base = None
        if args.baseline:
            with open(os.path.join(args.baseline, f"steady-{w}.json")) as f:
                base = json.load(f)["results"]
        shares = fail_shares(results) | (fail_shares(base) if base else set())
        correct = all(r["correct"] for r in results)
        print(f"\n`{w}`, seeds {args.seed0}..{args.seed0 + args.runs - 1}, "
              f"every run correct: {correct}, failed/attempted {sorted(shares)}:\n")
        if len(shares) > 1:
            bad = True
        head = "| metric | median | q1 | q3 | spread | bound |"
        rule = "|---|---|---|---|---|---|"
        if base:
            head += " move |"
            rule += "---|"
        print(head + "\n" + rule)
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            med, q1, q3, spread = summary(results, name)
            over = spread > bound
            mark = " OVER" if over else (" wide" if spread > bound / 3 else "")
            cells = [f"`{name}`", f"{med:.4g}", f"{q1:.4g}", f"{q3:.4g}",
                     f"{spread:.3f}{mark}", f"{bound}"]
            if base:
                bmed = summary(base, name)[0]
                worse = (med - bmed) if better[name] == "lower" else (bmed - med)
                move = worse / bmed
                cells.append(f"{move:+.3f}" + (" OVER" if move > bound else ""))
                over = over or move > bound
            bad = bad or over
            print("| " + " | ".join(cells) + " |")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()

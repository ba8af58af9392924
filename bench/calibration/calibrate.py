#!/usr/bin/env python3
"""Calibration runs of the repository benchmark.

Runs the command of BENCHMARK.json several times per workload, each run
with its own seed, alternating the workload order from round to round,
and keeps every run's full output. For each end-to-end metric it then
prints the median over the runs and the spread: the distance between
the first and third quartiles (statistics.quantiles, n=4) as a share of
the median. With --baseline it also compares each median with the
medians of an earlier set, against the metric's bound.

Run from the root of the repository:

    python3 bench/calibration/calibrate.py --runs 10 --out .bench_build/set-a
    python3 bench/calibration/calibrate.py --runs 10 --first-seed 11 \\
        --out .bench_build/set-b --reverse --baseline .bench_build/set-a/summary.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    p = subprocess.run(args, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{' '.join(args)}: exit {p.returncode}\n{p.stdout}\n{p.stderr}")
    return p.stdout, json.loads(lines[-1]), wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload, each with its own seed")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--reverse", action="store_true", help="start with the last workload")
    ap.add_argument("--out", help="directory for each run's output and summary.json")
    ap.add_argument("--baseline", help="summary.json of an earlier set to compare medians with")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] if a.trace == 0 else spec["per_layer"]
    if a.out:
        os.makedirs(a.out, exist_ok=True)

    values = {w: {m["name"]: [] for m in metrics} for w in names}
    walls = []
    for r in range(a.runs):
        order = names if (r % 2 == 0) != a.reverse else names[::-1]
        for w in order:
            seed = a.first_seed + r
            out, res, wall = run_once(spec["command"], w, seed, spec["run_seconds"], a.trace)
            walls.append(wall)
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}\n{out}")
            for m in metrics:
                values[w][m["name"]].append(res["metrics"][m["name"]]["value"])
            if a.out:
                with open(os.path.join(a.out, f"{w}-trace{a.trace}-seed{seed}.txt"), "w") as f:
                    f.write(out)
            print(f"{w:16s} seed {seed:3d}  {wall:5.1f} s", file=sys.stderr)

    base = None
    if a.baseline:
        with open(a.baseline) as f:
            base = json.load(f)["medians"]
    summary = {"runs": a.runs, "medians": {}, "spreads": {}, "values": values,
               "wall_s": {"max": max(walls), "median": statistics.median(walls)}}
    ok = True
    print(f"{'workload':16s} {'metric':30s} {'median':>14s} {'spread':>8s} {'bound':>6s}  verdict")
    for w in names:
        summary["medians"][w], summary["spreads"][w] = {}, {}
        for m in metrics:
            n = m["name"]
            vs = values[w][n]
            med, sp = spread(vs) if len(vs) > 1 else (vs[0], 0.0)
            summary["medians"][w][n], summary["spreads"][w][n] = med, sp
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "steady" if sp < bound / 3 else ("within bound" if sp <= bound else "TOO NOISY")
                if n == "setup_s":
                    verdict = "(setup)"
                if base is not None:
                    b = base[w][n]
                    worse = (med - b) / b if m["better"] == "lower" else (b - med) / b
                    verdict += f"; vs baseline {worse:+.3f}" + (" REGRESSED" if worse > bound else "")
                    ok = ok and worse <= bound
                ok = ok and (n == "setup_s" or sp <= bound)
            print(f"{w:16s} {n:30s} {med:14.6g} {sp:8.4f} {bound if bound is not None else '':>6}  {verdict}")
    print(f"wall time per run: median {summary['wall_s']['median']:.1f} s, max {summary['wall_s']['max']:.1f} s")
    if a.out:
        with open(os.path.join(a.out, "summary.json"), "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs perfbench/run.py once per seed on one workload and reports, per metric,
the median of the runs and the distance between their first and third
quartiles (statistics.quantiles(values, n=4)) as a share of that median,
next to the metric's bound in BENCHMARK.json. Run from the repository root:

    python3 perfbench/spread.py --workload matrix --seeds 1-10
    python3 perfbench/spread.py --workload matrix --seeds 11-20 --baseline a.json

--save FILE keeps the medians; --baseline FILE compares this set's medians
with a saved set's (a worsening beyond the bound is flagged). Exit code 1
when a spread (set-up time excepted) or a median drift exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"seed {seed}: incorrect result {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--save")
    ap.add_argument("--baseline")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        runs.append(run_once(args.workload, seed, bench["run_seconds"]))
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()),
              flush=True)

    base = None
    if args.baseline:
        with open(args.baseline) as f:
            base = json.load(f)
    ok = True
    medians = {}
    print(f"\n{'metric':<16}{'median':>14}{'IQR/median':>12}{'bound':>8}  verdict")
    for name, m in spec.items():
        values = [r[name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        medians[name] = med
        verdict = "ok" if spread < m["bound"] / 3 else "wide" if spread <= m["bound"] else "TOO WIDE"
        if name == "setup_s":
            verdict = "(set-up: spread not bounded)"
        elif spread > m["bound"]:
            ok = False
        if base is not None and name in base:
            worse = (med - base[name]) / base[name]
            if m["better"] == "higher":
                worse = -worse
            verdict += f"; worse than baseline by {worse:+.1%}"
            if worse > m["bound"]:
                verdict += " REGRESSED"
                ok = False
        print(f"{name:<16}{med:>14.6g}{spread:>12.3f}{m['bound']:>8}  {verdict}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

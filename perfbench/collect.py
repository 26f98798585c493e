#!/usr/bin/env python3
"""Run every workload over several seeds and write one point of the trajectory.

    python3 perfbench/collect.py --out perfbench/results/BENCH_<commit>.json [--workload NAME ...]

Run from the repository root.  Each run is a separate `run.py` process with
its own seed (0, 10, ..., 90; a run trains with at most 10 consecutive
seeds, so no two runs share one), one at a time.  The file holds, per
workload and end-to-end metric, every value, the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, then the
per-layer metrics and span table of one traced run with seed 0.  It
prints each spread next to its bound in BENCHMARK.json as it goes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 180
RUNS = 10
SEED_STRIDE = 10
SEEDS = [SEED_STRIDE * i for i in range(RUNS)]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    machine = next(json.loads(line.split(":", 1)[1]) for line in lines
                   if line.startswith("machine:"))
    return json.loads(lines[-1]), machine


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    out = {"run_seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for name in names:
        runs = []
        for seed in SEEDS:
            t0 = time.perf_counter()
            result, out["machine"] = run_once(name, seed, spec["run_seconds"], 0)
            runs.append(result)
            print(f"{name} seed={seed} ({time.perf_counter() - t0:.1f} s) "
                  f"correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        metrics = {}
        for metric, bound in bounds.items():
            s = summarize([r["metrics"][metric]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][metric]["unit"]
            metrics[metric] = s
            print(f"  {name} {metric}: median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"(bound {bound}, a third {bound / 3:.4f})", flush=True)
        result, _ = run_once(name, SEEDS[0], spec["run_seconds"], 1)
        with open(os.path.join(HERE, "out", f"layers_{name}.json")) as fh:
            table = json.load(fh)["table"]
        traced = {"seed": SEEDS[0], "correct": result["correct"],
                  "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                  "table": table}
        print(f"  {name} traced seed={SEEDS[0]}: overhead "
              f"{result['metrics']['trace.overhead_frac']['value']:.4f}, unattributed "
              f"{result['metrics']['trace.unattributed_frac']['value']:.4f}", flush=True)
        out["workloads"][name] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "traced": traced,
        }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Measure the test_ber references that the correctness gate compares against.

    python3 perfbench/calibrate.py [--workload NAME ...]

Run from the repository root.  For each workload it runs one iteration
(workloads.run_iteration, without the BER gate) for seeds 0..99 and writes
perfbench/reference.json: the default seed's BER and the mean and standard
deviation over the seeds.  The committed file was measured on the seed
commit; regenerate it only when a change is meant to move BER, and say so.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import machine

ROOT = os.getcwd()
SEEDS = range(100)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    machine.cap_blas_threads()
    if not machine.use_checkout_src(ROOT):
        print("error: run from a checkout that holds src/ecctlab", file=sys.stderr)
        return 2
    import workloads

    names = args.workload or list(workloads.WORKLOADS)
    try:
        with open(workloads.REFERENCE_PATH) as fh:
            out = json.load(fh)
    except FileNotFoundError:
        out = {"workloads": {}}
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                                text=True, cwd=ROOT).stdout.strip() or None
    except OSError:
        commit = None
    for name in names:
        bers = []
        for seed in SEEDS:
            t0 = time.perf_counter()
            bers.append(workloads.run_iteration(workloads.WORKLOADS[name], seed, None).test_ber)
            print(f"{name} seed={seed} test_ber={bers[-1]:.6f} "
                  f"({time.perf_counter() - t0:.2f} s)", flush=True)
        out["workloads"][name] = {
            "default_seed_ber": bers[workloads.DEFAULT_SEED],
            "seed_mean_ber": statistics.fmean(bers),
            "seed_sd_ber": statistics.stdev(bers),
            "seeds": list(SEEDS),
            "bers": bers,
            "commit": commit,
        }
    out["machine"] = machine.machine_info()
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

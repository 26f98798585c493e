#!/usr/bin/env python3
"""ecctlab benchmark: one workload, one process, a closed loop with one caller.

    python3 perfbench/run.py --workload bch31_train --seed 0 --seconds 30 --trace 0

Run from the repository root; ecctlab is imported from ./src.  The run first
times SETUP_PROBES fresh set-up processes (setup_s), then repeats the
workload's iteration (workloads.run_iteration) until the next one would end
after --seconds, and at least once per training seed: iteration k uses seed
--seed + k mod Workload.seeds, and test_ber is the mean BER over those
seeds, since one trained model's BER varies from seed to seed.  Every
iteration is checked, and so is the run's mean BER; a failed check counts
in `failed`.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced iterations, at least two of each, prints the per-layer metrics of the
traced ones and the tracing overhead, and writes the spans to perfbench/out/
at exit.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import machine

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60.0
TRACE_MIN_PAIRS = 2     # untraced/traced iteration pairs a traced run needs at least

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_samples_per_s": "1/s",
    "eval_samples_per_s": "1/s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
    "test_ber": "fraction",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Spawn-to-ready wall time of SETUP_PROBES fresh processes, one at a time."""
    times = []
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


def _median(values) -> float | None:
    finite = [v for v in values if v is not None and math.isfinite(v)]
    return statistics.median(finite) if finite else None


def run_loop(wl, seed: int, seconds: float, ref: dict, tracer=None):
    """Closed loop: start the next iteration only while it is expected to fit.

    It runs at least one iteration per training seed.  With a tracer,
    iterations alternate untraced and traced, and the loop ends only on a
    whole pair and after at least TRACE_MIN_PAIRS pairs.
    """
    import workloads

    min_iterations = max(wl.seeds, 2 * TRACE_MIN_PAIRS) if tracer else wl.seeds
    results = []
    t_begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(results) % 2 == 1
        if traced:
            tracer.install()
            root = tracer.begin_iteration()
        try:
            res = workloads.run_iteration(wl, seed + len(results) % wl.seeds, ref)
        finally:
            if traced:
                tracer.close(root)
                tracer.uninstall()
        results.append((traced, res))
        elapsed = time.perf_counter() - t_begin
        next_s = statistics.median(r.wall_s for _, r in results)
        done = len(results) >= min_iterations and elapsed + next_s > seconds
        if done and not (tracer is not None and len(results) % 2 == 1):
            return results


def end_to_end_metrics(wl, results, setup_times) -> dict:
    its = [r for _, r in results]
    bers = [r.test_ber for r in its[:wl.seeds]]
    return {
        "setup_s": _median(setup_times),
        "train_samples_per_s": _median(wl.train_samples / r.train_s for r in its),
        "eval_samples_per_s": _median(wl.n_eval / r.eval_s for r in its),
        "verify_s": _median(r.verify_s for r in its),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_ber": statistics.fmean(bers) if all(map(math.isfinite, bers)) else None,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    machine.cap_blas_threads()
    if not machine.use_checkout_src(ROOT):
        print("error: run from a checkout that holds src/ecctlab", file=sys.stderr)
        return 2
    import layers
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    ref = workloads.load_reference(wl.name)
    print("machine: " + json.dumps(machine.machine_info(), sort_keys=True), flush=True)

    setup_times = measure_setup(wl.name, args.seed)
    tracer = spans.Tracer() if args.trace else None
    results = run_loop(wl, args.seed, args.seconds, ref, tracer)

    checks = [r for _, r in results]
    checks.append(workloads.check_run_ber(wl, checks, ref))
    attempted = sum(r.attempted for r in checks)
    failed = sum(r.failed for r in checks)
    for k, r in enumerate(checks):
        where = f"iteration {k}" if k < len(results) else "run"
        for msg in r.failures:
            print(f"FAILED {where}: {msg}", file=sys.stderr)

    if args.trace:
        table, metrics = layers.per_layer_metrics(tracer, results)
        layers.print_table(table)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.save(os.path.join(OUT_DIR, f"trace_{wl.name}.npz"))
        with open(os.path.join(OUT_DIR, f"layers_{wl.name}.json"), "w") as fh:
            json.dump({"workload": wl.name, "seed": args.seed, "table": table,
                       "metrics": metrics}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        units = layers.PER_LAYER_UNITS
    else:
        metrics = end_to_end_metrics(wl, results, setup_times)
        units = END_TO_END_UNITS

    print(f"workload {wl.name} seed {args.seed}: {len(results)} iterations, "
          f"{attempted} operations, {failed} failed, "
          f"error_rate {failed / max(attempted, 1):.6g}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value!r:>24} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and all(v is not None for v in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

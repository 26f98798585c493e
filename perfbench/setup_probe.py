#!/usr/bin/env python3
"""Child process whose lifetime up to "ready" is one set-up sample.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Run from the repository root (run.py starts it).  It imports ecctlab, builds
the workload's code, mask, config and initial weights, prints "ready" and
exits; run.py times it from spawn to that line.
"""

import os
import sys

import machine


def main() -> int:
    if not machine.use_checkout_src(os.getcwd()):
        print("error: run from a checkout that holds src/ecctlab", file=sys.stderr)
        return 2
    import workloads

    workloads.setup(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

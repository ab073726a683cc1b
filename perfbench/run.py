"""Benchmark entry point.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload closed-loop-proposed --seed 1 --seconds 28 --trace 0

Workloads: closed-loop-proposed, closed-loop-optimal, certify, sweep-cli (see
perfbench/README.md). With
``--trace 0`` the last line of standard output is the result object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics.

Each run happens in a fresh worker process started with one BLAS/OpenMP
thread and a fixed string-hash seed, so that runs differ only in the seeded
inputs; this process records the clock just before starting it, which is
where ``setup_s`` begins.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

WORKLOADS = ("closed-loop-proposed", "closed-loop-optimal", "certify", "sweep-cli")
# The worker must end well inside the 180 s a run may take.
WORKER_TIMEOUT_S = 170

STEADY_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="redmpc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must lie in (0, 120]")

    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    command = [sys.executable, worker, "--workload", args.workload, "--seed", str(args.seed)]
    command += ["--seconds", repr(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, **STEADY_ENV, PERFBENCH_T0_NS=str(time.monotonic_ns()))
    try:
        return subprocess.run(command, env=env, timeout=WORKER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Set up one workload in a fresh interpreter, the way a benchmark run does.

    python3 bench/cold_start.py <workload> <seed> <workdir>

Imports the harness (numpy, scipy, ``eakf``), makes the workload's inputs,
builds what it builds once, runs one warm-up op, and prints the system-wide
monotonic clock at the moment the first timed op would start. The harness
spawns this script several times per run and reports the median time from
spawn to that moment as ``setup_s``, so every repetition pays the process's
one-time costs: interpreter start, imports, first LAPACK calls, lazy loads.
"""

import sys
import time
from pathlib import Path

from run import pin_blas_threads


def main() -> None:
    pin_blas_threads()
    from harness import WORKLOADS

    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workload = WORKLOADS[name]()
    workload.setup(seed, workdir)
    workload.op(0)
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))


if __name__ == "__main__":
    main()

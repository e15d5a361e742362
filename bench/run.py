"""Benchmark of the eakf analysis step; see README.md in this directory.

Run from the repository root:

    python3 bench/run.py --workload large_state --seed 1 --seconds 25 --trace 0

The last line of standard output is the result object; the line before it is
the environment record. Exit code 0 means the run finished and every metric
was printed; any other code means no result was printed.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Pin BLAS to one thread; numpy reads these only when it is first imported."""
    if "numpy" in sys.modules and any(os.environ.get(var) != "1" for var in THREAD_VARS):
        raise SystemExit("error: numpy was imported before the BLAS thread variables were set to 1")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def main(argv=None) -> int:
    pin_blas_threads()
    import argparse
    import json

    try:
        import harness
    except ImportError as exc:
        print(f"error: cannot import the eakf package from this checkout: {exc}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="EAKF analysis-step benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run, per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")

    result, record = harness.run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

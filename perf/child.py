"""One cold pass of one workload in a fresh process.

Launched by ``run.py`` (never by hand) with ``PYTHONPATH=src``, the BLAS
thread caps and the allocator settings already in the environment, so they
are set before NumPy is imported.  Writes the pass record as JSON to ``--result``; whatever the
program prints (the profile report of the supervised workload) goes to the
log file ``run.py`` redirects stdout to.
"""

import time

T_START = time.perf_counter()  # before any heavy import: set-up starts here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t-end", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    import seams
    from workloads import WORKLOADS

    os.makedirs(args.out_dir, exist_ok=True)
    record = seams.run_pass(WORKLOADS[args.workload], args.seed, args.t_end,
                            bool(args.trace), args.out_dir, T_START)
    tmp = args.result + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    os.replace(tmp, args.result)


# the fleet workload spawns workers that re-import this file as __mp_main__
if __name__ == "__main__":
    main()

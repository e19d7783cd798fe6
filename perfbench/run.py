#!/usr/bin/env python3
"""grt benchmark: one closed-loop client driving the library in-process.

Run from the root of a grt checkout:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

Workloads:
  suite       the 37 problems of benchmarks/generated/ in seed-permuted order
  many-small  a seed-drawn set of training-distribution problems

--trace 0 prints the end-to-end metrics; --trace 1 runs each lane of each
problem traced, reruns the quick lanes untraced and traced for the tracing
overhead, and prints the per-layer metrics, with the spans written to
.bench_out/. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit status is 1
when any output fails its check, 2 when the directory is not a grt checkout.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One BLAS thread: the model's matrices are small, and a second thread only
# adds run-to-run noise on a machine shared with other work. Set for every
# common BLAS before numpy is imported, which reads them once; the run reports
# the count the loaded library gives back.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("suite", "many-small")
REQUIRED = ("src/grt/__init__.py", "tests/oracles.py", "benchmarks/generated/manifest.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"not a grt checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    # The library and the reference interpreter come from this checkout only.
    sys.path[:0] = [str(root / "src"), str(root / "tests"), str(HERE)]

    import harness

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), root)


if __name__ == "__main__":
    sys.exit(main())

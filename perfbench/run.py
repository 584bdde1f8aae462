#!/usr/bin/env python3
"""Seeded time-to-tolerance benchmark for the kaczmarz package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense-multitrial --seed 1 --seconds 36 --trace 0

The workloads are defined, with the reason for each, in ``workloads.py``.  One
process runs one workload as a closed loop: it builds the problem from the
seed, then repeats timed passes over the workload's methods for about
``--seconds`` seconds.  Every solve is checked, and every pass must repeat the
first pass's iteration counts and certificate outcomes.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` first makes one
untimed pass that digests every solve's selection sequence, then wraps the
package's public layer functions (see ``bench.trace_targets``) and reports the
per-layer split instead.  The line before the last holds the environment,
sample counts, every per-variant number and the correctness detail.  The last
line of standard output is the result object.  The exit code is 0 only when
every solve passed the gate, and 2 when no package source is found.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

# BLAS threads are fixed before numpy loads; at most this many, and no more
# than the CPUs this process may use.
BLAS_THREADS = 2


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SOURCE / "kaczmarz" / "__init__.py").is_file():
        print(f"perfbench: package source not found at {SOURCE / 'kaczmarz'}", file=sys.stderr)
        return 2
    threads = max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SOURCE))

    import bench

    return bench.main(args, threads)


if __name__ == "__main__":
    sys.exit(main())

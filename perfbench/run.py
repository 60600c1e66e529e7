#!/usr/bin/env python3
"""Closed-loop benchmark of softcell Monte Carlo trials.

    python3 perfbench/run.py --workload desk_optimal --seed 1 --seconds 20 --trace 0

One process runs one trial at a time through ``simulate.run_trial``, the
per-task function of ``softcell-sim``, in whole passes over the workload's
fixed trial corpus until ``--seconds`` have elapsed.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs every trial untraced and traced, back to
back, and prints the per-layer split and the tracing overhead.  The last line
of standard output is one JSON object; the exit code is 1 when an output check
fails.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The IPM's iteration count depends on the BLAS thread count (paper trial 0
# takes 19 iterations at one thread and 22 at two), so it is pinned before
# numpy loads.  One thread never exceeds nproc.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)


def use_checkout_sources() -> None:
    """Import softcell from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))


if __name__ == "__main__":
    pin_threads()
    use_checkout_sources()
    import bench
    sys.exit(bench.main())

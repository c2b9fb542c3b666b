"""Run one benchmark workload; see perfbench/harness.py for the arguments.

BLAS threads are fixed to 1 in this process's own environment before numpy
loads, so timings do not depend on how many cores the machine lends out.
"""

import os
import sys
from pathlib import Path

BLAS_THREADS = "1"

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench.harness import main

    sys.exit(main())

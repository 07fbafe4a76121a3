#!/usr/bin/env python3
"""Run one slotgnn training benchmark measurement from the repository root.

    python3 perfbench/run.py --workload desk-full --seed 0 --seconds 30 --trace 0

The last line of standard output is the JSON result; the line before it
holds the run's details (library versions, dataset fingerprint, samples).
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# A fixed BLAS thread count keeps results independent of the core count and
# of other load on the machine; losses are the same to the bit either way.
BLAS_THREADS = "1"


def main() -> int:
    if not (ROOT / "src" / "slotgnn").is_dir():
        print(f"perfbench: no slotgnn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # must be set before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    return bench.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())

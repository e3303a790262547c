#!/usr/bin/env python3
"""Benchmark entry point: run from the root of a source checkout.

    python3 perfbench/run.py --workload synthetic --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

BLAS runs single-threaded, and the checkout's ``src/`` is put first on
the import path; both happen before numpy or ``sparselocal`` is imported.
One thread because the matrices are small: two OpenBLAS threads measured
no faster on ``digits``, and a second thread makes every BLAS call wait
for whichever core a neighbouring process is slowing down. Without a
``src/sparselocal`` tree next to this directory the run fails at once and
prints no result.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bootstrap():
    src = ROOT / "src"
    if not (src / "sparselocal" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sparselocal source tree at {src}; run from the root of a full checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))


if __name__ == "__main__":
    _bootstrap()
    from harness import main

    sys.exit(main(sys.argv[1:]))

"""Process set-up shared by every benchmark entry point; import it first.

Pins the BLAS/OpenMP thread pools to one thread, so the process runs at most
``workers`` compute threads, and puts the checkout's own ``src`` first on
``sys.path``, so the benchmark always measures the source next to it and
never an installed copy. Exits with code 2 when that source is missing.
"""

import os
import sys
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "levygrad" / "__init__.py").is_file():
    sys.stderr.write(f"benchmark: no levygrad source under {SRC}; run from a full checkout\n")
    sys.exit(2)
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

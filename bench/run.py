"""Entry point of the xlembed benchmark.

    python3 bench/run.py --workload train-short --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` and the sentence generator from ``tests/conftest.py``. The BLAS and
OpenMP thread pools are pinned to one thread before NumPy loads, so the
command refuses to run inside a process that has already imported NumPy.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every operation and every correctness check passed.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    if "numpy" in sys.modules:
        print("error: NumPy is already loaded, so its thread pools cannot be pinned",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    needed = (ROOT / "src" / "xlembed" / "__init__.py", ROOT / "tests" / "conftest.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a source checkout of xlembed, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    return harness.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

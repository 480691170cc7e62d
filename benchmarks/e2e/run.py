"""Script form of ``python -m benchmarks.e2e``, run from the repository
root as ``python3 benchmarks/e2e/run.py --workload NAME --seed N``."""

import sys
from pathlib import Path

# Import the package from the repository root, not from this directory.
sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())

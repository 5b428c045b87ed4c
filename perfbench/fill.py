"""Fill a run-all cache for ``runall-warm`` set-up, in a fresh interpreter.

Usage: ``python3 perfbench/fill.py SEED CACHE_DIR OUTPUT_DIR``.  Runs one
cold ``run_all`` pass with the workload's inputs for SEED; exits 1 if any
job failed.
"""

import sys
from pathlib import Path

from workloads import run_all_once, run_all_seed


def main(argv) -> int:
    seed, cache_dir, output_dir = int(argv[0]), Path(argv[1]), Path(argv[2])
    manifest = run_all_once(run_all_seed(seed), cache_dir, output_dir)
    return 1 if manifest.failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

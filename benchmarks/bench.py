#!/usr/bin/env python
"""Full-horizon kernel benchmarks: ``python benchmarks/bench.py``.

Thin wrapper over :mod:`repro.perf.bench` (the same harness behind
``python -m repro bench``) that works from a source checkout without an
install.  Writes ``BENCH_forksim.json`` / ``BENCH_eventloop.json`` at
the repo root and rendered tables under ``benchmarks/output/``; exits
nonzero when a result digest differs from its golden digest or a rate
falls below the committed baseline's.
"""

import pathlib
import sys

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.perf.bench import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())

"""Frozen golden digests of the analysis product.

The product is what ``run-all`` writes: the CSV and ``render()`` text of
figures 1-5 and the six-observation scoreboard.  This module recomputes
them through the harness runners (the same code ``run-all``, ``serve``
and the CLI reach) and compares against ``golden/analysis.json``, which
was recorded once and is never regenerated to make a change pass.  CSV
and render bytes are pinned as SHA-256 digests; observation details are
stored verbatim with floats as ``float.hex()`` so a mismatch names the
first differing quantity.

Runs without pytest, so any interpreter can check it::

    PYTHONPATH=src python3 tests/golden_analysis.py          # check
    PYTHONPATH=src python3 tests/golden_analysis.py --write  # record
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, Tuple

from repro.harness.jobs import (
    execute_job,
    figure_spec,
    observations_spec,
)
from repro.scenarios.partition_event import PartitionScenarioConfig
from repro.sim.engine import ForkSimConfig

GOLDEN_PATH = Path(__file__).with_name("golden") / "analysis.json"

#: The two ``tests/test_data_columnar.py`` configurations plus one sized
#: like ``run_all(days=2)``.
CONFIGS: Dict[str, ForkSimConfig] = {
    "12d-tx-s11": ForkSimConfig(
        days=12, prefork_days=3, seed=11, with_transactions=True
    ),
    "20d-notx-s42": ForkSimConfig(
        days=20, prefork_days=2, seed=42, with_transactions=False
    ),
    "runall-2d-s1": ForkSimConfig(days=2, prefork_days=7, seed=1),
}

#: Observation 1 reads only the partition scenario; a short horizon keeps
#: it cheap while still putting it on the scoreboard.
PARTITION = PartitionScenarioConfig(post_fork_horizon=600.0)


class _MemoryCache:
    """Shares one simulation and echo bundle across a config's jobs."""

    def __init__(self) -> None:
        self._values: Dict[str, Any] = {}

    def lookup(self, key: str) -> Tuple[bool, Any]:
        if key in self._values:
            return True, self._values[key]
        return False, None

    def store(self, key: str, value: Any) -> None:
        self._values[key] = value


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def observation_blob(observations) -> list:
    """The scoreboard as JSON-ready data, floats as ``float.hex()``."""
    return [
        {
            "number": o.number,
            "holds": o.holds,
            "details": {
                key: value.hex() if isinstance(value, float) else value
                for key, value in o.details.items()
            },
        }
        for o in observations
    ]


def figure_digests(figure, scratch: Path) -> Dict[str, str]:
    path = scratch / "figure.csv"
    figure.write_csv(path)
    return {
        "csv": _sha256(path.read_bytes()),
        "render": _sha256(figure.render().encode()),
    }


def compute(config: ForkSimConfig) -> Dict[str, Any]:
    """Every product digest for one simulation configuration."""
    cache = _MemoryCache()
    entry: Dict[str, Any] = {}
    with tempfile.TemporaryDirectory() as scratch:
        for number in (1, 2, 3, 4, 5):
            figure = execute_job(figure_spec(number, config), cache).value
            entry[f"figure_{number}"] = figure_digests(figure, Path(scratch))
    observations = execute_job(
        observations_spec(config, PARTITION), cache
    ).value
    entry["observations"] = observation_blob(observations)
    return entry


def load_golden() -> Dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


def first_mismatch(name: str, actual: Dict[str, Any]) -> str:
    """Empty when ``actual`` matches the golden entry, else where it differs."""
    expected = load_golden()[name]
    for key in expected:
        if actual.get(key) != expected[key]:
            return f"{name}: {key} differs: {actual.get(key)!r} != {expected[key]!r}"
    if set(actual) != set(expected):
        return f"{name}: keys {sorted(actual)} != {sorted(expected)}"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help="record the golden file"
    )
    args = parser.parse_args(argv)
    computed = {name: compute(config) for name, config in CONFIGS.items()}
    if args.write:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(computed, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
        return 0
    version = ".".join(map(str, sys.version_info[:3]))
    failed = False
    for name, entry in computed.items():
        problem = first_mismatch(name, entry)
        print(f"python {version} golden {name}: {'FAIL' if problem else 'ok'}")
        if problem:
            print(f"    {problem}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

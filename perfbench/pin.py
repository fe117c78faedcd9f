#!/usr/bin/env python3
"""Record the pinned output digests in ``digests.json``.

    python3 perfbench/pin.py

For every workload and for seeds 0 and 1 it runs one pass with the
program's default lanes and stores one digest per unit. The same units
also run with ``REPRO_FASTPATH=0 REPRO_BATCHPATH=0
REPRO_FLOWPATH=0`` (every unit on the event engine, aggregates on the
engine fan-in) and ``engine_check`` records, per workload and seed,
how many units the two lanes disagree on. The pins are always the
default lanes' outputs: they guard what the program produces now, and
a disagreement is a defect of the program to report, not a reason to
pin something else. Each (workload, seed, lane) runs in its own
interpreter so the lane switches never leak between them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import workloads
from checks import DIGESTS_PATH, digest

#: The default seed and one held-out seed.
SEEDS = (0, 1)
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
ENGINE_ENV = {"REPRO_FASTPATH": "0", "REPRO_BATCHPATH": "0", "REPRO_FLOWPATH": "0"}


def unit_digests(workload: str, seed: int) -> list[str]:
    """One pass of ``workload`` in this process, as the lane switches in the environment select."""
    if workload == "cold-point":
        out = subprocess.run(
            [sys.executable, "-m", "repro", *workloads.cold_argv(seed)],
            capture_output=True, text=True, check=True, env=os.environ,
        ).stdout
        return [digest(json.loads(out))]
    inputs, _ = workloads.setup(workload, seed)
    if workload == "aggregate":
        from repro.flows.aggregate import run_aggregate

        return [digest(flow.to_dict()) for flow in run_aggregate(inputs).flow_summaries]
    return [digest(doc) for doc in workloads.simulate(workload, inputs).docs]


def _in_child(workload: str, seed: int, engine: bool) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(SRC), **(ENGINE_ENV if engine else {})}
    out = subprocess.run(
        [sys.executable, __file__, "--one", workload, str(seed)],
        capture_output=True, text=True, check=True, env=env,
    ).stdout
    return json.loads(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--one", nargs=2, metavar=("WORKLOAD", "SEED"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        sys.path.insert(0, str(SRC))
        print(json.dumps(unit_digests(args.one[0], int(args.one[1]))))
        return 0

    pins: dict = {}
    engine_check: dict = {}
    for workload in workloads.NAMES:
        for seed in SEEDS:
            fast = _in_child(workload, seed, engine=False)
            slow = _in_child(workload, seed, engine=True)
            bad = sum(a != b for a, b in zip(fast, slow)) + abs(len(fast) - len(slow))
            pins.setdefault(workload, {})[str(seed)] = fast
            engine_check.setdefault(workload, {})[str(seed)] = f"{bad} of {len(fast)} units differ"
            print(f"{workload} seed {seed}: {len(fast)} units pinned; "
                  f"the event engine differs on {bad}", file=sys.stderr)
    DIGESTS_PATH.write_text(json.dumps(
        {"engine_check": engine_check, "workloads": pins}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Fresh-interpreter entry points that ``run.py`` starts as child processes.

``probe.py setup WORKLOAD SEED [STORE_DIR]``
    Import repro and build the workload's clips, then print
    ``{"setup_s": …}``: one set-up sample in a fresh interpreter. Given
    a store directory, it then runs the workload's specs into that
    result store, outside the timed set-up.

``probe.py trace-run SEED SPANS_OUT``
    The cold-point ``repro run`` command, executed in this process with
    every layer wrapped; prints the command's JSON document and writes
    the spans to ``SPANS_OUT``, with the command's wall time as timed
    outside the recorder.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def _setup(workload: str, seed: int, store_dir: str = "") -> None:
    from workloads import setup

    inputs, seconds = setup(workload, seed)
    print(json.dumps({"setup_s": seconds}))
    if store_dir:
        from repro.core.resultstore import ResultStore
        from repro.core.runner import SerialRunner

        SerialRunner(store=ResultStore(store_dir)).run_batch(inputs)


def _trace_run(seed: int, spans_out: str) -> int:
    from layers import count_fastlane, install, timed_import
    from spans import Recorder
    from workloads import cold_argv

    rec = Recorder()
    rec.unit = "cold-point"
    started = time.perf_counter()
    root = rec.begin("cold-point")
    timed_import(rec)
    from repro import cli
    from repro.core import fastlane

    patches = install(rec)
    before = fastlane.stats.as_dict()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(cold_argv(seed))
    patches.undo()
    rec.end(root)
    wall = time.perf_counter() - started
    count_fastlane(rec, before)
    payload = {**rec.to_json(), "wall_s": wall}
    with open(spans_out, "w") as handle:
        json.dump(payload, handle)
    sys.stdout.write(out.getvalue())
    return code


def main(argv: list[str]) -> int:
    if len(argv) in (3, 4) and argv[0] == "setup":
        _setup(argv[1], int(argv[2]), *argv[3:])
        return 0
    if len(argv) == 3 and argv[0] == "trace-run":
        return _trace_run(int(argv[1]), argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

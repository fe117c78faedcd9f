"""Host speed: a fixed reference task timed all through a run.

On a shared virtual machine the same work was seen to run up to 2×
slower for tens of seconds at a time, so whole runs land in a slow or a
fast spell and their timings spread by far more than any regression
bound. The slowdown moves most work alike: a reference task timed
between the samples tracks it, and the ratio of a workload's time to
the reference task's time stays steadier (8 runs of 12 s replaying a
32-point store: raw time spread 0.23 of its median, ratio 0.06).

The reference task uses nothing from ``repro``, so no change to the
program moves it. It runs with the garbage collector off, so the size
of the program's heap does not move it either. Reference tasks run
for a fifth of every timed step's time, right after it. A run's factor
is the mean task time divided by :data:`REFERENCE_S`; set-up, pass and
first-output times are divided by it, which is what they would read
with the reference task at :data:`REFERENCE_S`.

Replays take milliseconds and come in bursts, and the speed changes
within seconds too, so tasks also run after every 0.1 s of replays and
each replay is divided instead by the factor of the tasks right before
and after it. Over one 200 s ``paper-grid`` run alternating 5 replays
and 6 tasks, the replay time in 2 s windows varied by 0.16 of its mean,
and its ratio to the tasks' time in the same windows by 0.06. For steps
of seconds the run's factor does better: in ten runs of each in-process
workload, pass times divided by it spread by 0.03–0.09 of their median,
divided step by step by the tasks around each step by 0.04–0.21.
"""

from __future__ import annotations

import functools
import gc
import json
import statistics
import time

#: What one reference task is scaled to: about its time on a 2-vCPU VM
#: (Python 3.11, numpy 2.4) in a fast spell.
REFERENCE_S = 0.006
#: Reference time after each step, as a share of the step's time.
SHARE = 0.2
#: Least number of reference tasks after one step.
MIN_TASKS = 2


@functools.cache
def _task_inputs() -> tuple:
    # numpy is imported on first use, so that a set-up timed in this
    # process still pays for its own numpy import.
    import numpy as np

    array = np.random.default_rng(12345).random(100_000)
    return np, array, {f"k{i}": [i * 0.5, str(i), {"a": i}] for i in range(2000)}


def reference_task() -> float:
    """Time one fixed mix of interpreter loop, numpy sort and JSON round trip."""
    np, array, doc = _task_inputs()
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        total = 0
        for i in range(30_000):
            total += i % 7
        np.sort(array)
        json.loads(json.dumps(doc))
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Reference-task samples spread over a run in proportion to the work timed."""

    def __init__(self, task=reference_task):
        self.task = task
        self.samples: list[float] = []
        self.last: float | None = None

    def follow(self, step_s: float) -> float:
        """Run reference tasks for :data:`SHARE` of a step that just took ``step_s``.

        Returns the step's factor: how much slower than the reference the
        host ran in the tasks right before the step (the previous call's)
        and right after it (this call's).
        """
        started, taken = time.perf_counter(), []
        while len(taken) < MIN_TASKS or time.perf_counter() - started < SHARE * step_s:
            taken.append(self.task())
        self.samples += taken
        before, self.last = self.last, statistics.fmean(taken) / REFERENCE_S
        return self.last if before is None else (before + self.last) / 2

    def factor(self) -> float:
        """How much slower than the reference the host ran over the whole run."""
        return statistics.fmean(self.samples) / REFERENCE_S

    def as_dict(self) -> dict:
        return {
            "reference_s": REFERENCE_S,
            "factor": self.factor(),
            "tasks": len(self.samples),
            "task_median_s": statistics.median(self.samples),
        }


def as_measured(samples: list[tuple[float, float]]) -> list[float]:
    """The measured times of ``(seconds, factor)`` samples."""
    return [seconds for seconds, _ in samples]


def at_reference(samples: list[tuple[float, float]]) -> list[float]:
    """The times of ``(seconds, factor)`` samples at reference speed."""
    return [seconds / factor for seconds, factor in samples]

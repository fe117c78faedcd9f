"""Tests of the benchmark's own code: spans, digests, failure counting, patching.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from checks import Tally, digest  # noqa: E402
import hostspeed  # noqa: E402
from layers import TARGETS, install, self_time_breakdown  # noqa: E402
from spans import Recorder, self_times  # noqa: E402
import workloads  # noqa: E402


def _clock(*ticks):
    values = iter(ticks)
    return lambda: next(values)


def _nested() -> Recorder:
    """root [0,10] > a [1,4] > a1 [2,3]; root > b [5,6]."""
    rec = Recorder(clock=_clock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0))
    with rec.span("root"):
        with rec.span("a"):
            with rec.span("a1"):
                pass
        with rec.span("b"):
            pass
    return rec


def test_self_time_subtracts_only_direct_children():
    rec = _nested()
    assert [s.name for s in rec.spans] == ["root", "a", "a1", "b"]
    assert [s.parent for s in rec.spans] == [-1, 0, 1, 0]
    assert self_times(rec.spans) == [6.0, 2.0, 1.0, 1.0]


def test_self_times_add_up_to_the_root_wall_time():
    breakdown = self_time_breakdown(_nested(), passes=1, measured_s=10.0)
    assert breakdown["wall_s"] == 10.0
    assert breakdown["sum_self_s"] == 10.0
    assert breakdown["wall_matches_measured"]


def test_spans_that_miss_measured_time_fail_the_wall_check():
    # The root span covers 10 s of a pass timed at 11 s without the recorder.
    assert not self_time_breakdown(_nested(), passes=1, measured_s=11.0)["wall_matches_measured"]
    assert not self_time_breakdown(_nested(), passes=1, measured_s=9.0)["wall_matches_measured"]


def test_spans_closed_out_of_order_are_rejected():
    rec = Recorder()
    outer = rec.begin("outer")
    rec.begin("inner")
    with pytest.raises(RuntimeError):
        rec.end(outer)


def _summary_doc() -> dict:
    from repro.core.runner import ResultSummary

    summary = ResultSummary(
        quality_score=0.25, lost_frame_fraction=0.1, packet_drop_fraction=0.05,
        frozen_fraction=0.2, rebuffer_events=1, total_stall_s=0.5, conformant_packets=90,
        dropped_packets=10, remarked_packets=0, dropped_bytes=15000, server_aborted=False,
        server_packets=100, client_packets=90, network={"delay_mean_s": 0.025},
        elapsed_s=1.5,
    )
    return summary.to_dict()


def _perturbed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, dict):
        return {**value, "extra": 1}
    raise TypeError(type(value))


def test_digest_ignores_elapsed_time():
    doc = _summary_doc()
    assert digest(doc) == digest({**doc, "elapsed_s": 99.0})
    nested = {"flow_summaries": [doc, {**doc, "elapsed_s": 3.0}], "elapsed_s": 7.0}
    zeroed = {"flow_summaries": [{**doc, "elapsed_s": 0.0}] * 2, "elapsed_s": 0.0}
    assert digest(nested) == digest(zeroed)


def test_digest_changes_with_every_other_field():
    from repro.core.runner import ResultSummary

    doc = _summary_doc()
    fields = [f.name for f in dataclasses.fields(ResultSummary)]
    # flow_trace is left out of the dict when no trace was captured.
    assert set(doc) == set(fields) - {"flow_trace"}
    base = digest(doc)
    for name in doc:
        if name != "elapsed_s":
            assert digest({**doc, name: _perturbed(doc[name])}) != base, name


def test_failed_fraction_counts_raised_and_mismatched_units():
    good, other = _summary_doc(), {**_summary_doc(), "dropped_packets": 11}
    tally = Tally([digest(good), digest(good)])
    tally.outputs([good, other])  # the second unit does not match its pin
    tally.raised(2, RuntimeError("boom"))  # a pass of two units that raised
    assert (tally.attempted, tally.failed) == (4, 3)
    assert tally.ok_fraction == pytest.approx(0.25)
    assert tally.as_dict()["failed_fraction"] == pytest.approx(0.75)
    assert tally.digest_check == "failed"


def test_a_unit_without_output_fails():
    tally = Tally([digest(_summary_doc())])
    tally.outputs(["exit code 1"])
    assert (tally.attempted, tally.failed) == (1, 1)


def test_unpinned_seed_checks_repeatability_but_reports_unchecked():
    doc = _summary_doc()
    tally = Tally(None)
    tally.outputs([doc])
    tally.outputs([{**doc, "elapsed_s": 2.0}])
    assert tally.failed == 0 and tally.digest_check == "unchecked"
    tally.outputs([{**doc, "quality_score": 0.5}])
    assert tally.failed == 1


def test_parts_are_checked_against_their_own_units():
    doc, other = _summary_doc(), {**_summary_doc(), "dropped_packets": 11}
    tally = Tally(None)
    tally.outputs([doc], first=0)
    tally.outputs([other], first=1)  # a second part's first sight of unit 1
    tally.outputs([doc, other])  # a whole pass reproduces both parts
    assert (tally.attempted, tally.failed) == (4, 0)
    tally.outputs([doc], first=1)
    assert tally.failed == 1
    pinned = Tally([digest(doc)])
    pinned.outputs([doc], first=1)  # no pin for unit 1
    assert pinned.failed == 1


def test_install_then_undo_restores_every_attribute():
    import importlib

    def current():
        out = []
        for module_name, owner_name, attr, _ in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            out.append(owner.__dict__[attr])
        return out

    before = current()
    patches = install(Recorder())
    assert all(a is not b for a, b in zip(before, current()))
    patches.undo()
    assert all(a is b for a, b in zip(before, current()))


@pytest.mark.parametrize("workload", ["paper-grid", "engine-mix"])
def test_parts_cover_a_pass_once_in_order(workload):
    inputs = workloads.make_inputs(workload, 0)
    pieces = workloads.parts(workload, inputs)
    assert len(pieces) > 1
    assert [spec for _, part in pieces for spec in part] == inputs
    offsets = [0]
    for _, part in pieces[:-1]:
        offsets.append(offsets[-1] + len(part))
    assert [first for first, _ in pieces] == offsets


def test_a_step_is_scaled_by_the_tasks_right_before_and_after_it():
    times = iter([2, 2, 4, 4, 1, 1])  # in units of the reference time
    speed = hostspeed.HostSpeed(task=lambda: next(times) * hostspeed.REFERENCE_S)
    assert speed.follow(0.0) == pytest.approx(2.0)  # nothing before the first step
    assert speed.follow(0.0) == pytest.approx(3.0)
    assert speed.follow(0.0) == pytest.approx(2.5)
    assert len(speed.samples) == 3 * hostspeed.MIN_TASKS
    assert speed.factor() == pytest.approx(7 / 3)
    samples = [(3.0, 2.0), (1.0, 0.5)]
    assert hostspeed.as_measured(samples) == [3.0, 1.0]
    assert hostspeed.at_reference(samples) == pytest.approx([1.5, 2.0])


def test_host_speed_samples_a_share_of_each_step():
    import time

    speed = hostspeed.HostSpeed()
    started = time.perf_counter()
    speed.follow(0.5)
    assert time.perf_counter() - started >= hostspeed.SHARE * 0.5
    assert len(speed.samples) > hostspeed.MIN_TASKS
    assert all(sample > 0 for sample in speed.samples)

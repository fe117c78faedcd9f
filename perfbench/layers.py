"""Wrap each layer's public functions from outside and derive per-layer metrics.

Nothing under ``src/`` knows it is being traced: :func:`install`
replaces module and class attributes with span-recording wrappers and
:meth:`Patches.undo` puts the originals back. A function bound into
another module by ``from … import`` is wrapped at the attribute its
caller resolves (``repro.sim.batchpath.compute_schedule``,
``repro.core.fastlane.simulate_qbone_session``, …); functions imported
inside a function body resolve at call time, so wrapping their home
module is enough.
"""

from __future__ import annotations

import importlib
import importlib.abc
import sys
from spans import Recorder, has_ancestor, self_times

# (module, owner attribute or None for a module function, attribute, span name)
TARGETS = (
    ("repro.video.mpeg", "Mpeg1Encoder", "encode", "video.encode"),
    ("repro.video.wmv", "WmvEncoder", "encode", "video.encode"),
    ("repro.video.frames", "FrameFeatures", "extract", "video.features"),
    ("repro.sim.fastpath", None, "compute_schedule", "fastpath.schedule"),
    ("repro.sim.batchpath", None, "compute_schedule", "fastpath.schedule"),
    ("repro.sim.fastpath", None, "jitter_releases", "fastpath.jitter"),
    ("repro.sim.batchpath", None, "jitter_releases", "fastpath.jitter"),
    ("repro.core.fastlane", None, "simulate_qbone_session", "fastpath.session"),
    ("repro.sim.batchpath", None, "run_batch_specs", "batchpath.run"),
    ("repro.client.playout", "PlayoutClient", "finalize", "client.finalize"),
    ("repro.client.renderer", "RendererEmulation", "replay", "client.render"),
    ("repro.vqm.tool", "VqmTool", "assess", "vqm.assess"),
    ("repro.sim.engine", "Engine", "run", "engine.run"),
    ("repro.core.netmetrics", None, "summarize_path", "netmetrics.summarize"),
    ("repro.core.runner", None, "spec_fingerprint", "runner.fingerprint"),
    ("repro.core.runner", "ResultSummary", "from_result", "runner.summary"),
    ("repro.core.runner", "Runner", "run_batch", "runner.run_batch"),
    ("repro.core.runner", None, "_summarize_run", "backend.unit"),
    ("repro.core.runner", None, "_batch_run", "backend.batch"),
    ("repro.core.resultstore", "ResultStore", "get", "store.get"),
    ("repro.core.resultstore", "ResultStore", "put", "store.put"),
    ("repro.flows.multipath", None, "run_multipath", "flows.run"),
    ("repro.flows.multipath", None, "compute_schedule", "flows.schedule"),
    ("repro.flows.multipath", None, "flow_jitter_delays", "flows.jitter"),
    ("repro.flows.multipath", None, "result_from_session", "flows.result"),
)

#: Spans whose time the scheduler spends outside itself.
_BACKEND_OR_STORE = ("backend.unit", "backend.batch", "store.get", "store.put")


def _count_lanes(rec: Recorder, args: tuple, result) -> None:
    rec.count("batchpath.lanes", len(args[0]))


def _count_batch_units(rec: Recorder, args: tuple, result) -> None:
    rec.count("backend.batch_units", len(args[0]))


def _count_store_get(rec: Recorder, args: tuple, result) -> None:
    rec.count("store.hits" if result is not None else "store.misses")


def _count_flow_drops(rec: Recorder, args: tuple, result) -> None:
    rec.count("flows.dropped_packets", result.dropped_packets)


_ON_CALL = {
    ("repro.sim.batchpath", "run_batch_specs"): _count_lanes,
    ("repro.core.runner", "_batch_run"): _count_batch_units,
    ("repro.core.resultstore", "get"): _count_store_get,
    ("repro.flows.multipath", "run_multipath"): _count_flow_drops,
}


class Patches:
    """The attributes :func:`install` replaced, so they can be restored."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(rec: Recorder) -> Patches:
    """Wrap every layer target; the caller must :meth:`Patches.undo` afterwards."""
    # Import every target first: a module imported after a patch would
    # bind the wrapper by ``from … import`` and keep it after undo().
    modules = {name: importlib.import_module(name) for name, *_ in TARGETS}
    patches = Patches()
    for module_name, owner_name, attr, span_name in TARGETS:
        module = modules[module_name]
        owner = module if owner_name is None else getattr(module, owner_name)
        on_call = _ON_CALL.get((module_name, attr))
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            value = classmethod(rec.wrap(raw.__func__, span_name, on_call))
        else:
            value = rec.wrap(raw, span_name, on_call)
        patches.replace(owner, attr, value)

    from repro.sim.engine import Engine

    schedule_at = Engine.__dict__["schedule_at"]

    def counted_schedule_at(self, time, callback):
        rec.counts["engine.events"] += 1
        return schedule_at(self, time, callback)

    patches.replace(Engine, "schedule_at", counted_schedule_at)
    return patches


class ImportTimer(importlib.abc.MetaPathFinder):
    """Puts a span around the execution of the named modules when first imported."""

    def __init__(self, rec: Recorder, names: dict[str, str]):
        self.rec = rec
        self.names = names

    def find_spec(self, fullname, path, target=None):
        span_name = self.names.get(fullname)
        if span_name is None:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        exec_module = loader.exec_module
        rec = self.rec

        def timed_exec(module):
            with rec.span(span_name):
                exec_module(module)

        loader.exec_module = timed_exec
        return spec

    def __enter__(self) -> "ImportTimer":
        sys.meta_path.insert(0, self)
        return self

    def __exit__(self, *exc_info) -> None:
        sys.meta_path.remove(self)


def timed_import(rec: Recorder) -> None:
    """Import ``repro.cli`` under ``import.repro_cli``, timing ``scipy.ndimage`` inside it."""
    with ImportTimer(rec, {"scipy.ndimage": "import.scipy_ndimage"}):
        with rec.span("import.repro_cli"):
            importlib.import_module("repro.cli")


#: Every per-layer metric the traced run reports, in BENCHMARK.json order.
PER_LAYER = (
    ("import.repro_cli_s", "s"),
    ("import.scipy_ndimage_s", "s"),
    ("video.encode_s", "s"),
    ("video.features_s", "s"),
    ("video.feature_builds", "count"),
    ("fastpath.schedule_s", "s"),
    ("fastpath.jitter_s", "s"),
    ("fastpath.session_self_s", "s"),
    ("batchpath.run_s", "s"),
    ("batchpath.self_s", "s"),
    ("batchpath.calls", "count"),
    ("batchpath.lanes_per_call", "count"),
    ("batchpath.unique_outcome_ratio", "ratio"),
    ("client.finalize_s", "s"),
    ("client.render_s", "s"),
    ("vqm.assess_s", "s"),
    ("vqm.assess_calls", "count"),
    ("engine.run_s", "s"),
    ("engine.events", "count"),
    ("engine.events_per_s", "1/s"),
    ("netmetrics.summarize_s", "s"),
    ("runner.fingerprint_s", "s"),
    ("runner.summary_s", "s"),
    ("scheduler.units_per_batch", "count"),
    ("scheduler.overhead_s", "s"),
    ("store.get_s", "s"),
    ("store.put_s", "s"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.bytes_written", "bytes"),
    ("fastlane.fastpath_share", "ratio"),
    ("fastlane.batch_points", "count"),
    ("flows.run_s", "s"),
    ("flows.schedule_s", "s"),
    ("flows.jitter_s", "s"),
    ("flows.result_s", "s"),
    ("flows.self_s", "s"),
    ("flows.dropped_packets", "count"),
    ("trace.wall_s", "s"),
    ("trace.remainder_s", "s"),
    ("trace.overhead_s", "s"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def scheduler_overhead(rec: Recorder) -> float:
    """``run_batch`` wall time minus the backend and store time inside it."""
    spans = rec.spans
    covered = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span.name not in _BACKEND_OR_STORE:
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name not in _BACKEND_OR_STORE + ("runner.run_batch",):
            parent = spans[parent].parent
        if parent >= 0 and spans[parent].name == "runner.run_batch":
            covered[parent] += span.duration
    return sum(
        span.duration - covered[i]
        for i, span in enumerate(spans)
        if span.name == "runner.run_batch"
    )


def per_name(rec: Recorder, passes: int) -> tuple[dict, dict, dict, float, float]:
    """Inclusive seconds, self seconds and calls per span name; wall time and remainder.

    Spans under a root named ``setup`` (import and clip preparation)
    happen once; everything else is divided by ``passes``, so the
    report reads as one set-up plus one pass of the workload. The wall
    time is the roots' total and the remainder their self time (time
    inside no layer), weighted the same way.
    """
    spans = rec.spans
    selfs = self_times(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, float] = {}
    wall = remainder = 0.0
    for i, span in enumerate(spans):
        once = span.name == "setup" or has_ancestor(spans, i, "setup")
        weight = 1.0 if once else 1.0 / passes
        total[span.name] = total.get(span.name, 0.0) + span.duration * weight
        own[span.name] = own.get(span.name, 0.0) + selfs[i] * weight
        calls[span.name] = calls.get(span.name, 0.0) + weight
        if span.parent < 0:
            wall += span.duration * weight
            remainder += selfs[i] * weight
    return total, own, calls, wall, remainder


def count_fastlane(rec: Recorder, before: dict) -> None:
    """Fold the fast-lane dispatch counters accrued since ``before`` into ``rec``."""
    from repro.core import fastlane

    for key, value in fastlane.stats.delta_since(before).items():
        rec.count(f"fastlane.{key}", value)


def layer_metrics(rec: Recorder, passes: int, overhead_s: float = 0.0) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from the recorded spans, per traced pass."""
    spans = rec.spans
    total, own, calls, wall, remainder = per_name(rec, passes)
    counts = {name: value / passes for name, value in rec.counts.items()}
    batch_assess = sum(
        1
        for i, span in enumerate(spans)
        if span.name == "vqm.assess" and has_ancestor(spans, i, "batchpath.run")
    ) / passes
    hits, batch_points = counts.get("fastlane.hits", 0.0), counts.get("fastlane.batch_points", 0.0)
    single_flow = hits + counts.get("fastlane.fallbacks", 0.0) + batch_points
    lanes = counts.get("batchpath.lanes", 0.0)
    engine_run = total.get("engine.run", 0.0)
    return {
        "import.repro_cli_s": total.get("import.repro_cli", 0.0),
        "import.scipy_ndimage_s": total.get("import.scipy_ndimage", 0.0),
        "video.encode_s": total.get("video.encode", 0.0),
        "video.features_s": total.get("video.features", 0.0),
        "video.feature_builds": calls.get("video.features", 0.0),
        "fastpath.schedule_s": total.get("fastpath.schedule", 0.0),
        "fastpath.jitter_s": total.get("fastpath.jitter", 0.0),
        "fastpath.session_self_s": own.get("fastpath.session", 0.0),
        "batchpath.run_s": total.get("batchpath.run", 0.0),
        "batchpath.self_s": own.get("batchpath.run", 0.0),
        "batchpath.calls": calls.get("batchpath.run", 0.0),
        "batchpath.lanes_per_call": _ratio(lanes, calls.get("batchpath.run", 0.0)),
        "batchpath.unique_outcome_ratio": _ratio(batch_assess, lanes),
        "client.finalize_s": total.get("client.finalize", 0.0),
        "client.render_s": total.get("client.render", 0.0),
        "vqm.assess_s": total.get("vqm.assess", 0.0),
        "vqm.assess_calls": calls.get("vqm.assess", 0.0),
        "engine.run_s": engine_run,
        "engine.events": counts.get("engine.events", 0.0),
        "engine.events_per_s": _ratio(counts.get("engine.events", 0.0), engine_run),
        "netmetrics.summarize_s": total.get("netmetrics.summarize", 0.0),
        "runner.fingerprint_s": total.get("runner.fingerprint", 0.0),
        "runner.summary_s": total.get("runner.summary", 0.0),
        "scheduler.units_per_batch": _ratio(
            counts.get("backend.batch_units", 0.0), calls.get("backend.batch", 0.0)
        ),
        "scheduler.overhead_s": scheduler_overhead(rec) / passes,
        "store.get_s": total.get("store.get", 0.0),
        "store.put_s": total.get("store.put", 0.0),
        "store.hits": counts.get("store.hits", 0.0),
        "store.misses": counts.get("store.misses", 0.0),
        "store.bytes_written": counts.get("store.bytes_written", 0.0),
        "fastlane.fastpath_share": _ratio(hits + batch_points, single_flow),
        "fastlane.batch_points": batch_points,
        "flows.run_s": total.get("flows.run", 0.0),
        "flows.schedule_s": total.get("flows.schedule", 0.0),
        "flows.jitter_s": total.get("flows.jitter", 0.0),
        "flows.result_s": total.get("flows.result", 0.0),
        "flows.self_s": own.get("flows.run", 0.0),
        "flows.dropped_packets": counts.get("flows.dropped_packets", 0.0),
        "trace.wall_s": wall,
        "trace.remainder_s": remainder,
        "trace.overhead_s": overhead_s,
    }


#: How far the traced wall time may be from the same work timed without the recorder.
WALL_TOLERANCE = (0.005, 0.01)  # seconds, plus this share of the wall


def self_time_breakdown(rec: Recorder, passes: int, measured_s: float) -> dict:
    """Self seconds per span name (per pass), checked against ``measured_s``.

    The self times add up to the roots' wall time by construction, so
    that sum proves nothing by itself. ``measured_s`` is the same set-up
    and mean pass timed outside the recorder; the spans pass the check
    only if their wall time matches it, so a root that misses part of
    the work, or a clock that drifts from the timed one, fails the run.
    """
    _, own, calls, wall, _ = per_name(rec, passes)
    absolute, share = WALL_TOLERANCE
    return {
        "self_s": own,
        "calls": calls,
        "wall_s": wall,
        "sum_self_s": sum(own.values()),
        "measured_wall_s": measured_s,
        "wall_matches_measured": abs(wall - measured_s) <= absolute + share * measured_s,
    }

"""The four workloads: their inputs, their set-up and one pass of each.

Inputs are generated from the workload seed alone; the program sees
only the generated specs. The seed picks the specs' own RNG seeds (the
jitter and loss streams), so two workload seeds stream the same grid
through different network randomness.

Nothing here imports ``repro`` at module level: the set-up time a
workload reports starts before its first ``repro`` import.
"""

from __future__ import annotations

import importlib
import random
import time
from dataclasses import dataclass

#: Why each workload exists (also in BENCHMARK.json and README.md).
WHY = {
    "cold-point": "one-shot repro run in a fresh interpreter: import and clip features dominate, as for every cold worker",
    "paper-grid": "128-point lost+dark token-bucket grid through SerialRunner and a fresh store, then replayed from it",
    "engine-mix": "seven lost specs the fast lanes cannot serve, so the event engine runs and batch/fast lanes are bypassed",
    "aggregate": "50 lost flows sharing one EF bucket through run_multipath: speculative scan and merged stream",
}

NAMES = tuple(WHY)

#: The cold-point CLI command (the spec seed is appended per workload seed).
COLD_ARGS = ("run", "--clip", "lost", "--encoding", "1.7", "--rate", "1.7", "--depth", "3000")

GRID_CLIPS = ("lost", "dark")
GRID_RATES_MBPS = tuple(1.0 + 2.0 * i / 15 for i in range(16))
GRID_DEPTHS = (3000.0, 4500.0)
#: Points in one part of a grid pass: a clip's lower or upper eight rates.
#: A multiple of the 8 adjacent points the campaign scheduler batches, so
#: the parts are batched exactly as the whole grid is.
GRID_PART = 32

AGG_FLOWS = 50


def spec_seeds(workload: str, seed: int, n: int) -> list[int]:
    """``n`` distinct spec seeds derived from the workload seed."""
    return random.Random(f"{workload}:{seed}").sample(range(1, 100_000), n)


def cold_argv(seed: int) -> list[str]:
    (spec_seed,) = spec_seeds("cold-point", seed, 1)
    return [*COLD_ARGS, "--seed", str(spec_seed), "--json"]


def make_inputs(workload: str, seed: int):
    """The specs one pass runs (a list), or the aggregate spec for ``aggregate``."""
    from repro.core.experiment import ExperimentSpec
    from repro.units import mbps

    if workload == "cold-point":
        (spec_seed,) = spec_seeds(workload, seed, 1)
        return [ExperimentSpec(clip="lost", encoding_rate_bps=mbps(1.7),
                               token_rate_bps=mbps(1.7), bucket_depth_bytes=3000.0,
                               seed=spec_seed)]
    if workload == "paper-grid":
        seeds = spec_seeds(workload, seed, 2)
        return [
            ExperimentSpec(clip=clip, codec="mpeg1", encoding_rate_bps=mbps(1.7),
                           token_rate_bps=mbps(rate), bucket_depth_bytes=depth, seed=s)
            for clip in GRID_CLIPS
            for rate in GRID_RATES_MBPS
            for depth in GRID_DEPTHS
            for s in seeds
        ]
    if workload == "engine-mix":
        s = spec_seeds(workload, seed, 7)
        lost = dict(clip="lost", encoding_rate_bps=mbps(1.7))
        wmt = dict(clip="lost", codec="wmv", server="wmt", testbed="local")
        return [
            ExperimentSpec(**lost, token_rate_bps=mbps(2.0), bucket_depth_bytes=4500.0,
                           cross_traffic_bps=mbps(1.0), seed=s[0]),
            ExperimentSpec(**lost, token_rate_bps=mbps(1.8), arq=True, seed=s[1]),
            ExperimentSpec(**lost, token_rate_bps=mbps(2.0), fec_group=8, seed=s[2]),
            ExperimentSpec(**wmt, transport="udp", token_rate_bps=mbps(1.3), seed=s[3]),
            ExperimentSpec(**wmt, transport="tcp", use_shaper=True, token_rate_bps=mbps(1.3),
                           seed=s[4]),
            ExperimentSpec(**lost, server="largeudp", testbed="local",
                           token_rate_bps=mbps(1.9), seed=s[5]),
            ExperimentSpec(**lost, server="adaptive-vc", reference="fixed",
                           token_rate_bps=mbps(1.6), bucket_depth_bytes=4500.0, seed=s[6]),
        ]
    if workload == "aggregate":
        from repro.flows.aggregate import AggregateSpec

        (agg_seed,) = spec_seeds(workload, seed, 1)
        base = ExperimentSpec(clip="lost", encoding_rate_bps=mbps(1.7), seed=agg_seed)
        half = AGG_FLOWS / 2
        return AggregateSpec.homogeneous(
            base, AGG_FLOWS, token_rate_bps=mbps(1.9) * half, bucket_depth_bytes=3000.0 * half
        )
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")


def n_units(inputs) -> int:
    """Units one pass produces: specs, or the aggregate's member flows."""
    return inputs.n_flows if hasattr(inputs, "flows") else len(inputs)


def clip_plan(inputs) -> list[tuple]:
    """``(clip, codec, rate)`` triples covering every encoding and feature set a pass reads."""
    from repro.video.clips import MPEG_RATES_BPS

    flat = inputs.flows if hasattr(inputs, "flows") else inputs
    plan: list[tuple] = []
    for spec in flat:
        wanted = [(spec.clip, spec.codec, spec.encoding_rate_bps)]
        if spec.reference == "fixed":
            wanted.append((spec.clip, spec.codec, spec.fixed_reference_rate_bps))
        if spec.server == "adaptive-vc":
            wanted.extend((spec.clip, "mpeg1", rate) for rate in MPEG_RATES_BPS)
        plan.extend(entry for entry in wanted if entry not in plan)
    return plan


def setup(workload: str, seed: int, rec=None):
    """Import repro and build the clips the workload reads; returns ``(inputs, seconds)``.

    With a span recorder the import is timed layer by layer (see
    :func:`layers.timed_import`).
    """
    started = time.perf_counter()
    if rec is None:
        importlib.import_module("repro.cli")
    else:
        from layers import install, timed_import

        timed_import(rec)
    if workload == "aggregate":
        importlib.import_module("repro.flows.multipath")
    inputs = make_inputs(workload, seed)
    from repro.video.clips import warm_clip_caches

    patches = install(rec) if rec is not None else None
    try:
        warm_clip_caches(clip_plan(inputs))
    finally:
        if patches is not None:
            patches.undo()
    return inputs, time.perf_counter() - started


@dataclass
class PassResult:
    """One simulate pass: unit outputs, its wall time and when the first output appeared."""

    docs: list
    wall_s: float
    first_s: float
    points: int
    flows: int
    summaries: list
    simulated: int = 0


def _through_runner(specs: list, store=None) -> PassResult:
    from repro.core.runner import ResultSummary, SerialRunner

    runner = SerialRunner(store=store)
    first: list[float] = []
    started = time.perf_counter()
    outcomes = runner.run_batch(
        specs, on_outcome=lambda spec, fp, outcome: first or first.append(time.perf_counter())
    )
    wall = time.perf_counter() - started
    docs = [o.to_dict() if isinstance(o, ResultSummary) else o for o in outcomes]
    return PassResult(
        docs, wall, first[0] - started, len(specs), len(specs), outcomes,
        simulated=runner.stats.simulated,
    )


def _flow_docs(summary) -> list:
    return [flow.to_dict() for flow in summary.flow_summaries]


def simulate(workload: str, inputs, store=None) -> PassResult:
    """One pass of fresh simulation (``store`` only for ``paper-grid``)."""
    if workload == "aggregate":
        from repro.flows import multipath

        started = time.perf_counter()
        summary = multipath.run_multipath(inputs)
        wall = time.perf_counter() - started
        return PassResult(
            _flow_docs(summary), wall, wall, 1, inputs.n_flows, [summary], simulated=1
        )
    return _through_runner(inputs, store=store)


def parts(workload: str, inputs) -> list[tuple[int, object]]:
    """One pass cut into parts that together do the pass's work, as ``(first unit, inputs)``.

    ``paper-grid`` splits into runs of :data:`GRID_PART` consecutive
    points, half of one clip's sweep each, ``engine-mix`` per spec (no
    lane batches them), and an aggregate is one part. A run rotates
    through the parts, so every part is sampled across the whole run,
    and each part ends with a burst of replays: short parts spread the
    replays over more moments of the run.
    """
    if workload == "aggregate":
        return [(0, inputs)]
    if workload == "paper-grid":
        return [(i, inputs[i:i + GRID_PART]) for i in range(0, len(inputs), GRID_PART)]
    return [(i, [spec]) for i, spec in enumerate(inputs)]


def fill_store(store, inputs, summaries: list) -> None:
    """Publish a simulate pass's summaries so the store can answer the replay."""
    from repro.core.runner import spec_fingerprint

    specs = [inputs] if hasattr(inputs, "flows") else inputs
    for spec, summary in zip(specs, summaries):
        store.put(spec_fingerprint(spec), spec, summary)


def replay(inputs, store) -> PassResult:
    """The same units answered from ``store`` through ``SerialRunner``."""
    if hasattr(inputs, "flows"):
        result = _through_runner([inputs], store=store)
        result.flows = inputs.n_flows
        result.docs = _flow_docs(result.summaries[0])
        return result
    return _through_runner(inputs, store=store)

"""Experiment orchestration — the paper's methodology as a library.

This is the layer a "user" of the paper's study would touch: describe
a configuration (:class:`~repro.core.experiment.ExperimentSpec`), run
it end to end (stream → police → receive → render → VQM), sweep the
token-bucket parameters (`sweep`) — serially or through a process
pool, against an on-disk result cache (`runner`, `resultstore`), with
bounded retries, per-spec timeouts, quarantine, and checkpoint/resume
(`faults`, `journal`, `chaos`) — and analyze/print the results
(`analysis`, `report`). Execution is orchestrated by the `campaign`
package: an async sharded scheduler with work-stealing, streaming
aggregation, cross-process single-flight, adaptive cliff-seeking
sampling, and a warm-store query service.
"""

import importlib

from repro.core.experiment import ExperimentSpec, ExperimentResult, run_experiment
from repro.core.faults import FailureRecord, RetryPolicy
from repro.core.runner import (
    CACHE_SCHEMA_VERSION,
    ProcessPoolRunner,
    ResultSummary,
    Runner,
    SerialRunner,
    make_runner,
    spec_fingerprint,
)
from repro.core.resultstore import ResultStore, default_cache_dir
from repro.core.analysis import (
    find_quality_cutoff,
    nonlinearity_index,
    empirical_burst_excess,
)
from repro.core.report import render_table, render_sweep, render_rate_series

#: Re-exported on first use (PEP 562): the journal, sweep and campaign
#: layers (fleet, remote, asyncio) cost a one-shot ``repro run`` import
#: time it never uses. ``from repro.core import X`` works as before.
_LAZY = {
    "SweepJournal": "repro.core.journal",
    "sweep_fingerprint": "repro.core.journal",
    "SweepFailure": "repro.core.sweep",
    "SweepPoint": "repro.core.sweep",
    "SweepResult": "repro.core.sweep",
    "sweep_specs": "repro.core.sweep",
    "token_rate_sweep": "repro.core.sweep",
    "validate_grid": "repro.core.sweep",
    "CampaignProgress": "repro.core.campaign",
    "CampaignScheduler": "repro.core.campaign",
    "CampaignService": "repro.core.campaign",
    "SweepAggregator": "repro.core.campaign",
    "adaptive_token_rate_sweep": "repro.core.campaign",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "run_experiment",
    "FailureRecord",
    "RetryPolicy",
    "SweepFailure",
    "SweepJournal",
    "SweepPoint",
    "SweepResult",
    "sweep_fingerprint",
    "sweep_specs",
    "token_rate_sweep",
    "validate_grid",
    "CACHE_SCHEMA_VERSION",
    "CampaignProgress",
    "CampaignScheduler",
    "CampaignService",
    "SweepAggregator",
    "adaptive_token_rate_sweep",
    "Runner",
    "SerialRunner",
    "ProcessPoolRunner",
    "ResultSummary",
    "ResultStore",
    "default_cache_dir",
    "make_runner",
    "spec_fingerprint",
    "find_quality_cutoff",
    "nonlinearity_index",
    "empirical_burst_excess",
    "render_table",
    "render_sweep",
    "render_rate_series",
]

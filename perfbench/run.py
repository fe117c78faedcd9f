#!/usr/bin/env python3
"""The reproduction's benchmark: one workload per invocation.

Run from anywhere inside a checkout (the program is imported from its
``src/``)::

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing wrapped and
reports their timings at a reference host speed (``hostspeed.py``).
``--trace 1`` is a separate run that wraps every layer's public
functions (``layers.py``) and reports the per-layer metrics, the
unattributed remainder and the tracing overhead instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it says whether the outputs were compared with pinned digests
(``digest check passed``/``failed``) or, for a seed without pins, not
(``digest check unchecked``). The full result
(every sample, percentiles, checks, provenance, and for traced runs the
self-time breakdown) goes to ``.perfbench/results/``, and the raw spans
of a traced run beside it.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import Tally, load_pins
from hostspeed import HostSpeed, as_measured, at_reference
from layers import PER_LAYER, count_fastlane, install, layer_metrics, self_time_breakdown
from spans import Recorder, Span
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Set-up samples per run (this process plus fresh children); their median is ``setup_s``.
SETUP_SAMPLES = 3
#: Replay time after each part of a pass, as a share of the part's simulate time.
REPLAY_SHARE = 0.15
#: Least number of replays after one part.
MIN_REPLAYS = 3
#: Replay time between two rounds of reference tasks (``hostspeed.py``).
REPLAY_CHUNK_S = 0.1
#: Replays inside one traced pass.
TRACE_REPLAYS = 5
#: A child process is killed after this long.
CHILD_TIMEOUT_S = 60.0
#: The whole run is abandoned (non-zero exit) after this long.
RUN_TIMEOUT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("first_point_s", "s"),
    ("points_per_s", "points/s"),
    ("replay_points_per_s", "points/s"),
    ("flows_per_s", "flows/s"),
    ("peak_rss_mb", "MB"),
    ("ok_fraction", "ratio"),
)


# ----------------------------------------------------------------------
# child processes


class Children:
    """Starts child processes one at a time and reaps each with its resource usage."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.current: subprocess.Popen | None = None
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def run(self, argv: list[str], env: dict | None = None) -> tuple[float, int, str, float]:
        """Run to completion: ``(wall_s, returncode, stdout, peak_rss_mb)``."""
        err_path = self.workdir / "child.err"
        started = time.perf_counter()
        with open(err_path, "w") as err:
            proc = subprocess.Popen(
                [sys.executable, *argv], stdout=subprocess.PIPE, stderr=err,
                env={**self.env, **(env or {})}, cwd=ROOT, text=True,
            )
            self.current = proc
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                proc.stdout.close()
                self.current = None
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - started
        if proc.returncode != 0:
            sys.stderr.write(err_path.read_text()[-2000:])
        return wall, proc.returncode, out, usage.ru_maxrss / 1024.0

    def kill(self) -> None:
        proc = self.current
        if proc is not None:
            proc.kill()
            proc.wait()


def setup_samples(children: Children, workload: str, seed: int, n: int, speed: HostSpeed,
                  store_dir: Path | None = None) -> list[float]:
    """``n`` fresh-interpreter set-ups, each followed by reference tasks.

    The last also fills ``store_dir`` when given.
    """
    samples = []
    for i in range(n):
        argv = [str(HERE / "probe.py"), "setup", workload, str(seed)]
        if store_dir is not None and i == n - 1:
            argv.append(str(store_dir))
        wall, code, out, _ = children.run(argv)
        if code != 0:
            raise RuntimeError(f"set-up probe for {workload} exited with {code}")
        samples.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
        speed.follow(wall)
    return samples


# ----------------------------------------------------------------------
# statistics


def percentile_report(samples: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    report = {"n": n, "median": statistics.median(samples) if samples else None}
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            report[f"p{p}"] = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
            break
    return report


# ----------------------------------------------------------------------
# cold-point


def _sweep_argv(seed: int, cache_dir: Path, csv_path: Path) -> list[str]:
    argv = workloads.cold_argv(seed)
    spec_seed = argv[argv.index("--seed") + 1]
    return [
        "-m", "repro", "sweep", "--clip", "lost", "--encoding", "1.7", "--rates", "1.7",
        "--depths", "3000", "--seed", spec_seed, "--cache", "--cache-dir", str(cache_dir),
        "--csv", str(csv_path),
    ]


def _replay_failures(out: str, csv_path: Path, doc: dict) -> list[str]:
    """The warm-store sweep must hit the store and print the run's numbers."""
    failures = []
    if "0 simulated, 1 cache hits" not in out:
        failures.append("replay did not come from the store")
    try:
        row = csv_path.read_text().splitlines()[1].split(",")
    except (OSError, IndexError):
        return failures + ["replay wrote no CSV row"]
    expected = [
        f"{doc['lost_frame_fraction']:.6f}", f"{doc['quality_score']:.6f}",
        f"{doc['packet_drop_fraction']:.6f}", f"{doc['frozen_fraction']:.6f}",
    ]
    if row[2:6] != expected:
        failures.append("replay CSV differs from the run's JSON")
    return failures


def _parse_doc(code: int, out: str):
    if code != 0:
        return f"exit code {code}"
    try:
        return json.loads(out)
    except ValueError:
        return "output is not JSON"


def _median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def _mean(samples: list[float]) -> float:
    return statistics.fmean(samples) if samples else 0.0


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds else 0.0


class Budget:
    """The measured time of a run. Set-up samples are taken outside it.

    Fresh-interpreter set-ups take 2–7 s each, so counting them would
    leave too little of a run for the workload's own samples.
    """

    def __init__(self, seconds: float, speed: HostSpeed | None = None):
        self.seconds = seconds
        self.speed = speed
        self.started = time.perf_counter()
        self.outside = 0.0

    def spent(self) -> float:
        return time.perf_counter() - self.started - self.outside

    def fits(self, last: float) -> bool:
        """Start another step only if one as long as the last still fits."""
        return self.spent() + last <= self.seconds

    def setups(self, children: Children, workload: str, seed: int, taken: list[float]) -> None:
        """Take the set-up samples now due, spread evenly over the run like every other sample."""
        due = min(SETUP_SAMPLES, 1 + int(SETUP_SAMPLES * self.spent() / self.seconds))
        if len(taken) < due:
            started = time.perf_counter()
            taken += setup_samples(children, workload, seed, due - len(taken), self.speed)
            self.outside += time.perf_counter() - started


def cold_point(seed: int, seconds: float, children: Children, tally: Tally,
               speed: HostSpeed) -> dict:
    run_argv = ["-m", "repro", *workloads.cold_argv(seed)]
    fill = children.workdir / "warm-store"
    # The first set-up sample also fills the store the replays read.
    setups = setup_samples(children, "cold-point", seed, 1, speed, store_dir=fill)
    budget = Budget(seconds, speed)
    walls, replays, rss = [], [], []
    round_s = 0.0
    while not walls or budget.fits(round_s):
        round_started = time.perf_counter()
        empty = children.workdir / f"empty-{len(walls)}"
        empty.mkdir()
        run_wall, code, out, peak = children.run(run_argv, env={"REPRO_CACHE_DIR": str(empty)})
        doc = _parse_doc(code, out)
        tally.outputs([doc])
        rss.append(peak)
        csv_path = children.workdir / f"replay-{len(replays)}.csv"
        replay_wall, code, out, _ = children.run(_sweep_argv(seed, fill, csv_path))
        failures = [f"replay exit code {code}"] if code != 0 else []
        if isinstance(doc, dict) and not failures:
            failures = _replay_failures(out, csv_path, doc)
        tally.record_samples(1, failures)
        walls.append(run_wall)
        replays.append((replay_wall, speed.follow(time.perf_counter() - round_started)))
        round_s = time.perf_counter() - round_started
        budget.setups(children, "cold-point", seed, setups)
    setups += setup_samples(children, "cold-point", seed, SETUP_SAMPLES - len(setups), speed)

    def metrics(factor: float, replay_view) -> dict:
        return {
            "setup_s": statistics.median(setups) / factor,
            "first_point_s": statistics.median(walls) / factor,
            "points_per_s": len(walls) / sum(walls) * factor,
            "replay_points_per_s": len(replays) / sum(replay_view(replays)),
            "flows_per_s": len(walls) / sum(walls) * factor,
            "peak_rss_mb": statistics.median(rss),
        }

    return {
        "metrics": metrics(speed.factor(), at_reference),
        "measured_metrics": metrics(1.0, as_measured),
        "samples": {"setup_s": setups, "run_wall_s": walls, "replay_wall_s": replays,
                    "peak_rss_mb": rss},
    }


def _merge_spans(rec: Recorder, payload: dict) -> None:
    offset = len(rec.spans)
    for raw in payload["spans"]:
        parent = raw["parent"] + offset if raw["parent"] >= 0 else -1
        rec.spans.append(Span(raw["name"], raw["start"], raw["end"], parent, raw["unit"]))
    rec.counts.update(payload["counts"])


def cold_point_traced(seed: int, seconds: float, children: Children, tally: Tally) -> dict:
    run_argv = ["-m", "repro", *workloads.cold_argv(seed)]
    rec = Recorder()
    plain, traced, measured = [], [], []
    budget = Budget(seconds)
    while not plain or budget.fits(plain[-1] + traced[-1]):
        empty = children.workdir / f"empty-{len(plain)}"
        empty.mkdir()
        wall, code, out, _ = children.run(run_argv, env={"REPRO_CACHE_DIR": str(empty)})
        tally.outputs([_parse_doc(code, out)])
        plain.append(wall)
        spans_path = children.workdir / f"spans-{len(traced)}.json"
        wall, code, out, _ = children.run(
            [str(HERE / "probe.py"), "trace-run", str(seed), str(spans_path)],
            env={"REPRO_CACHE_DIR": str(empty)},
        )
        tally.outputs([_parse_doc(code, out)])
        traced.append(wall)
        if code == 0:
            payload = json.loads(spans_path.read_text())
            _merge_spans(rec, payload)
            measured.append(payload["wall_s"])
    overhead = statistics.median(traced) - statistics.median(plain)
    return {
        "recorder": rec,
        "metrics": layer_metrics(rec, len(measured), overhead),
        "breakdown": self_time_breakdown(rec, len(measured), _mean(measured)),
        "samples": {"untraced_wall_s": plain, "traced_wall_s": traced},
    }


# ----------------------------------------------------------------------
# in-process workloads


def _check_pass(tally: Tally, result, want_simulated: bool, first_unit: int = 0) -> None:
    """A replay that simulated anything fails all its units."""
    if want_simulated or not result.simulated:
        tally.outputs(result.docs, first_unit)
    else:
        tally.outputs([f"replay simulated {result.simulated} units"] * len(result.docs), first_unit)


def _replay_store(inputs, result, workdir: Path, store):
    """``store`` when the pass wrote one, else a new store filled with the pass's summaries."""
    from repro.core.resultstore import ResultStore

    if store is not None:
        return store
    store = ResultStore(workdir / "replay-store")
    workloads.fill_store(store, inputs, result.summaries)
    return store


def _dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.glob("*.json"))


def full_pass(workload: str, inputs, workdir: Path, tally: Tally, k: int,
              rec: Recorder | None = None) -> float:
    """One simulate pass and its replays, as the traced run repeats them; returns its wall time.

    With a recorder the pass runs inside a ``workload`` root span and
    every layer is wrapped. Outputs are checked after the timed part.
    """
    from repro.core import fastlane
    from repro.core.resultstore import ResultStore

    store_dir = workdir / f"pass-{k}"
    store = ResultStore(store_dir) if workload == "paper-grid" else None
    patches = install(rec) if rec is not None else None
    before = fastlane.stats.as_dict()
    gc.collect()
    started = time.perf_counter()
    root = rec.begin("workload") if rec is not None else None
    try:
        if rec is not None:
            rec.unit = f"pass{k}.simulate"
        results = [workloads.simulate(workload, inputs, store)]
        store = _replay_store(inputs, results[0], store_dir, store)
        for j in range(TRACE_REPLAYS):
            if rec is not None:
                rec.unit = f"pass{k}.replay{j}"
            results.append(workloads.replay(inputs, store))
    finally:
        if rec is not None:
            rec.end(root)
            patches.undo()
    wall = time.perf_counter() - started
    if rec is not None:
        count_fastlane(rec, before)
        if workload == "paper-grid":
            rec.count("store.bytes_written", _dir_bytes(store_dir))
    for i, result in enumerate(results):
        _check_pass(tally, result, want_simulated=i == 0)
    shutil.rmtree(store_dir, ignore_errors=True)
    return wall


def _pass_time(per_part: dict[int, list[float]]) -> float:
    """Time of one whole pass: the sum over its parts of each part's mean time."""
    return sum(statistics.fmean(times) for times in per_part.values())


def _in_process_metrics(setups, firsts, sim_s, replay_s, points, flows, complete,
                        factor: float) -> dict:
    """End-to-end timings and rates, every time but the replays' divided by ``factor``."""
    setup = statistics.median(setups) / factor
    sim_pass = _pass_time(sim_s) / factor if complete else 0.0
    return {
        "setup_s": setup,
        # From a fresh interpreter to the pass's first output, as on cold-point.
        "first_point_s": setup + _median(firsts) / factor,
        "points_per_s": _rate(points, sim_pass),
        "replay_points_per_s": _rate(points, _mean(replay_s)),
        "flows_per_s": _rate(flows, sim_pass),
    }


def in_process(workload: str, seed: int, seconds: float, children: Children, tally: Tally,
               speed: HostSpeed) -> dict:
    inputs, own_setup = workloads.setup(workload, seed)
    speed.follow(own_setup)
    setups = [own_setup]
    from repro.core.resultstore import ResultStore

    # The run rotates through the parts of a pass (workloads.parts), and a
    # pass's time is the sum of its parts' mean times. Each part's
    # summaries also go into one replay store; once it holds the whole
    # pass, every part is followed by replays of the whole pass for a
    # share of the part's time, and, when due, by a fresh-interpreter
    # set-up. So every metric samples the whole run: the host's speed
    # changes within seconds. Reference tasks follow every step, and
    # every 0.1 s of replays (hostspeed.py). Only timings are kept, and garbage is
    # collected before each timed phase, so what the benchmark holds on
    # to does not slow the program's allocator or collector.
    pieces = workloads.parts(workload, inputs)
    replay_store = ResultStore(children.workdir / "replay-store")
    sim_s: dict[int, list[float]] = {k: [] for k in range(len(pieces))}
    firsts: list[float] = []
    replays: list[tuple[float, float]] = []  # (seconds, factor)
    pending: list[float] = []  # replay times still waiting for their factor
    points = flows = 0
    done, last = 0, 0.0
    budget = Budget(seconds, speed)
    while done < len(pieces) or budget.fits(last):
        k = done % len(pieces)
        first_unit, part = pieces[k]
        step_started = time.perf_counter()
        store_dir = children.workdir / f"store-{done}"
        try:
            gc.collect()
            result = workloads.simulate(
                workload, part, ResultStore(store_dir) if workload == "paper-grid" else None
            )
            _check_pass(tally, result, True, first_unit)
            sim_wall, first_s = result.wall_s, result.first_s
            if done < len(pieces):
                points, flows = points + result.points, flows + result.flows
                workloads.fill_store(replay_store, part, result.summaries)
            result = None
            if done >= len(pieces) - 1:
                gc.collect()
                n, burst_s, chunk_s = 0, 0.0, 0.0
                while n < MIN_REPLAYS or burst_s < REPLAY_SHARE * sim_wall:
                    replay = workloads.replay(inputs, replay_store)
                    _check_pass(tally, replay, False)
                    pending.append(replay.wall_s)
                    n, burst_s, chunk_s = n + 1, burst_s + replay.wall_s, chunk_s + replay.wall_s
                    if chunk_s >= REPLAY_CHUNK_S:
                        # Reference tasks right beside the replays they scale.
                        factor = speed.follow(chunk_s)
                        replays += [(seconds, factor) for seconds in pending]
                        pending, chunk_s = [], 0.0
        except Exception as exc:  # counted as a failed part, and ends the run
            tally.raised(workloads.n_units(part), exc)
            break
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        done += 1
        factor = speed.follow(time.perf_counter() - step_started)
        sim_s[k].append(sim_wall)
        if k == 0:
            firsts.append(first_s)
        replays += [(seconds, factor) for seconds in pending]
        pending = []
        last = time.perf_counter() - step_started
        budget.setups(children, workload, seed, setups)
    setups += setup_samples(children, workload, seed, SETUP_SAMPLES - len(setups), speed)

    def metrics(factor: float, replay_view) -> dict:
        return _in_process_metrics(setups, firsts, sim_s, replay_view(replays), points, flows,
                                   done >= len(pieces), factor)

    peak = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    return {
        "metrics": {**metrics(speed.factor(), at_reference), **peak},
        "measured_metrics": {**metrics(1.0, as_measured), **peak},
        "samples": {
            "setup_s": setups,
            "first_output_s": firsts,
            "replay_wall_s": replays,
            **{f"part{k}_wall_s": sim_s[k] for k in sim_s},
        },
    }


def in_process_traced(workload: str, seed: int, seconds: float, children: Children,
                      tally: Tally) -> dict:
    rec = Recorder()
    rec.unit = "setup"
    started = time.perf_counter()
    root = rec.begin("setup")
    inputs, _ = workloads.setup(workload, seed, rec)
    rec.end(root)
    setup_wall = time.perf_counter() - started

    plain, traced = [], []
    budget = Budget(seconds)
    while not plain or budget.fits(plain[-1] + traced[-1]):
        k = len(plain)
        plain.append(full_pass(workload, inputs, children.workdir, tally, 2 * k))
        traced.append(full_pass(workload, inputs, children.workdir, tally, 2 * k + 1, rec))
    overhead = statistics.median(traced) - statistics.median(plain)
    return {
        "recorder": rec,
        "metrics": layer_metrics(rec, len(traced), overhead),
        "breakdown": self_time_breakdown(rec, len(traced), setup_wall + _mean(traced)),
        "samples": {"untraced_wall_s": plain, "traced_wall_s": traced},
    }


# ----------------------------------------------------------------------
# provenance and output


def provenance(load_at_start: tuple) -> dict:
    from importlib import metadata

    commit = os.environ.get("REPRO_BENCH_COMMIT", "unknown")
    if (ROOT / ".git").exists() and shutil.which("git"):
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    versions = {"python": sys.version.split()[0]}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {
        "commit": commit,
        "utc": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        **versions,
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(load_at_start),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()
    sys.path.insert(0, str(SRC))

    workdir = WORK / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    children = Children(workdir)

    def give_up() -> None:
        children.kill()
        shutil.rmtree(workdir, ignore_errors=True)
        print(f"error: run exceeded {RUN_TIMEOUT_S:.0f} s", file=sys.stderr)
        os._exit(3)

    watchdog = threading.Timer(RUN_TIMEOUT_S, give_up)
    watchdog.daemon = True
    watchdog.start()
    tally = Tally(load_pins(args.workload, args.seed))
    speed = HostSpeed()
    started = time.perf_counter()
    try:
        if args.trace:
            if args.workload == "cold-point":
                outcome = cold_point_traced(args.seed, args.seconds, children, tally)
            else:
                outcome = in_process_traced(args.workload, args.seed, args.seconds, children,
                                            tally)
        elif args.workload == "cold-point":
            outcome = cold_point(args.seed, args.seconds, children, tally, speed)
        else:
            outcome = in_process(args.workload, args.seed, args.seconds, children, tally, speed)
    finally:
        watchdog.cancel()
        shutil.rmtree(workdir, ignore_errors=True)

    checks = tally.as_dict()
    if args.trace:
        names = PER_LAYER
        checks["trace_wall_matches_measured"] = outcome["breakdown"]["wall_matches_measured"]
    else:
        names = END_TO_END
        outcome["metrics"]["ok_fraction"] = tally.ok_fraction
    metrics = {name: {"value": float(outcome["metrics"][name]), "unit": unit} for name, unit in names}
    correct = tally.attempted > 0 and tally.failed == 0 and checks.get("trace_wall_matches_measured", True)

    # Replays are (seconds, factor) pairs; the file lists the measured
    # seconds and, apart, the factors.
    samples, factors = {}, {}
    for name, values in outcome["samples"].items():
        if values and isinstance(values[0], tuple):
            samples[name], factors[name] = as_measured(values), [f for _, f in values]
        else:
            samples[name] = values
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    base = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    record = {
        "workload": args.workload, "why": workloads.WHY[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "run_wall_s": time.perf_counter() - started,
        "provenance": provenance(load_at_start), "correct": correct, "checks": checks,
        "metrics": metrics,
        "percentiles": {name: percentile_report(values) for name, values in samples.items()},
        "samples": samples,
    }
    if not args.trace:
        record["host_speed"] = {**speed.as_dict(), "sample_factors": factors}
        record["measured_metrics"] = outcome["measured_metrics"]
    if args.trace:
        record["self_time_breakdown"] = outcome["breakdown"]
        record["spans_file"] = base.name + "-spans.json"
        base.with_name(record["spans_file"]).write_text(json.dumps(outcome["recorder"].to_json()))
    base.with_suffix(".json").write_text(json.dumps(record, indent=2))

    # The last line's keys are fixed, so whether the outputs were checked
    # against pinned digests is said on the line before it.
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{tally.attempted} units, {tally.failed} failed, digest check {tally.digest_check}; "
          f"result in {base.with_suffix('.json').relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload in this interpreter and reduce it to a record.

Shape of a run: setup (imports, boot, sinks, frame pre-build, one discarded
warm-up round), then measured rounds of a fixed frame count each.  The
reported throughput and latency are the *quiet level* of the rounds' slices
(:func:`quiet`); the per-round wall-clock values with their median, IQR and
count ride along in the record.  GC stays on, as users run it.

The traced pass (``trace=True``) measures a few reference rounds first,
then installs the span wrappers and measures again: the difference is
``trace.overhead_share`` and the spans give the per-layer budget.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from . import spec
from .trace import RESIDUE, Tracer

_pc = time.perf_counter

#: Rounds when neither ``--rounds`` nor ``--seconds`` says otherwise.
DEFAULT_ROUNDS = 4
DEFAULT_TRACE_ROUNDS = 2
#: A time-boxed run (``--seconds``) still measures at least this many.
MIN_ROUNDS = 3
MAX_ROUNDS = 16
#: ``setup_s`` is sampled this many times a run (this interpreter plus
#: fresh ones that stop after the warm-up round) and the median reported.
SETUP_SAMPLES = 3

#: Spans whose time is reported per unit of their own work (a video or
#: echo packet), not per frame the round offered.
PER_OWN_UNIT = ("mpeg.path.traverse", "icmp.path.traverse")


def quartile_spread(values: List[float]) -> float:
    """Q3 - Q1 as ``statistics.quantiles(n=4)`` gives them (0 below two)."""
    if len(values) < 2:
        return 0.0
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(values: List[float]) -> Dict[str, Any]:
    """Per-round wall-clock values with their median, IQR and count; the
    median is also the reported ``value`` unless :func:`quiet` replaces it.
    Units are ``BENCHMARK.json``'s."""
    median = statistics.median(values)
    return {"value": median, "median": median,
            "iqr": quartile_spread(values), "n": len(values),
            "per_round": values}


#: Where on the quiet side of a slice kind's observations the reported
#: level sits: the 5th percentile (the minimum below 20 observations).
QUIET_SHARE = 0.05


def _quiet_level(values: List[float]) -> float:
    ordered = sorted(values)
    return ordered[int(len(ordered) * QUIET_SHARE)]


def quiet(rounds: List[Any], uniform: bool) -> Dict[str, float]:
    """The run's throughput and latency with the host's disturbance
    filtered out: for every *kind* of slice, the level its least disturbed
    observations reach.

    Every round replays the same frames, so slice ``i`` does identical
    work in every round; where *uniform*, all slices of a round do the
    same work too and are one kind.  The box this was built on flips
    between two speed states about 11 % apart every second or two, so a
    median of whole rounds lands in either by chance (run-to-run spread
    near 10 %); the quiet level of many short slices does not.
    """
    kinds: Dict[int, List[Any]] = {}
    for rnd in rounds:
        for index, piece in enumerate(rnd.slices):
            kinds.setdefault(0 if uniform else index, []).append(piece)
    seconds = 0.0
    medians = []
    for index, piece in enumerate(rounds[0].slices):
        seen = kinds[0 if uniform else index]
        seconds += piece.frames * _quiet_level(
            [s.seconds / s.frames for s in seen])
        medians.append(_quiet_level([s.p50_us for s in seen]))
    return {"frames_per_s": min(r.ok for r in rounds) / seconds,
            "latency_p50_us": statistics.median(medians)}


def provenance(seed: int) -> Dict[str, Any]:
    def git(*args: str) -> Optional[str]:
        try:
            out = subprocess.run(("git",) + args, cwd=spec.REPO_ROOT,
                                 capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "seed": seed,
    }


def _round_metrics(rnd: Any) -> Dict[str, float]:
    """One round on the wall clock, undisturbed or not."""
    return {
        "frames_per_s": rnd.ok / rnd.window_s,
        "latency_p50_us": statistics.median(s.p50_us for s in rnd.slices),
        "failed_share": (rnd.offered - rnd.ok) / rnd.offered,
    }


async def _measure(workload: Any, rounds: Optional[int],
                   seconds: Optional[float]) -> List[Any]:
    """Measured rounds: exactly *rounds*, or time-boxed by *seconds*."""
    out: List[Any] = []
    started = _pc()
    while True:
        out.append(await workload.run_round(workload.frames_per_round))
        if rounds is not None:
            if len(out) >= rounds:
                return out
            continue
        elapsed = _pc() - started
        # Stop once another round would overshoot by more than half of itself.
        if len(out) >= MAX_ROUNDS or (
                len(out) >= MIN_ROUNDS
                and elapsed + elapsed / len(out) / 2 > seconds):
            return out


def _layer_metrics(workload: Any, tracer: Tracer, frames: int,
                   before: Dict[str, float], after: Dict[str, float],
                   reference_fps: float,
                   traced_fps: float) -> Dict[str, Optional[float]]:
    out: Dict[str, Optional[float]] = {}
    for name in tracer.calls:
        own = tracer.units[name] if name in PER_OWN_UNIT else frames
        out[name + "_us"] = tracer.self_us_per(name, own)
    if workload.residue_metric:
        # Outside every span, plus the serve task's own steps: the pump and
        # the event loop.
        out[workload.residue_metric] = (
            tracer.self_ns[RESIDUE] + tracer.self_ns["api.serve"]
        ) / 1e3 / frames
        out.pop("api.serve_us", None)
    if tracer.wait_units:
        out["core.queues.wait_us"] = tracer.wait_ns / 1e3 / tracer.wait_units
    out["net.sockdev.burst_len"] = tracer.units_per_call("net.sockdev.rx")
    out["sim.exec.batch_len"] = tracer.units_per_call("core.path.traverse")
    out.update(workload.count_metrics(before, after, frames))
    out["trace.coverage"] = tracer.coverage()
    out["trace.overhead_share"] = 1.0 - traced_fps / reference_fps
    out["trace.us_per_frame"] = tracer.wall_ns / 1e3 / frames
    return out


async def _traced_pass(workload: Any, rounds: Optional[int],
                       seconds: Optional[float], record: Dict[str, Any],
                       problems: List[str]) -> List[Any]:
    """Reference rounds, then the same again under the span wrappers; fills
    ``record["per_layer"]`` and returns the traced rounds."""
    half = None if seconds is None else seconds / 2
    if rounds is None and seconds is None:
        rounds = DEFAULT_TRACE_ROUNDS
    reference = await _measure(workload, rounds, half)
    tracer = Tracer()
    workload.instrument(tracer)
    before = workload.counters()
    measured = await _measure(workload, rounds, half)
    after = workload.counters()

    uniform = workload.uniform_slices
    reference_fps = quiet(reference, uniform)["frames_per_s"]
    layers = record["per_layer"] = _layer_metrics(
        workload, tracer, sum(r.offered for r in measured), before, after,
        reference_fps, quiet(measured, uniform)["frames_per_s"])
    record["untraced_us_per_frame"] = 1e6 / reference_fps
    tails = [r.p99_us for r in reference if r.p99_us is not None]
    if tails:
        layers["sock.latency_p99_us"] = statistics.median(tails)
    if tracer.coverage() < workload.coverage_gate:
        problems.append(f"trace.coverage {tracer.coverage():.3f} below the "
                        f"{workload.coverage_gate} gate")
    problems.extend(p for r in reference for p in r.problems)
    return measured


async def drive(workload: Any, started: float, rounds: Optional[int],
                seconds: Optional[float], trace: bool) -> Dict[str, Any]:
    """Set up, measure and check *workload*; returns its record."""
    await workload.setup()
    warm = await workload.warmup()
    setup_s = _pc() - started
    record: Dict[str, Any] = {
        "workload": workload.name, "trace": trace,
        "provenance": provenance(workload.seed),
        "setup_samples_s": [setup_s], "warmup_digest": warm.digest,
    }
    problems = list(warm.problems)
    measured: List[Any] = []
    try:
        if rounds == 0:
            pass
        elif not trace:
            measured = await _measure(workload, rounds, seconds)
        else:
            measured = await _traced_pass(workload, rounds, seconds, record,
                                          problems)
    finally:
        await workload.close()

    for rnd in measured:
        problems.extend(rnd.problems)
    digests = {r.digest for r in measured}
    if len(digests) > 1:
        problems.append(f"digest of sink bytes and ledgers differs across "
                        f"rounds: {sorted(digests)}")
    if measured:
        per_round = [_round_metrics(r) for r in measured]
        record["end_to_end"] = {
            name: summarize([m[name] for m in per_round])
            for name in per_round[0]}
        for name, value in quiet(measured, workload.uniform_slices).items():
            record["end_to_end"][name]["value"] = value
        record["digest"] = sorted(digests)[0]
        record["slices"] = [[list(s) for s in r.slices] for r in measured]
    record["rounds"] = len(measured)
    record["attempted"] = sum(r.offered for r in measured)
    record["failed"] = sum(r.offered - r.ok for r in measured)
    record["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["problems"] = problems
    record["correct"] = not problems and record["failed"] == 0
    return record


def run_child(args: List[str]) -> subprocess.CompletedProcess:
    """One fresh interpreter of this benchmark; the caller reads its
    stdout.  Waits for it: no process outlives the call."""
    return subprocess.run([sys.executable, "-m", "benchmarks.e2e"] + args,
                          cwd=spec.REPO_ROOT, capture_output=True, text=True)

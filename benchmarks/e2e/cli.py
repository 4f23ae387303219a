"""Command line: one workload in this interpreter, or the suite in fresh ones.

``--workload NAME`` once runs that workload here and ends with the result
line the benchmark driver reads.  Any other selection runs each workload
in its own fresh interpreter, one after another, and ends with one JSON
record of all of them.  Nothing is written to disk unless ``--out`` asks.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
from typing import Any, Dict, List, Optional

from . import spec
from .runner import DEFAULT_ROUNDS, SETUP_SAMPLES, run_child


def parse_args(argv: Optional[List[str]], names: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.e2e", description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: same seed, same inputs")
    parser.add_argument("--workload", action="append", choices=names,
                        metavar="NAME", help=f"one of {', '.join(names)}; "
                        f"repeatable (default: all)")
    parser.add_argument("--rounds", type=int, default=None,
                        help=f"measured rounds per workload (default "
                        f"{DEFAULT_ROUNDS}; 0 = set-up only)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for about this long instead: as many "
                        "fixed-size rounds as fit")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="record spans and report the "
                        "per-layer budget (suite: as a second pass)")
    parser.add_argument("--aa", action="store_true",
                        help="run the suite twice on the same code; exit "
                        "non-zero if any end-to-end metric differs by more "
                        "than its bound")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="also write the JSON record to PATH")
    args = parser.parse_args(argv)
    if args.rounds is not None and args.rounds < 0:
        parser.error("--rounds must be >= 0")
    if args.rounds is not None and args.seconds is not None:
        parser.error("--rounds and --seconds are alternatives")
    return args


def _show(title: str, metrics: Dict[str, Any], units: Dict[str, str]) -> None:
    print(title)
    for name in sorted(metrics):
        value = metrics[name]
        unit = units.get(name, "")
        if value is None:
            print(f"  {name:<40} {'absent':>14}")
        else:
            print(f"  {name:<40} {value:>14.4f} {unit}")


def _emit(record: Dict[str, Any], out: Optional[str]) -> None:
    text = json.dumps(record, sort_keys=True)
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")
    print(text)


def _parse_child(stdout: str) -> Dict[str, Any]:
    """The record a single-workload run prints before its result line."""
    lines = stdout.strip().splitlines()
    return json.loads(lines[-2])


# -- one workload, in this interpreter ---------------------------------------

def run_one(name: str, args: argparse.Namespace, started: float,
            declared: dict) -> int:
    from .probes import run_probes
    from .runner import drive
    from .trace import run_traced
    from .workloads import create

    rounds, seconds = args.rounds, args.seconds
    if rounds is None and seconds is None and not args.trace:
        rounds = DEFAULT_ROUNDS

    workload = create(name, args.seed, traced=bool(args.trace))

    async def main() -> Dict[str, Any]:
        record = await drive(workload, started, rounds, seconds,
                             bool(args.trace))
        if args.trace and "per_layer" in record:
            record["per_layer"].update(await run_probes(args.seed))
        return record

    record = run_traced(main(), workload) if args.trace \
        else asyncio.run(main())
    end_units = {e["name"]: e["unit"] for e in declared["end_to_end"]}
    layer_units = {e["name"]: e["unit"] for e in declared["per_layer"]}

    if args.trace:
        layers = record.get("per_layer", {})
        metrics = {n: layers.get(n) for n in layer_units}
        _show(f"{name} per-layer (seed {args.seed}, {record['rounds']} "
              f"traced rounds)", metrics, layer_units)
        _budget_rx_burst(name, layers)
    else:
        summary = record.get("end_to_end", {})
        metrics = {n: summary[n]["value"] for n in summary}
        if record["rounds"]:
            _sample_setup(name, args.seed, record)
        metrics["setup_s"] = statistics.median(record["setup_samples_s"])
        metrics["peak_rss_mb"] = record["peak_rss_mb"]
        record["metrics"] = metrics
        _show(f"{name} end-to-end (seed {args.seed}, {record['rounds']} "
              f"rounds)", metrics, dict(end_units, failed_share="ratio"))

    for problem in record["problems"]:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    _emit(record, args.out)
    # The driver's line: every declared metric of this mode, nothing else
    # (a set-up-only run has only the set-up metrics to give).  A layer that
    # is not on this workload's path spent no time there: 0.
    wanted = layer_units if args.trace else end_units
    print(json.dumps({
        "correct": record["correct"],
        "attempted": max(1, record["attempted"]),
        "failed": record["failed"],
        "metrics": {n: {"value": metrics[n] or 0.0, "unit": u}
                    for n, u in wanted.items()
                    if record["rounds"] or n in metrics},
    }))
    return 0 if record["correct"] else 1


def _sample_setup(name: str, seed: int, record: Dict[str, Any]) -> None:
    """Sample set-up again in fresh interpreters that stop after the warm-up
    round; each must also reproduce this interpreter's warm-up digest."""
    for _ in range(SETUP_SAMPLES - 1):
        child = run_child(["--workload", name, "--seed", str(seed),
                           "--rounds", "0"])
        if child.returncode != 0:
            record["problems"].append(
                f"set-up-only run failed: {child.stderr[-500:]}")
            break
        other = _parse_child(child.stdout)
        record["setup_samples_s"].extend(other["setup_samples_s"])
        if other["warmup_digest"] != record["warmup_digest"]:
            record["problems"].append(
                "warm-up digest differs between interpreters")
    record["correct"] = record["correct"] and not record["problems"]


def _budget_rx_burst(name: str, layers: Dict[str, Any]) -> None:
    parts = [layers.get("probe.core.message.alloc_ns"),
             layers.get("probe.core.classify.hit_ns"),
             layers.get("probe.core.queues.enq_deq_ns")]
    measured = layers.get("kernel.scout.rx_burst_us")
    if name == "sim_warm" and measured and all(parts):
        print(f"  budget: probe alloc + classify.hit + enq_deq = "
              f"{sum(parts) / 1e3:.3f} us  vs  kernel.scout.rx_burst_us = "
              f"{measured:.3f} us")


# -- the suite, one fresh interpreter per workload ---------------------------

def run_suite(names: List[str], args: argparse.Namespace) -> Dict[str, Any]:
    passthrough = ["--seed", str(args.seed)]
    if args.rounds is not None:
        passthrough += ["--rounds", str(args.rounds)]
    if args.seconds is not None:
        passthrough += ["--seconds", str(args.seconds)]
    suite: Dict[str, Any] = {"seed": args.seed, "workloads": {},
                             "correct": True}
    for name in names:
        for trace in ([0, 1] if args.trace else [0]):
            child = run_child(["--workload", name, "--trace", str(trace)]
                              + passthrough)
            lines = child.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-2]) + "\n")
            sys.stderr.write(child.stderr)
            try:
                record = _parse_child(child.stdout)
            except (IndexError, ValueError):
                record = {"correct": False, "problems": [
                    f"no record (exit {child.returncode})"]}
            if child.returncode != 0:
                record["correct"] = False
            suite["correct"] = suite["correct"] and record["correct"]
            suite.setdefault("provenance", record.get("provenance"))
            entry = suite["workloads"].setdefault(name, {})
            entry["traced" if trace else "untraced"] = record
    if args.trace:
        suite["budget"] = _budget_sock_stream(suite["workloads"])
    return suite


def _budget_sock_stream(workloads: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """sock_stream us/frame against sim_warm us/frame plus the edge's
    layers.  The buckets partition the traced window, so the two sides
    differ only by what the shared layers (rx_burst, path) cost more on
    one executor than the other."""
    try:
        sock = workloads["sock_stream"]["traced"]["per_layer"]
        sim = workloads["sim_warm"]["traced"]["per_layer"]
    except KeyError:
        return None
    terms = {
        "sim_warm.us_per_frame": sim["trace.us_per_frame"],
        "net.sockdev.rx_us": sock.get("net.sockdev.rx_us") or 0.0,
        "api.serve.residue_us": sock.get("api.serve.residue_us") or 0.0,
        "api.serve.select_us": sock.get("api.serve.select_us") or 0.0,
        "loadgen.send_us": sock.get("loadgen.send_us") or 0.0,
        "sim.aio.dispatch_us - sim.sched.dispatch_us":
            (sock.get("sim.aio.dispatch_us") or 0.0)
            - (sim.get("sim.sched.dispatch_us") or 0.0),
    }
    budget = {"terms": terms, "sum_us": sum(terms.values()),
              "measured_us": sock["trace.us_per_frame"],
              "measured_untraced_us":
                  workloads["sock_stream"]["traced"]["untraced_us_per_frame"]}
    print("sock_stream budget (traced us/frame):")
    for term, value in terms.items():
        print(f"  {term:<46} {value:>10.3f}")
    print(f"  {'sum':<46} {budget['sum_us']:>10.3f}  vs measured "
          f"{budget['measured_us']:.3f} (untraced "
          f"{budget['measured_untraced_us']:.3f})")
    return budget


def compare_aa(first: Dict[str, Any], second: Dict[str, Any],
               declared: dict) -> List[str]:
    """Every (workload, end-to-end metric) whose two medians differ by more
    than the metric's own bound."""
    breaches = []
    bounds = {e["name"]: e["bound"] for e in declared["end_to_end"]}
    for name, entry in first["workloads"].items():
        a = entry["untraced"].get("metrics", {})
        b = second["workloads"][name]["untraced"].get("metrics", {})
        for metric, value in a.items():
            other = b.get(metric)
            if other is None:
                breaches.append(f"{name}.{metric}: missing in second run")
            elif metric == "failed_share":
                if abs(other - value) > spec.FAILED_SHARE_BOUND:
                    breaches.append(f"{name}.failed_share: {value} vs {other}")
            elif metric in bounds and value and \
                    abs(other - value) / value > bounds[metric]:
                breaches.append(
                    f"{name}.{metric}: {value:.4f} vs {other:.4f} differ by "
                    f"{abs(other - value) / value:.1%} > {bounds[metric]:.0%}")
    return breaches


def main(started: float, argv: Optional[List[str]] = None) -> int:
    declared = spec.load()
    names = spec.workload_names(declared)
    args = parse_args(argv, names)
    selected = args.workload or names
    if len(selected) == 1 and not args.aa:
        return run_one(selected[0], args, started, declared)

    args.trace = 0 if args.aa else args.trace
    suite = run_suite(selected, args)
    if args.aa:
        second = run_suite(selected, args)
        breaches = compare_aa(suite, second, declared)
        for breach in breaches:
            print(f"A/A BREACH: {breach}", file=sys.stderr)
        suite = {"aa": [suite, second], "breaches": breaches,
                 "correct": suite["correct"] and second["correct"]
                 and not breaches}
    _emit(suite, args.out)
    return 0 if suite["correct"] else 1

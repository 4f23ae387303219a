"""Regenerate every paper table from the command line, and check it.

Usage::

    python -m repro.experiments              # capped clip lengths
    REPRO_FULL=1 python -m repro.experiments # the paper's full clips
    python -m repro.experiments table1 e3    # a subset
    python -m repro.experiments --check      # also assert each result's
                                             # shape; exit 1 on a failure

Experiment ids: table1, table2, e3 (EDF vs RR), e4 (micro), e5 (queue
sizing), e6 (admission), e7 (early discard), e8 (ablations), trace
(per-path observability: hottest spans + metrics for a traced playback),
multipath (path groups + warm pools; an extension beyond the paper),
adversary (worst-case traffic vs stability verdicts), multihop (3-hop
heterogeneous-MTU forwarding with path-MTU discovery), shard (N-kernel
fabric: dispatch balance + merged-book exactness), recovery (TCP across
fault profiles + watchdog rebuild of a stalled video path).
"""

from __future__ import annotations

import sys
import traceback

from .registry import EXPERIMENTS


def main(argv) -> int:
    args = argv[1:]
    check = "--check" in args
    wanted = [arg for arg in args if arg != "--check"] or list(EXPERIMENTS)
    unknown = [name for name in wanted if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; "
              f"choose from {sorted(EXPERIMENTS)}")
        return 2
    if check and not __debug__:
        print("--check asserts; it cannot run under python -O")
        return 2
    failed = []
    for name in wanted:
        experiment = EXPERIMENTS[name]
        print(f"\n=== {name} " + "=" * (66 - len(name)))
        result = experiment.run()
        print(experiment.format(result))
        if not check:
            continue
        try:
            experiment.check(result)
        except AssertionError:
            failed.append(name)
            print("check FAILED:")
            traceback.print_exc(file=sys.stdout)
        else:
            print("check ok")
    if failed:
        print(f"\nfailed checks: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

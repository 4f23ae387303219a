"""Multipath experiment: path groups and warm pools (beyond the paper).

This experiment exercises the extension DESIGN.md section 12 describes:
one flow class fanned across a :class:`~repro.multipath.PathGroup` of
parallel paths, dispatched at the demux boundary by a load-aware policy,
with replacement/connection paths drawn from a warm
:class:`~repro.multipath.PathPool`.

Two deterministic measurements (no wall-clock timing, so the numbers are
reproducible anywhere):

* **fan-out throughput** — the same offered load (bursts overflowing a
  single path's bounded input queue) against groups of growing size;
  delivered + dropped must equal offered exactly for every
  configuration, and a 4-member ``least_loaded`` group should sustain
  several times the single path's delivered throughput;
* **pool churn** — an acquire/release cycle over a warm pool: every
  cycle after the prewarm must be a hit (zero cold creates).
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence

from ..core.attributes import PA_NET_PARTICIPANTS, Attrs
from ..core.classify import classify
from ..core.flowcache import FlowCache
from ..core.message import Msg
from ..core.stage import BWD
from ..multipath import PathGroup, PathPool
from ..net.common import PA_LOCAL_PORT
from .micro import Fig7Stack, REMOTE_IP

PORT = 6100

#: Floor :func:`check_multipath` holds: delivered count of a 4-member
#: group relative to the single path under the same offered load.
MIN_GROUP_THROUGHPUT_RATIO = 2.0


class MultipathPoint(NamedTuple):
    members: int
    policy: str
    offered: int
    delivered: int
    dropped: int
    dispatches: int
    throughput_x: float  # delivered, relative to the single-path run


class PoolChurnResult(NamedTuple):
    cycles: int
    hits: int
    misses: int
    parked: int
    prewarmed: int


def _drive(members: int, policy: str, rounds: int, burst: int
           ) -> MultipathPoint:
    """Offer ``rounds`` bursts at one port served by *members* parallel
    paths, draining each path's input queue once per round."""
    stack = Fig7Stack()
    if members == 1:
        paths = [stack.create_udp_path(local_port=PORT)]
        group = None
    else:
        group = PathGroup(policy, name=f"exp-{members}")
        paths = [group.add(stack.create_udp_path(PORT))
                 for _ in range(members)]
    cache = FlowCache(capacity=128)
    offered = delivered = dropped = 0
    for _ in range(rounds):
        for _ in range(burst):
            msg = Msg(stack.udp_frame(PORT))
            offered += 1
            path = classify(stack.eth, msg, cache=cache)
            assert path is not None
            if not path.input_queue(BWD).try_enqueue(msg):
                path.note_drop(msg, "path input queue full", "inq_overflow")
                dropped += 1
        for path in paths:
            queue = path.input_queue(BWD)
            while queue.try_dequeue() is not None:
                delivered += 1
    assert offered == delivered + dropped  # exact ledger, every config
    return MultipathPoint(
        members=members, policy=policy if members > 1 else "-",
        offered=offered, delivered=delivered, dropped=dropped,
        dispatches=group.dispatches if group is not None else 0,
        throughput_x=0.0)


def run_multipath(member_counts: Sequence[int] = (1, 2, 4),
                  policy: str = "least_loaded", rounds: int = 10,
                  burst: int = 96) -> List[MultipathPoint]:
    points = [_drive(m, policy, rounds, burst) for m in member_counts]
    base = max(points[0].delivered, 1)
    return [p._replace(throughput_x=p.delivered / base) for p in points]


def run_pool_churn(cycles: int = 100) -> PoolChurnResult:
    stack = Fig7Stack()
    attrs = Attrs({PA_NET_PARTICIPANTS: (REMOTE_IP, 7000),
                   PA_LOCAL_PORT: PORT})
    pool = PathPool(stack.test)
    pool.prewarm(attrs, count=1)
    for _ in range(cycles):
        pool.release(pool.acquire(attrs))
    return PoolChurnResult(cycles=cycles, hits=pool.hits,
                           misses=pool.misses, parked=pool.parked,
                           prewarmed=pool.prewarmed)


def format_multipath(points: List[MultipathPoint],
                     churn: PoolChurnResult) -> str:
    lines = [
        "Multipath (beyond the paper; DESIGN.md sec 12): "
        "group fan-out + warm pool",
        f"{'members':>8}{'policy':>14}{'offered':>9}{'delivered':>11}"
        f"{'dropped':>9}{'throughput':>12}",
    ]
    for p in points:
        lines.append(
            f"{p.members:>8}{p.policy:>14}{p.offered:>9}{p.delivered:>11}"
            f"{p.dropped:>9}{p.throughput_x:>11.1f}x")
    lines.append(
        f"  pool churn: {churn.cycles} acquire/release cycles -> "
        f"{churn.hits} hits, {churn.misses} cold creates "
        f"({churn.prewarmed} prewarmed)")
    return "\n".join(lines)


def check_multipath(points: List[MultipathPoint],
                    churn: PoolChurnResult) -> None:
    """A 4-member group absorbs the load that overflows one path, every
    ledger reconciles exactly, and the warm pool never creates cold."""
    for p in points:
        assert p.offered == p.delivered + p.dropped, p
    by_members = {p.members: p for p in points}
    assert by_members[1].dropped > 0  # the single path really was overloaded
    assert by_members[4].throughput_x >= MIN_GROUP_THROUGHPUT_RATIO, \
        by_members[4]
    assert churn.misses == 0  # every cycle was a warm hit

"""Shard-fabric experiment: dispatch balance and merged-book exactness.

Drive one warm multi-flow UDP workload through fabrics of 1, 2, and 4
shards and report, per scale, how the flow hash spread the flows, what
the merged ledger counted, and whether the books reconciled exactly
against every shard kernel's own accounting (DESIGN.md §17).  The table
is about the *semantics* being scale-invariant — delivered totals and
per-flow streams must not move as the shard count does.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence

from ..net.addresses import EthAddr, IpAddr
from ..net.packets import build_udp_frame
from ..observe.ledger import DELIVERED
from ..shard import ShardedKernel

FLOWS = 12
SINK_PORT = 6100
FRAMES_PER_FLOW = 40
OFFERS = 3


class ShardRun(NamedTuple):
    shards: int
    flows_per_shard: List[int]
    injected: int
    delivered: int
    flow_streams: int
    reconciled: bool
    stream_digest: int        # order-sensitive hash over all flow streams


def _workload(offer_index: int) -> List[bytes]:
    frames = []
    sequence = offer_index * FLOWS * FRAMES_PER_FLOW
    for flow in range(FLOWS):
        for _ in range(FRAMES_PER_FLOW):
            frames.append(bytes(build_udp_frame(
                EthAddr("02:00:00:00:00:02"), EthAddr("02:00:00:00:00:01"),
                IpAddr("10.0.0.2"), IpAddr("10.0.0.1"),
                7000 + flow, SINK_PORT + flow,
                b"flow%02d-%06d" % (flow, sequence))))
            sequence += 1
    return frames


def _digest(flow_streams: Dict[bytes, List[bytes]]) -> int:
    import zlib
    acc = 0
    for key in sorted(flow_streams):
        acc = zlib.crc32(key, acc)
        for payload in flow_streams[key]:
            acc = zlib.crc32(payload, acc)
    return acc


def run_shard(shard_counts: Sequence[int] = (1, 2, 4)) -> List[ShardRun]:
    runs = []
    ports = tuple(SINK_PORT + flow for flow in range(FLOWS))
    for shards in shard_counts:
        fabric = ShardedKernel(shards=shards, ports=ports,
                               batch=8, inq_len=2 * FRAMES_PER_FLOW)
        for offer_index in range(OFFERS):
            fabric.offer(_workload(offer_index))
        books = fabric.finish()
        flows_per_shard = [len(fabric.dispatcher.flows_on_shard[s])
                           for s in range(shards)]
        counts = books.ledger.counts()
        runs.append(ShardRun(
            shards=shards,
            flows_per_shard=flows_per_shard,
            injected=books.ledger.injected,
            delivered=counts.get(DELIVERED, 0),
            flow_streams=len(fabric.flow_streams),
            reconciled=books.ok,
            stream_digest=_digest(fabric.flow_streams)))
    return runs


def format_shard(runs: List[ShardRun]) -> str:
    lines = [
        "Sharded kernel fabric: scale-invariant books",
        f"{FLOWS} flows x {OFFERS} offers x {FRAMES_PER_FLOW} frames",
        "",
        f"{'shards':>6}  {'flows/shard':>14}  {'injected':>8}  "
        f"{'delivered':>9}  {'reconciled':>10}  {'stream digest':>13}",
    ]
    for run in runs:
        spread = "+".join(str(n) for n in run.flows_per_shard)
        lines.append(
            f"{run.shards:>6}  {spread:>14}  {run.injected:>8}  "
            f"{run.delivered:>9}  {'exact' if run.reconciled else 'FAIL':>10}"
            f"  {run.stream_digest:#013x}")
    digests = {run.stream_digest for run in runs}
    lines.append("")
    lines.append("per-flow payload streams "
                 + ("IDENTICAL across shard counts"
                    if len(digests) == 1 else "DIVERGE (BUG)"))
    return "\n".join(lines)


def check_shard(runs: List[ShardRun]) -> None:
    """Books reconcile at every scale and the shard count is invisible
    in what was delivered."""
    for run in runs:
        assert run.reconciled, run
    assert len({(run.injected, run.delivered, run.flow_streams,
                 run.stream_digest) for run in runs}) == 1, runs

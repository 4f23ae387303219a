"""Multi-hop forwarding experiment: heterogeneous MTUs + PMTUD.

The router appliance scenario (DESIGN.md section 16): a 3-hop chain
whose middle link has a 600-byte MTU between 1500-byte edges.  Two
deterministic measurements:

* **differential delivery** — the same blob through a single-hop
  baseline, through the 3-hop chain with an MTU-oblivious sender
  (routers fragment in flight), and through the 3-hop chain after
  path-MTU discovery (zero fragments anywhere); all three must deliver
  byte-identical payloads;
* **loss amplification** — on a lossy min-MTU link, losing any one
  fragment of a datagram loses the whole datagram, so an
  always-fragmenting sender's goodput decays with the *fragment* count
  while a PMTUD sender's decays only with the *datagram* count.  This
  is the classic "fragmentation considered harmful" effect, and the
  quantitative case for discovery.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from ..sim.world import SimWorld
from ..topo import Topology

MID_MTU = 600
EDGE_MTU = 1500

#: Floor :func:`check_multihop` holds: post-PMTUD goodput relative to the
#: always-fragmenting sender on the lossy min-MTU link.
MIN_GOODPUT_RATIO = 1.5


class MultihopRun(NamedTuple):
    label: str
    hops: int
    pmtu: Optional[int]       # learned path MTU (None: discovery off)
    datagrams: int
    sender_fragments: int     # fragments the sending IP stage created
    inflight_fragments: int   # fragments the first router created
    bytes_delivered: int
    identical: bool


class LossGoodput(NamedTuple):
    loss_rate: float
    frag_datagrams: int
    frag_bytes: int
    pmtud_datagrams: int
    pmtud_bytes: int
    ratio: float              # pmtud_bytes / frag_bytes


def build_three_hop(world: SimWorld, mid_mtu: int = MID_MTU,
                    loss_rate: float = 0.0,
                    bandwidth_mbps: float = 100.0,
                    latency_us: float = 20.0) -> Topology:
    """sender --1500-- r1 --mid_mtu-- r2 --1500-- receiver"""
    topo = Topology(world)
    topo.segment("L1", mtu=EDGE_MTU, bandwidth_mbps=bandwidth_mbps,
                 latency_us=latency_us)
    topo.segment("L2", mtu=mid_mtu, bandwidth_mbps=bandwidth_mbps,
                 latency_us=latency_us, loss_rate=loss_rate)
    topo.segment("L3", mtu=EDGE_MTU, bandwidth_mbps=bandwidth_mbps,
                 latency_us=latency_us)
    topo.host("sender", "L1", "10.0.1.1")
    topo.host("receiver", "L3", "10.0.3.1")
    topo.router("r1", {"a": ("L1", "10.0.1.254"), "b": ("L2", "10.0.2.1")})
    topo.router("r2", {"a": ("L2", "10.0.2.254"), "b": ("L3", "10.0.3.254")})
    return topo


def _blob(size: int) -> bytes:
    return bytes((i * 31 + 7) % 256 for i in range(size))


def _transfer(topo: Topology, blob: bytes, label: str, hops: int,
              pmtud: bool, mss: Optional[int],
              run_us: float = 5_000_000.0) -> MultihopRun:
    world = topo.world
    pp = topo.provision("sender", "receiver", pmtud=pmtud)
    count = pp.send_stream(blob, mss=mss)
    world.run_for(run_us)
    first_router = next(iter(topo.routers.values()), None)
    return MultihopRun(
        label=label, hops=hops,
        pmtu=pp.pmtu if pmtud else None,
        datagrams=count,
        sender_fragments=pp.path.stage_of("IP").fragments_sent,
        inflight_fragments=(first_router.fwd.fragments_created
                            if first_router is not None else 0),
        bytes_delivered=len(pp.received_bytes()),
        identical=pp.received_bytes() == blob)


def run_multihop(blob_size: int = 20_000, seed: int = 11
                 ) -> List[MultihopRun]:
    """The differential: single hop vs in-flight frag vs PMTUD."""
    blob = _blob(blob_size)
    runs = []

    world = SimWorld(seed=seed)
    topo = Topology(world)
    topo.segment("L1", mtu=EDGE_MTU, bandwidth_mbps=100.0, latency_us=20.0)
    topo.host("sender", "L1", "10.0.1.1")
    topo.host("receiver", "L1", "10.0.1.2")
    runs.append(_transfer(topo, blob, "single-hop baseline", 1,
                          pmtud=False, mss=1400))

    topo = build_three_hop(SimWorld(seed=seed))
    runs.append(_transfer(topo, blob, "3-hop, in-flight frag", 3,
                          pmtud=False, mss=1400))

    topo = build_three_hop(SimWorld(seed=seed))
    runs.append(_transfer(topo, blob, "3-hop, PMTUD", 3,
                          pmtud=True, mss=None))
    return runs


def run_loss_amplification(loss_rate: float = 0.25,
                           blob_size: int = 100_000,
                           seed: int = 7) -> LossGoodput:
    """Goodput over a lossy min-MTU link: fragment-loss amplification
    vs PMTUD resegmentation, same blob, same seed, fixed horizon."""
    blob = _blob(blob_size)
    results = {}
    for mode in ("frag", "pmtud"):
        topo = build_three_hop(SimWorld(seed=seed), loss_rate=loss_rate,
                               latency_us=5.0)
        pp = topo.provision("sender", "receiver", pmtud=(mode == "pmtud"))
        count = pp.send_stream(blob, mss=(1400 if mode == "frag" else None))
        topo.world.run_for(3_000_000)
        results[mode] = (count, topo.hosts["receiver"].bytes_received)
    frag_n, frag_bytes = results["frag"]
    pmtud_n, pmtud_bytes = results["pmtud"]
    return LossGoodput(
        loss_rate=loss_rate,
        frag_datagrams=frag_n, frag_bytes=frag_bytes,
        pmtud_datagrams=pmtud_n, pmtud_bytes=pmtud_bytes,
        ratio=pmtud_bytes / max(frag_bytes, 1))


def format_multihop(runs: List[MultihopRun], loss: LossGoodput) -> str:
    lines = [
        "Multi-hop forwarding (DESIGN.md sec 16): 1500/600/1500 chain",
        f"{'scenario':>24}{'hops':>6}{'pmtu':>6}{'dgrams':>8}"
        f"{'src-frag':>10}{'hop-frag':>10}{'bytes':>8}{'ok':>4}",
    ]
    for r in runs:
        lines.append(
            f"{r.label:>24}{r.hops:>6}"
            f"{r.pmtu if r.pmtu is not None else '-':>6}"
            f"{r.datagrams:>8}{r.sender_fragments:>10}"
            f"{r.inflight_fragments:>10}{r.bytes_delivered:>8}"
            f"{'yes' if r.identical else 'NO':>4}")
    lines.append(
        f"  lossy min-MTU link (p={loss.loss_rate}): "
        f"always-fragmenting {loss.frag_bytes} B vs "
        f"PMTUD {loss.pmtud_bytes} B -> {loss.ratio:.2f}x goodput")
    return "\n".join(lines)


def check_multihop(runs: List[MultihopRun], loss: LossGoodput) -> None:
    """All three data paths deliver the same bytes, the converged sender
    fragments nothing, and PMTUD pays for itself under loss."""
    by_label = {r.label: r for r in runs}
    baseline = by_label["single-hop baseline"]
    inflight = by_label["3-hop, in-flight frag"]
    pmtud = by_label["3-hop, PMTUD"]
    assert baseline.identical and inflight.identical and pmtud.identical
    assert (baseline.bytes_delivered == inflight.bytes_delivered
            == pmtud.bytes_delivered)
    # The oblivious sender really did force in-flight fragmentation...
    assert inflight.inflight_fragments > 0
    # ...and the converged sender put zero fragments on the wire.
    assert pmtud.pmtu == MID_MTU
    assert pmtud.sender_fragments == 0
    assert pmtud.inflight_fragments == 0
    # Losing any one fragment loses the whole datagram, so the
    # always-fragmenting baseline decays with the fragment count while
    # the resegmenting sender decays only with the datagram count.
    assert loss.pmtud_bytes > loss.frag_bytes
    assert loss.ratio >= MIN_GOODPUT_RATIO, loss

"""Call budgets for deterministic routes (DESIGN.md §11.1).

Every Python-level call into ``repro`` on a route is counted with
``sys.setprofile``.  The count is a property of the code, not of the
machine, so it is enforced where a timing could not be: a stage that
grows an indirection shows here before it shows in ``frames_per_s``.

- A warm frame on a ``sim_warm``-shaped kernel (4 flows, batch 16, the
  specialized tier) crosses interrupt-time receive, flow-cache hit,
  admission, the queue hop, the fused path body and the sink.
- A miss frame on a ``sim_cold``-shaped kernel (512 flows over 16 sinks,
  batch 1, every 8th frame unbound) takes the demux chain, a scheduler
  hop per frame and the reference walk, or the unclassified drop.
- A transit datagram (1400 bytes across ``build_three_hop``, PMTUD off)
  is fragmented at the first router, forwarded by the second and
  reassembled at the receiver: seven wire frames, each an interrupt and
  a scheduler hop on the node it reaches.
- A video packet is one ``MpegDecoder.feed`` of a Neptune packet: the
  header, every macroblock record and its coefficients read back.
"""

import os
import sys
from collections import Counter

import repro
from repro.api import Scout, SimWorld
from repro.core import BWD
from repro.experiments.multihop_exp import build_three_hop
from repro.mpeg import NEPTUNE, MpegDecoder, synthesize_clip
from repro.net import EthAddr, IpAddr, build_udp_frame

#: Measured 32.1 calls per warm frame; 33.8 while each scheduler hop built
#: an engine ``Event``, 34.8 while the classifier keyed through a
#: ``flow_key(msg)`` wrapper, 49.8 while the arrival EWMA lived on
#: ``path.attrs``.  Set just above the measurement.
CALLS_PER_WARM_FRAME = 32.2

#: Measured 88.3 calls per miss frame; 106.3 while the demux chain
#: parsed headers into objects, 124.1 while each scheduler hop built an
#: engine ``Event`` and peeked before every step.  Set just above the
#: measurement.
CALLS_PER_COLD_FRAME = 88.5

#: Measured 804.0 calls per transit datagram; 1,000.0 while the demux
#: chain and the forward route parsed and built header and address
#: objects, 1,332.0 while each scheduler hop built an engine ``Event`` and
#: the wire built an ``EthAddr`` per frame.  Set just above the
#: measurement.
CALLS_PER_TRANSIT_DATAGRAM = 806.0

#: Calls into ``net/addresses`` + ``net/headers`` on the two routes that
#: parse headers, bounded by name so a header or address object that
#: creeps back onto a per-frame route fails here.  Measured 4.75 per miss
#: frame (22.75 while headers were objects on the demux chain) and 40.0
#: per transit datagram (217.0): the ``msg.meta`` ``eth_src``/``ip_src``
#: addresses, one header read per parse, one pack per header written, and
#: the reassembled datagram's header handed to the reclassify hook.
HEADER_CALLS_PER_COLD_FRAME = 5.0
HEADER_CALLS_PER_TRANSIT_DATAGRAM = 41.0
HEADER_MODULES = ("net/addresses", "net/headers")

#: Measured 457.2 calls per seed-1 Neptune packet (12 frames, 85
#: packets); 746.6 while the decoder read coefficients in 16-bit words.
#: Set just above the measurement.
CALLS_PER_VIDEO_PACKET = 458.0

FLOWS, BURST, WARM_BURSTS, COUNTED_BURSTS = 4, 64, 8, 16
REMOTE_MAC, REMOTE_IP = EthAddr("02:00:00:00:00:02"), IpAddr("10.0.0.2")
LOCAL_MAC, LOCAL_IP = EthAddr("02:00:00:00:00:01"), IpAddr("10.0.0.1")


def calls_into_repro(run) -> Counter:
    """How many Python-level calls into ``repro`` ``run()`` makes, per
    module: ``"net/headers"`` for ``repro/net/headers.py``.  The total is
    ``sum(calls.values())``."""
    package = os.path.dirname(repro.__file__) + os.sep
    skip = len(package)
    files = Counter()

    def count(frame, event, _arg):
        if event == "call":
            filename = frame.f_code.co_filename
            if filename.startswith(package):
                files[filename] += 1

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    calls = Counter()
    for filename, n in files.items():
        calls[filename[skip:-3].replace(os.sep, "/")] += n
    return calls


def header_calls(calls: Counter) -> Counter:
    """The calls *calls* makes into the header and address modules."""
    return Counter({module: calls[module] for module in HEADER_MODULES})


def within_budget(calls: Counter, per: int, budget: float) -> None:
    """Assert *calls* / *per* stays inside *budget*; a failure names the
    modules that make the most calls per unit."""
    total = sum(calls.values()) / per
    top = ", ".join(f"{module} {n / per:.2f}"
                    for module, n in calls.most_common(6))
    assert total <= budget, f"{total:.2f} calls per unit: {top}"


def test_a_warm_frame_stays_inside_its_call_budget():
    scout = Scout(seed=1, udp_sink=True, display=False)
    scout.add_peer(REMOTE_IP, REMOTE_MAC)
    delivered = []
    for flow in range(FLOWS):
        path = scout.kernel.start_udp_sink(
            6100 + flow, (str(REMOTE_IP), 7000 + flow),
            batch=16, inq_len=256, specialize=True)
        # The consumer a sink benchmark runs: take each deposit at once.
        path.output_queue(BWD).on_enqueue(
            lambda queue: delivered.append(queue.dequeue()))
    frames = [build_udp_frame(REMOTE_MAC, LOCAL_MAC, REMOTE_IP, LOCAL_IP,
                              7000 + i % FLOWS, 6100 + i % FLOWS,
                              b"%04d" % i + b"x" * 60)
              for i in range(BURST)]
    kernel, world = scout.kernel, scout.world

    def bursts(count):
        for _ in range(count):
            kernel.rx_burst(frames)
            world.run_until_idle()

    bursts(WARM_BURSTS)
    delivered.clear()
    hits = kernel.flow_cache.hits
    fused = sum(p.specialized_msgs for p in kernel.paths())
    calls = calls_into_repro(lambda: bursts(COUNTED_BURSTS))
    counted = COUNTED_BURSTS * BURST
    # Every counted frame was a fused flow-cache hit that reached a sink.
    assert len(delivered) == counted
    assert kernel.flow_cache.hits - hits == counted
    assert sum(p.specialized_msgs for p in kernel.paths()) - fused == counted
    within_budget(calls, counted, CALLS_PER_WARM_FRAME)


def test_a_miss_frame_stays_inside_its_call_budget():
    flows, sinks, unbound_every = 512, 16, 8
    scout = Scout(seed=1, udp_sink=True, display=False)
    scout.add_peer(REMOTE_IP, REMOTE_MAC)
    delivered = []
    for sink in range(sinks):
        path = scout.kernel.start_udp_sink(
            6100 + sink, (str(REMOTE_IP), 7000 + sink), batch=1)
        path.output_queue(BWD).on_enqueue(
            lambda queue: delivered.append(queue.dequeue()))
    frames = []
    for i in range(flows):
        unbound = i % unbound_every == unbound_every - 1
        frames.append(build_udp_frame(
            REMOTE_MAC, LOCAL_MAC, REMOTE_IP, LOCAL_IP, 7000 + i,
            5999 if unbound else 6100 + i % sinks, b"%04d" % i + b"x" * 60))
    kernel, world = scout.kernel, scout.world

    def one_pass():
        for start in range(0, flows, BURST):
            kernel.rx_burst(frames[start:start + BURST])
            world.run_until_idle()

    one_pass()
    delivered.clear()
    hits, unclassified = kernel.flow_cache.hits, kernel.unclassified_drops
    calls = calls_into_repro(one_pass)
    # 512 flows rotate through the 128-entry flow cache: every frame
    # misses, and every unbound one is ledgered unclassified.
    assert kernel.flow_cache.hits == hits
    assert kernel.unclassified_drops - unclassified == flows // unbound_every
    assert len(delivered) == flows - flows // unbound_every
    within_budget(calls, flows, CALLS_PER_COLD_FRAME)
    within_budget(header_calls(calls), flows, HEADER_CALLS_PER_COLD_FRAME)


def test_a_transit_datagram_stays_inside_its_call_budget():
    topo = build_three_hop(SimWorld(seed=1))
    pp = topo.provision("sender", "receiver", pmtud=False)
    world = topo.world
    payload = bytes(range(256)) * 5 + bytes(120)
    assert len(payload) == 1400

    def send(count):
        for _ in range(count):
            pp.send(payload)
            world.run_for(10_000.0)

    send(4)
    reassembled = pp.dst.frag_path.stage_of("IP").datagrams_reassembled
    fragments = topo.routers["r1"].stats()["fragments_created"]
    datagrams = 8
    calls = calls_into_repro(lambda: send(datagrams))
    # Each datagram was cut in three at r1 and made whole at the receiver.
    assert topo.routers["r1"].stats()["fragments_created"] - fragments \
        == 3 * datagrams
    assert pp.dst.frag_path.stage_of("IP").datagrams_reassembled \
        - reassembled == datagrams
    assert pp.received_payloads()[-datagrams:] == [payload] * datagrams
    within_budget(calls, datagrams, CALLS_PER_TRANSIT_DATAGRAM)
    within_budget(header_calls(calls), datagrams,
                  HEADER_CALLS_PER_TRANSIT_DATAGRAM)


def test_a_video_packet_stays_inside_its_call_budget():
    packets = list(synthesize_clip(NEPTUNE, seed=1, nframes=12).packets())
    decoder = MpegDecoder(NEPTUNE)

    def feed_all():
        for packet in packets:
            decoder.feed(packet)

    calls = calls_into_repro(feed_all)
    # Every packet decoded and every frame came out whole.
    assert decoder.packets_decoded == len(packets) == 85
    assert (decoder.frames_decoded, decoder.frames_damaged) == (12, 0)
    within_budget(calls, len(packets), CALLS_PER_VIDEO_PACKET)

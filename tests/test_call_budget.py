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

#: Measured 106.3 calls per miss frame; 124.1 while each scheduler hop
#: built an engine ``Event`` and peeked before every step.  Set just above
#: the measurement.
CALLS_PER_COLD_FRAME = 106.5

#: Measured 1,000.0 calls per transit datagram; 1,332.0 while each
#: scheduler hop built an engine ``Event`` and the wire built an
#: ``EthAddr`` per frame.  Set just above the measurement.
CALLS_PER_TRANSIT_DATAGRAM = 1005.0

#: Measured 457.2 calls per seed-1 Neptune packet (12 frames, 85
#: packets); 746.6 while the decoder read coefficients in 16-bit words.
#: Set just above the measurement.
CALLS_PER_VIDEO_PACKET = 458.0

FLOWS, BURST, WARM_BURSTS, COUNTED_BURSTS = 4, 64, 8, 16
REMOTE_MAC, REMOTE_IP = EthAddr("02:00:00:00:00:02"), IpAddr("10.0.0.2")
LOCAL_MAC, LOCAL_IP = EthAddr("02:00:00:00:00:01"), IpAddr("10.0.0.1")


def calls_into_repro(run) -> int:
    """How many Python-level calls into ``repro`` ``run()`` makes."""
    package = os.path.dirname(repro.__file__) + os.sep
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


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
    assert calls / counted <= CALLS_PER_WARM_FRAME, calls / counted


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
    assert calls / flows <= CALLS_PER_COLD_FRAME, calls / flows


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
    assert calls / datagrams <= CALLS_PER_TRANSIT_DATAGRAM, calls / datagrams


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
    assert calls / len(packets) <= CALLS_PER_VIDEO_PACKET, \
        calls / len(packets)

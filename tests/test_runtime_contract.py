"""The path-runtime contract, stated once over every kernel.

``ScoutKernel``, ``HostNode`` and ``RouterKernel`` share one
``repro.kernel.runtime.PathRuntime``: no frame raises out of the
interrupt-time receive, every frame gets exactly one fate (delivered, or
ledgered under a category with a ``drop_reason``), a path is charged
for exactly the bytes queued on it, and a warm flow's frame classifies
in one flow-cache probe.  Every kernel is driven through both
receive forms: per frame, through its simulated NIC's ``rx_handler``,
and as one ``rx_burst``.
"""

from collections import Counter

import pytest

from repro.core import BWD
from repro.kernel import RouterKernel, ScoutKernel
from repro.net import EthAddr, IpAddr, IpHeader, build_udp_frame
from repro.sim import SimWorld
from repro.topo import HostNode
from .net.conftest import RecordingRemote

INQ = 4
GARBAGE = b"\x00" * 64  # no router claims it
REMOTE_MAC, REMOTE_IP = EthAddr("02:00:00:00:00:02"), IpAddr("10.0.0.2")
LOCAL_IP, FAR_IP = IpAddr("10.0.0.1"), IpAddr("10.0.9.9")
PORT = 6000


class Rig:
    """A booted kernel with one path of ``INQ`` input slots: *offer*
    raises the receive interrupt, *frame* forges traffic for the path,
    *delivered* counts what came out the far end."""

    def __init__(self, kernel, path, offer, frame, delivered):
        self.kernel, self.path = kernel, path
        self.offer, self.frame, self.delivered = offer, frame, delivered
        self.fates = []
        kernel.drop_hook = lambda msg, category: self.fates.append(
            (category, bool(msg.meta.get("drop_reason"))))

    def queued(self):
        return list(self.path.input_queue(BWD))

    def mem_outstanding(self):
        return sum(p.stats.mem_bytes for p in self.kernel.paths())


def offering(kernel, device, burst, entry=None):
    """The receive interrupt in one of its two forms: *device*'s per-frame
    ``rx_handler``, or one ``rx_burst`` (entered at *entry*) that reports
    how many frames it queued, on whichever of the kernel's paths."""
    def queued():
        return sum(len(p.input_queue(BWD)) for p in kernel.paths())

    def offer(frames):
        if burst:
            before = queued()
            assert kernel.rx_burst(frames, entry=entry) == queued() - before
        else:
            for frame in frames:
                device.rx_handler(frame)
    return offer


def scout_rig(burst):
    world = SimWorld(seed=1)
    kernel = ScoutKernel(world, world.new_segment(), local_ip=str(LOCAL_IP),
                         udp_sink=True, display=False)
    kernel.arp.add_entry(REMOTE_IP, REMOTE_MAC)
    path = kernel.start_udp_sink(PORT, remote=(str(REMOTE_IP), 7000),
                                 inq_len=INQ)

    def frame(payload, port=PORT):
        return build_udp_frame(REMOTE_MAC, kernel.device.mac, REMOTE_IP,
                               LOCAL_IP, 7000, port, payload)

    return Rig(kernel, path, offering(kernel, kernel.device, burst),
               frame, lambda: len(kernel.test.received))


def host_rig(burst):
    world = SimWorld(seed=1)
    host = HostNode(world, world.new_segment(), "h", LOCAL_IP)
    host.arp.add_entry(REMOTE_IP, REMOTE_MAC)
    path = host.open(str(REMOTE_IP), 7000, local_port=PORT, inq_len=INQ)

    def frame(payload, port=PORT):
        return build_udp_frame(REMOTE_MAC, host.device.mac, REMOTE_IP,
                               LOCAL_IP, 7000, port, payload)

    return Rig(host, path, offering(host, host.device, burst), frame,
               lambda: len(host.test.received))


def router_rig(burst):
    world = SimWorld(seed=1)
    near, far = world.new_segment(), world.new_segment()
    sink = RecordingRemote(world.engine, ip=FAR_IP)
    far.attach(sink)
    router = RouterKernel(world, name="R", inq_len=INQ)
    port = router.add_port("a", near, "10.0.0.254")
    router.add_port("b", far, "10.0.9.254")
    router.add_route("10.0.9.0", 24, "b")
    router.boot()

    def frame(payload):
        return build_udp_frame(REMOTE_MAC, port.device.mac, REMOTE_IP,
                               FAR_IP, 7000, PORT, payload)

    return Rig(router, port.path,
               offering(router, port.device, burst, entry=port.eth),
               frame, lambda: len(sink.frames))


RIGS = {
    "scout": lambda: scout_rig(burst=False),
    "scout-burst": lambda: scout_rig(burst=True),
    "host": lambda: host_rig(burst=False),
    "host-burst": lambda: host_rig(burst=True),
    "router": lambda: router_rig(burst=False),
    "router-burst": lambda: router_rig(burst=True),
}


@pytest.fixture(params=list(RIGS))
def rig(request):
    return RIGS[request.param]()


def fragments(frame, chunk=576):
    """Cut one ETH/IP frame into IP fragments of *chunk* payload bytes."""
    eth, ip, body = frame[:14], IpHeader.unpack(frame[14:34]), frame[34:]
    out = []
    for at in range(0, len(body), chunk):
        piece = body[at:at + chunk]
        header = IpHeader(IpHeader.SIZE + len(piece), ip.ident, ip.proto,
                          ip.src, ip.dst,
                          flags=1 if at + chunk < len(body) else 0,
                          frag_offset=at // 8)
        out.append(eth + header.pack() + piece)
    return out


def test_garbage_is_ledgered_unclassified_with_a_reason(rig):
    rig.offer([GARBAGE])
    assert rig.kernel.drop_ledger() == {"unclassified": 1}
    assert rig.kernel.unclassified_drops == 1
    assert rig.fates == [("unclassified", True)]


def test_overflow_is_ledgered_and_memory_is_what_is_queued(rig):
    rig.offer([rig.frame(b"pkt%02d" % i) for i in range(INQ + 3)])
    assert rig.kernel.drop_ledger() == {"inq_overflow": 3}
    assert rig.kernel.inq_overflow_drops == 3
    assert rig.path.input_queue(BWD).dropped == 3
    assert rig.fates == [("inq_overflow", True)] * 3
    queued = rig.queued()
    assert len(queued) == INQ
    assert rig.path.stats.mem_bytes == sum(m.footprint() for m in queued)


def test_every_frame_has_exactly_one_fate(rig):
    good = [rig.frame(b"pkt%02d" % i) for i in range(INQ + 2)]
    rig.offer(good[:3] + [GARBAGE] + good[3:])
    assert len(rig.queued()) == INQ
    rig.kernel.world.run_until_idle()
    ledger = rig.kernel.drop_ledger()
    assert ledger == {"unclassified": 1, "inq_overflow": 2}
    assert rig.delivered() == INQ
    assert rig.delivered() + sum(ledger.values()) == len(good) + 1
    assert Counter(category for category, _ in rig.fates) == Counter(ledger)
    assert rig.mem_outstanding() == 0


def test_a_frame_that_dies_inside_the_path_is_heard(rig):
    """An IP total length (10) below the header length, on a flow the
    kernel already carried: dropped ``malformed`` by the path itself,
    neither delivered short nor forwarded."""
    rig.offer([rig.frame(b"warm%02d" % i) for i in range(2)])
    rig.kernel.world.run_until_idle()
    lying = bytearray(rig.frame(b"lying"))
    lying[16:18] = (10).to_bytes(2, "big")
    rig.offer([bytes(lying)])
    rig.kernel.world.run_until_idle()
    assert rig.kernel.drop_ledger() == {"malformed": 1}
    assert rig.fates == [("malformed", True)]
    assert rig.delivered() == 2


def test_a_warm_flow_classifies_in_one_probe_and_fragments_bypass(rig):
    """The fast path at every hop: a flow's second frame is one flow-cache
    probe with no refinement, and IP fragments, which carry no flow key,
    neither hit the cache nor insert into it."""
    kernel, cache = rig.kernel, rig.kernel.flow_cache
    rig.offer([rig.frame(b"first")])
    hits, refinements = cache.hits, kernel.classifier_stats.refinements
    rig.offer([rig.frame(b"second")])
    assert cache.hits == hits + 1
    assert kernel.classifier_stats.refinements == refinements
    kernel.world.run_until_idle()
    books = (cache.hits, cache.misses, len(cache))
    rig.offer(fragments(rig.frame(b"r" * 1400)))
    assert (cache.hits, cache.misses, len(cache)) == books


def test_sink_teardown_ledgers_only_what_was_never_delivered():
    """What the TEST sink delivered is not discarded again at teardown;
    frames still waiting on the input queue get one fate each."""
    rig = scout_rig(burst=False)
    rig.offer([rig.frame(b"pkt%02d" % i) for i in range(3)])
    rig.kernel.world.run_until_idle()
    rig.offer([rig.frame(b"late%02d" % i) for i in range(2)])
    rig.kernel.stop_udp_sink(PORT)
    assert rig.delivered() == 3
    assert rig.kernel.drop_ledger() == {"path_teardown": 2}
    assert rig.fates == [("path_teardown", True)] * 2


@pytest.mark.parametrize("make", [RIGS["scout"], RIGS["host"]],
                         ids=["scout", "host"])
def test_reassembled_datagram_is_charged_to_the_path_that_queues_it(make):
    """A datagram reassembled on the fragment path is re-classified onto
    its own path's queue; that path must carry its footprint until its
    thread has traversed it, like any frame admitted at interrupt time."""
    rig = make()
    rig.offer(fragments(rig.frame(b"r" * 1400)))
    rig.kernel.world.run_until_idle()
    assert rig.delivered() == 1
    assert rig.kernel.drop_ledger() == {}
    assert rig.path.stats.mem_high_watermark >= 1400
    assert rig.mem_outstanding() == 0


@pytest.mark.parametrize("make", [RIGS["scout"], RIGS["host"]],
                         ids=["scout", "host"])
def test_reassembled_datagram_no_path_wants_is_heard(make):
    rig = make()
    rig.offer(fragments(rig.frame(b"r" * 1400, PORT + 1)))
    rig.kernel.world.run_until_idle()
    assert rig.delivered() == 0
    assert rig.kernel.drop_ledger() == {"unclassified": 1}
    assert rig.fates == [("unclassified", True)]

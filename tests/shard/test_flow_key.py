"""Key stability for the public ``flow_key_frame`` helper (DESIGN.md §17).

The dispatcher and the flow cache must agree on what a flow *is*: the
same 19 peeked bytes, whether the frame is a ``Msg`` inside a kernel or
raw bytes at the fabric's RX boundary.  These tests pin that contract —
if either representation drifted, a flow could classify on one shard
and dispatch to another.
"""

from repro.api import Scout
from repro.core import Msg, flow_key_frame
from repro.net.addresses import EthAddr, IpAddr
from repro.net.packets import build_udp_frame

from .conftest import REMOTE_IP, REMOTE_MAC, SINK_PORT, udp_frame


def sink_kernel(flow):
    """A kernel serving *flow* on its own sink path, as a shard does."""
    scout = Scout(seed=1, udp_sink=True, display=False)
    scout.add_peer(REMOTE_IP, REMOTE_MAC)
    path = scout.kernel.start_udp_sink(SINK_PORT + flow,
                                       (str(REMOTE_IP), 7000 + flow))
    return scout.kernel, path


class TestFlowKeyStability:
    def test_msg_and_frame_forms_agree(self):
        """A frame received as a ``Msg`` is filed in the kernel's flow
        cache under the key the dispatcher computes on its raw bytes."""
        frame = udp_frame(3, 17)
        kernel, path = sink_kernel(3)
        kernel.rx_burst([frame])
        cache = kernel.flow_cache
        assert len(cache) == 1
        assert cache.lookup(flow_key_frame(frame), Msg(frame)) is path

    def test_same_flow_same_key(self):
        assert flow_key_frame(udp_frame(5, 0)) == \
            flow_key_frame(udp_frame(5, 999, payload=b"x" * 200))

    def test_distinct_ports_distinct_keys(self):
        keys = {flow_key_frame(udp_frame(flow, 0)) for flow in range(32)}
        assert len(keys) == 32

    def test_key_is_the_19_peeked_bytes(self):
        frame = udp_frame(0, 0)
        key = flow_key_frame(frame)
        assert key == frame[0:6] + frame[23:24] + frame[26:38]

    def test_key_stable_across_payload_sizes(self):
        keys = {flow_key_frame(udp_frame(1, 0, payload=b"p" * n))
                for n in (1, 10, 100, 1000)}
        assert len(keys) == 1


class TestFlowKeyDeclines:
    """Traffic the key must refuse: anything the fast path cannot own."""

    def test_short_frame(self):
        assert flow_key_frame(b"\x00" * 20) is None

    def test_non_ipv4_ethertype(self):
        frame = bytearray(udp_frame(0, 0))
        frame[12:14] = b"\x08\x06"  # ARP
        assert flow_key_frame(bytes(frame)) is None

    def test_non_udp_protocol(self):
        frame = bytearray(udp_frame(0, 0))
        frame[23] = 6  # TCP
        assert flow_key_frame(bytes(frame)) is None

    def test_fragment_declines(self):
        frame = bytearray(udp_frame(0, 0))
        frame[20] = 0x20  # more-fragments flag
        assert flow_key_frame(bytes(frame)) is None

    def test_msg_form_declines_identically(self):
        """A frame the key declines never reaches the kernel's flow
        cache: not a hit, not a miss, not an entry."""
        frame = bytearray(udp_frame(0, 0))
        frame[23] = 6
        kernel, _ = sink_kernel(0)
        kernel.rx_burst([bytes(frame)])
        cache = kernel.flow_cache
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)


def test_different_dst_mac_different_key():
    a = build_udp_frame(EthAddr("02:00:00:00:00:02"),
                        EthAddr("02:00:00:00:00:01"),
                        IpAddr("10.0.0.2"), IpAddr("10.0.0.1"),
                        7000, 6100, b"p")
    b = build_udp_frame(EthAddr("02:00:00:00:00:02"),
                        EthAddr("02:00:00:00:00:99"),
                        IpAddr("10.0.0.2"), IpAddr("10.0.0.1"),
                        7000, 6100, b"p")
    ka, kb = flow_key_frame(bytes(a)), flow_key_frame(bytes(b))
    assert ka is not None and kb is not None and ka != kb

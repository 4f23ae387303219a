"""Key stability for ``flow_key_frame`` on the shard fabric's own traffic.

The dispatcher hashes each raw frame at the fabric's RX boundary with
``flow_key_frame``; these cases pin that key on the frames the shard
suite floods with (``conftest.udp_frame``).  The key's ``Msg``-form
agreement with the kernel's flow cache is tested with the rest of the
``flow_key_frame`` suite in ``tests/core/test_flowcache.py``.
"""

from repro.core import flow_key_frame

from .conftest import udp_frame


class TestFlowKeyStability:
    def test_same_flow_same_key(self):
        assert flow_key_frame(udp_frame(5, 0)) == \
            flow_key_frame(udp_frame(5, 999, payload=b"x" * 200))

    def test_distinct_ports_distinct_keys(self):
        keys = {flow_key_frame(udp_frame(flow, 0)) for flow in range(32)}
        assert len(keys) == 32

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

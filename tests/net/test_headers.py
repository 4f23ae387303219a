"""Round-trip and semantic tests for the wire formats."""

import pytest
from hypothesis import example, given, strategies as st

from repro.net import (
    EthAddr,
    EthHeader,
    IcmpHeader,
    IpAddr,
    IpHeader,
    MflowHeader,
    TcpHeader,
    UdpHeader,
    internet_checksum,
    verify_checksum,
)

MAC_A = EthAddr("02:00:00:00:00:01")
MAC_B = EthAddr("02:00:00:00:00:02")
IP_A = IpAddr("10.0.0.1")
IP_B = IpAddr("10.0.0.2")


def loop_folded_sum(data):
    """The RFC 1071 word loop with carry folding: the reference sum."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


class TestChecksum:
    def test_known_vector(self):
        # RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> checksum 0x220d
        data = bytes.fromhex("0001f203f4f5f6f7")
        assert internet_checksum(data) == 0x220D

    def test_verify_accepts_packed_header(self):
        header = IpHeader(40, 7, 17, IP_A, IP_B).pack()
        assert verify_checksum(header)

    def test_verify_rejects_corruption(self):
        header = bytearray(IpHeader(40, 7, 17, IP_A, IP_B).pack())
        header[8] ^= 0xFF
        assert not verify_checksum(bytes(header))

    def test_odd_length_padded(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    @given(st.one_of(st.binary(max_size=1500),
                     st.integers(0, 600).map(lambda n: b"\xff" * n),
                     st.integers(0, 600).map(lambda n: b"\x00" * n)))
    @example(b"")
    @example(b"\xff")
    @example(b"\xff\xff\x00\x00")
    @example(b"\x80\x00" * 3)
    @example(b"\xff\xfe\x00\x01")
    def test_matches_the_word_loop(self, data):
        """The remainder form equals the word loop on every input,
        including empty, odd-length, all-0xFF and all-zero data and sums
        that fold to exactly 0xFFFF."""
        folded = loop_folded_sum(data)
        assert internet_checksum(data) == ~folded & 0xFFFF
        assert verify_checksum(data) is (folded == 0xFFFF)
        assert verify_checksum(bytearray(data)) is (folded == 0xFFFF)

    @given(st.binary(max_size=64))
    def test_checksummed_data_always_verifies(self, data):
        cksum = internet_checksum(data)
        if len(data) % 2:
            data = data + b"\x00"
        assert verify_checksum(data + cksum.to_bytes(2, "big"))


class TestEthHeader:
    def test_roundtrip(self):
        header = EthHeader(MAC_B, MAC_A, 0x0800)
        again = EthHeader.unpack(header.pack())
        assert (again.dst, again.src, again.ethertype) == (MAC_B, MAC_A, 0x0800)

    def test_size(self):
        assert EthHeader.SIZE == 14
        assert len(EthHeader(MAC_B, MAC_A, 0x0800).pack()) == 14


class TestIpHeader:
    def test_roundtrip(self):
        header = IpHeader(120, 42, 17, IP_A, IP_B, ttl=33)
        again = IpHeader.unpack(header.pack())
        assert again.total_length == 120
        assert again.ident == 42
        assert again.proto == 17
        assert (again.src, again.dst) == (IP_A, IP_B)
        assert again.ttl == 33
        assert not again.is_fragment

    def test_fragment_fields_roundtrip(self):
        header = IpHeader(60, 7, 17, IP_A, IP_B, flags=1, frag_offset=185)
        again = IpHeader.unpack(header.pack())
        assert again.more_fragments
        assert again.frag_offset == 185
        assert again.is_fragment

    def test_last_fragment_is_still_a_fragment(self):
        header = IpHeader(60, 7, 17, IP_A, IP_B, flags=0, frag_offset=10)
        assert header.is_fragment and not header.more_fragments

    def test_rejects_non_ipv4(self):
        raw = bytearray(IpHeader(40, 1, 17, IP_A, IP_B).pack())
        raw[0] = (6 << 4) | 5
        with pytest.raises(ValueError, match="version"):
            IpHeader.unpack(bytes(raw))

    def test_packed_header_checksums(self):
        assert verify_checksum(IpHeader(99, 3, 6, IP_A, IP_B).pack())


class TestUdpHeader:
    def test_roundtrip(self):
        again = UdpHeader.unpack(UdpHeader(7001, 8002, 520, 0xBEEF).pack())
        assert (again.sport, again.dport) == (7001, 8002)
        assert again.length == 520
        assert again.checksum == 0xBEEF

    def test_size(self):
        assert UdpHeader.SIZE == 8


class TestIcmpHeader:
    def test_roundtrip(self):
        again = IcmpHeader.unpack(
            IcmpHeader(IcmpHeader.ECHO_REQUEST, ident=77, seq=123).pack())
        assert again.icmp_type == IcmpHeader.ECHO_REQUEST
        assert (again.ident, again.seq) == (77, 123)

    def test_packed_header_checksums(self):
        assert verify_checksum(IcmpHeader(8, 1, 2).pack())


class TestTcpHeader:
    def test_roundtrip(self):
        header = TcpHeader(80, 5000, seq=1000, ack=2000,
                           flags=TcpHeader.FLAG_ACK, window=4096)
        again = TcpHeader.unpack(header.pack())
        assert (again.sport, again.dport) == (80, 5000)
        assert (again.seq, again.ack) == (1000, 2000)
        assert again.flags == TcpHeader.FLAG_ACK
        assert again.window == 4096


class TestMflowHeader:
    def test_data_roundtrip(self):
        header = MflowHeader(seq=9, timestamp_us=123456, window=0,
                             flags=MflowHeader.FLAG_FRAME_START)
        again = MflowHeader.unpack(header.pack())
        assert again.seq == 9
        assert again.timestamp_us == 123456
        assert again.is_frame_start and not again.is_window_adv

    def test_window_adv_roundtrip(self):
        header = MflowHeader(seq=50, timestamp_us=7, window=12,
                             flags=MflowHeader.FLAG_WINDOW_ADV)
        again = MflowHeader.unpack(header.pack())
        assert again.is_window_adv
        assert again.window == 12

    def test_seq_wraps_at_32_bits(self):
        assert MflowHeader(1 << 32, 0).seq == 0

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=0, max_value=2**16 - 1))
    def test_roundtrip_property(self, seq, ts, window):
        again = MflowHeader.unpack(MflowHeader(seq, ts, window=window).pack())
        assert (again.seq, again.timestamp_us, again.window) == (seq, ts, window)

"""Encoder/decoder tests: GOP structure, ALF framing, loss behaviour."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mpeg import (
    B_FRAME,
    CANYON,
    FLOWER,
    I_FRAME,
    NEPTUNE,
    P_FRAME,
    PAPER_CLIPS,
    ClipProfile,
    MpegDecodeError,
    MpegDecoder,
    MpegEncoder,
    peek_packet_header,
    synthesize_clip,
)
from repro.mpeg.clips import FLAG_FIRST_PACKET, FLAG_LAST_PACKET, PACKET_HEADER_SIZE

from ..helpers import with_overlong_record

SMALL = ClipProfile("small", 64, 48, 30, 30.0, avg_frame_bits=3000)


class TestClipProfiles:
    def test_paper_clips_registered(self):
        assert [p.name for p in PAPER_CLIPS] == \
            ["Flower", "Neptune", "RedsNightmare", "Canyon"]

    def test_macroblock_count(self):
        assert NEPTUNE.macroblocks == (352 // 16) * (240 // 16)
        assert CANYON.macroblocks == 10 * 8  # 120 rows round up to 8 MB rows

    def test_gop_pattern(self):
        assert SMALL.frame_type(0) == I_FRAME
        assert SMALL.frame_type(1) == B_FRAME
        assert SMALL.frame_type(3) == P_FRAME
        assert SMALL.frame_type(9) == I_FRAME  # pattern repeats

    def test_type_ratios_preserve_gop_average(self):
        gop_len = len(SMALL.gop)
        total = sum(SMALL.mean_bits_for_type(SMALL.frame_type(i))
                    for i in range(gop_len))
        assert total / gop_len == pytest.approx(SMALL.avg_frame_bits)

    def test_i_frames_are_biggest(self):
        assert SMALL.mean_bits_for_type(I_FRAME) \
            > SMALL.mean_bits_for_type(P_FRAME) \
            > SMALL.mean_bits_for_type(B_FRAME)

    def test_bad_resolution_rejected(self):
        with pytest.raises(ValueError):
            ClipProfile("bad", 0, 48, 30, 30.0, avg_frame_bits=100)


class TestEncoder:
    def test_deterministic_given_seed(self):
        a = synthesize_clip(SMALL, seed=5, nframes=10)
        b = synthesize_clip(SMALL, seed=5, nframes=10)
        assert [f.packets for f in a.frames] == [f.packets for f in b.frames]

    def test_different_seeds_differ(self):
        a = synthesize_clip(SMALL, seed=1, nframes=10)
        b = synthesize_clip(SMALL, seed=2, nframes=10)
        assert a.total_bits != b.total_bits

    def test_avg_frame_bits_near_profile(self):
        clip = synthesize_clip(NEPTUNE, seed=0, nframes=300)
        overhead = 24 * NEPTUNE.macroblocks
        assert clip.avg_frame_bits == pytest.approx(
            NEPTUNE.avg_frame_bits + overhead, rel=0.15)

    def test_alf_packets_fit_payload_budget(self):
        encoder = MpegEncoder(FLOWER, seed=0)
        frame = encoder.encode_frame(0)
        for packet in frame.packets:
            assert len(packet) <= encoder.packet_payload_budget

    def test_first_and_last_flags(self):
        frame = MpegEncoder(FLOWER, seed=0).encode_frame(0)
        first = peek_packet_header(frame.packets[0])
        last = peek_packet_header(frame.packets[-1])
        assert first[2] & FLAG_FIRST_PACKET
        assert last[2] & FLAG_LAST_PACKET

    def test_packet_header_carries_frame_identity(self):
        frame = MpegEncoder(SMALL, seed=0).encode_frame(7)
        frame_no, ftype, _flags = peek_packet_header(frame.packets[0])
        assert frame_no == 7
        assert ftype == SMALL.frame_type(7)

    def test_peek_rejects_non_mpeg(self):
        assert peek_packet_header(b"\x00" * 32) is None
        assert peek_packet_header(b"") is None


class TestDecoder:
    def decode_clip(self, clip):
        decoder = MpegDecoder(clip.profile)
        frames = []
        for packet in clip.packets():
            result = decoder.feed(packet)
            if result.frame is not None:
                frames.append(result.frame)
        return decoder, frames

    def test_decodes_every_frame(self):
        clip = synthesize_clip(SMALL, seed=3, nframes=20)
        decoder, frames = self.decode_clip(clip)
        assert len(frames) == 20
        assert decoder.frames_damaged == 0
        assert [f.number for f in frames] == list(range(20))

    def test_decoded_bits_match_encoded(self):
        clip = synthesize_clip(SMALL, seed=3, nframes=10)
        _decoder, frames = self.decode_clip(clip)
        for encoded, decoded in zip(clip.frames, frames):
            assert decoded.bits == encoded.bits
            assert decoded.n_mb == encoded.n_mb

    def test_decode_cost_positive_and_monotone_in_bits(self):
        clip = synthesize_clip(SMALL, seed=3, nframes=20)
        _decoder, frames = self.decode_clip(clip)
        pairs = sorted((f.bits, f.decode_cost_us) for f in frames)
        costs = [cost for _bits, cost in pairs]
        assert all(c > 0 for c in costs)
        assert costs == sorted(costs)

    def test_lost_packet_damages_exactly_one_frame(self):
        clip = synthesize_clip(FLOWER, seed=1, nframes=6)
        decoder = MpegDecoder(FLOWER)
        frames = []
        for index, frame in enumerate(clip.frames):
            packets = list(frame.packets)
            if index == 2 and len(packets) > 2:
                del packets[1]  # lose a mid-frame packet
            for packet in packets:
                result = decoder.feed(packet)
                if result.frame is not None:
                    frames.append(result.frame)
        damaged = [f for f in frames if not f.complete]
        assert len(damaged) == 1
        assert damaged[0].number == 2
        assert sum(1 for f in frames if f.complete) == 5

    def test_lost_last_packet_abandons_frame(self):
        clip = synthesize_clip(FLOWER, seed=1, nframes=3)
        decoder = MpegDecoder(FLOWER)
        completed = []
        for index, frame in enumerate(clip.frames):
            packets = list(frame.packets)
            if index == 0:
                packets = packets[:-1]  # last packet never arrives
            for packet in packets:
                result = decoder.feed(packet)
                if result.frame is not None and result.frame.complete:
                    completed.append(result.frame.number)
        assert completed == [1, 2]
        assert decoder.frames_damaged == 1

    def test_corrupt_magic_raises(self):
        decoder = MpegDecoder(SMALL)
        packet = bytearray(synthesize_clip(SMALL, seed=0,
                                           nframes=1).frames[0].packets[0])
        packet[0] = 0x00
        with pytest.raises(MpegDecodeError, match="magic"):
            decoder.feed(bytes(packet))

    def test_truncated_packet_raises(self):
        decoder = MpegDecoder(SMALL)
        with pytest.raises(MpegDecodeError):
            decoder.feed(b"\xa5\x00")

    def test_declared_bits_exceeding_body_raises(self):
        clip = synthesize_clip(SMALL, seed=0, nframes=1)
        packet = bytearray(clip.frames[0].packets[0])
        packet = packet[:PACKET_HEADER_SIZE + 2]  # chop the body
        decoder = MpegDecoder(SMALL)
        with pytest.raises(MpegDecodeError):
            decoder.feed(bytes(packet))

    def test_record_past_the_body_raises_eof(self):
        clip = synthesize_clip(SMALL, seed=0, nframes=1)
        packet = with_overlong_record(clip.frames[0].packets[0])
        decoder = MpegDecoder(SMALL)
        with pytest.raises(EOFError, match="bitstream exhausted"):
            decoder.feed(packet)
        assert decoder.packets_decoded == 0

    def test_a_frame_with_a_corrupt_packet_is_not_complete(self):
        """A packet whose parse raises is lost to its frame: the frame's
        last packet reports it damaged, not complete."""
        clip = synthesize_clip(CANYON, seed=1, nframes=1)
        packets = list(clip.frames[0].packets)
        assert len(packets) == 3
        packets[1] = with_overlong_record(packets[1])
        decoder = MpegDecoder(CANYON)
        decoder.feed(packets[0])
        with pytest.raises(EOFError):
            decoder.feed(packets[1])
        frame = decoder.feed(packets[2]).frame
        assert frame is not None and not frame.complete
        assert (decoder.frames_decoded, decoder.frames_damaged) == (0, 1)


class TestStreamMode:
    """Non-ALF (byte-stream) packetization: the ablation path."""

    def test_stream_clip_decodes_identically(self):
        alf = synthesize_clip(SMALL, seed=4, nframes=15, alf=True)
        stream = synthesize_clip(SMALL, seed=4, nframes=15, alf=False)
        d1 = MpegDecoder(SMALL)
        d2 = MpegDecoder(SMALL)
        for packet in alf.packets():
            d1.feed(packet)
        for packet in stream.packets():
            d2.feed(packet)
        assert d1.frames_decoded == d2.frames_decoded == 15
        assert d1.bits_decoded == d2.bits_decoded

    def test_stream_mode_buffers_partial_frames(self):
        stream = synthesize_clip(FLOWER, seed=4, nframes=5, alf=False)
        decoder = MpegDecoder(FLOWER)
        for packet in stream.packets():
            decoder.feed(packet)
        assert decoder.peak_buffered_bytes > 0

    def test_alf_mode_never_buffers(self):
        clip = synthesize_clip(FLOWER, seed=4, nframes=5, alf=True)
        decoder = MpegDecoder(FLOWER)
        for packet in clip.packets():
            decoder.feed(packet)
        assert decoder.peak_buffered_bytes == 0


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(1, 12))
def test_any_seed_roundtrips(seed, nframes):
    clip = synthesize_clip(SMALL, seed=seed, nframes=nframes)
    decoder = MpegDecoder(SMALL)
    decoded = 0
    for packet in clip.packets():
        result = decoder.feed(packet)
        if result.frame is not None and result.frame.complete:
            decoded += 1
    assert decoded == nframes
    assert decoder.frames_damaged == 0

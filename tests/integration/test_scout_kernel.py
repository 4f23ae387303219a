"""End-to-end Scout kernel tests: Figure 9 booted and running."""

import pytest

from repro.core import PA_AVG_PROC_TIME
from repro.experiments import Testbed
from repro.mpeg import CANYON, NEPTUNE, synthesize_clip
from repro.sim.world import POLICY_EDF, POLICY_RR

from ..helpers import with_overlong_record


def video_testbed(nframes=60, profile=CANYON, seed=1, **video_kwargs):
    testbed = Testbed(seed=seed)
    clip = synthesize_clip(profile, seed=seed, nframes=nframes)
    source = testbed.add_video_source(clip, dst_port=6100)
    kernel = testbed.build_scout(rate_limited_display=False)
    session = kernel.start_video(profile, (str(source.ip), 7200),
                                 local_port=6100, **video_kwargs)
    return testbed, kernel, source, session, clip


class TestBoot:
    def test_figure9_graph(self):
        testbed = Testbed()
        kernel = testbed.build_scout()
        assert sorted(kernel.graph.routers) == [
            "ARP", "DISPLAY", "ETH", "ICMP", "IP", "MFLOW", "MPEG",
            "SHELL", "UDP"]
        assert kernel.graph.booted

    def test_boot_time_paths_exist(self):
        testbed = Testbed()
        kernel = testbed.build_scout()
        assert kernel.icmp_path.routers() == ["ICMP", "IP", "ETH"]
        assert kernel.frag_path.routers() == ["IP", "ETH"]
        assert kernel.ip.frag_path is kernel.frag_path

    def test_video_path_shape_matches_figure9(self):
        _tb, _kernel, _source, session, _clip = video_testbed()
        assert session.path.routers() == [
            "DISPLAY", "MPEG", "MFLOW", "UDP", "IP", "ETH"]


class TestVideoPlayback:
    def test_all_frames_arrive_and_display(self):
        testbed, kernel, source, session, clip = video_testbed(nframes=60)
        testbed.start_all()
        testbed.run_until_sources_done()
        assert source.done
        assert session.frames_presented == 60
        assert session.path.stage_of("MPEG").decoder.frames_damaged == 0

    def test_record_past_the_body_is_ledgered_corrupt(self):
        """A packet whose macroblock record runs past its body is one
        ``corrupt`` drop on the video path; playback goes on."""
        clip = synthesize_clip(CANYON, seed=1, nframes=12)
        packets = clip.frames[4].packets
        packets[0] = with_overlong_record(packets[0])
        testbed = Testbed(seed=1)
        source = testbed.add_video_source(clip, dst_port=6100)
        kernel = testbed.build_scout(rate_limited_display=False)
        session = kernel.start_video(CANYON, (str(source.ip), 7200),
                                     local_port=6100)
        testbed.start_all()
        testbed.run_until_sources_done()
        assert source.done
        assert kernel.drop_ledger() == {"corrupt": 1}
        stage = session.path.stage_of("MPEG")
        assert stage.decode_errors == 1
        # Frame 4 was that one packet: it is damaged, the other 11 play.
        assert stage.decoder.frames_damaged == 1
        assert session.frames_presented == 11

    def test_packets_classified_at_interrupt_time(self):
        testbed, kernel, source, session, _clip = video_testbed(nframes=30)
        testbed.start_all()
        testbed.run_until_sources_done()
        assert kernel.classifier_stats.classified == source.packets_sent
        assert kernel.classifier_stats.dropped == 0

    def test_cpu_charged_to_the_path(self):
        testbed, kernel, _source, session, _clip = video_testbed(nframes=30)
        testbed.start_all()
        testbed.run_until_sources_done()
        assert session.path.stats.cycles > 0
        # Nearly all compute time belongs to the video path.
        path_us = session.path.stats.cycles / testbed.world.cpu.mhz
        assert path_us == pytest.approx(testbed.world.cpu.compute_us,
                                        rel=0.05)

    def test_measurement_transform_installed_and_running(self):
        """The Section 4.2 probe keeps PA_AVG_PROC_TIME current."""
        testbed, _kernel, _source, session, _clip = video_testbed(nframes=30)
        assert "measure-proc-time" in session.path.attrs.get(
            "_transforms_applied", ())
        testbed.start_all()
        testbed.run_until_sources_done()
        assert session.path.attrs[PA_AVG_PROC_TIME] > 0

    def test_flow_control_limits_in_flight(self):
        testbed, kernel, source, session, _clip = video_testbed(
            nframes=60, inq_len=8)
        testbed.start_all()
        testbed.run_until_sources_done()
        # MFLOW's advertisements kept the source inside the queue bound.
        assert kernel.inq_overflow_drops == 0
        assert source.window_stalls >= 0  # bookkeeping exists

    def test_rtt_measured_from_echoed_timestamps(self):
        testbed, _kernel, source, _session, _clip = video_testbed(nframes=30)
        testbed.start_all()
        testbed.run_until_sources_done()
        rtt = source.avg_rtt_us()
        assert rtt is not None and rtt > 0


class TestEdfIntegration:
    def test_wakeups_inherit_output_queue_deadline(self):
        testbed, _kernel, _source, session, _clip = video_testbed(
            nframes=30, policy=POLICY_EDF)
        testbed.start_all()
        testbed.run_seconds(0.5)
        assert session.thread.policy == POLICY_EDF
        assert session.thread.deadline < float("inf")

    def test_rr_priority_honored(self):
        testbed, _kernel, _source, session, _clip = video_testbed(
            nframes=10, policy=POLICY_RR, priority=3)
        testbed.start_all()
        testbed.run_seconds(0.3)
        assert session.thread.priority == 3


class TestEarlyDiscard:
    def test_skipped_frames_die_at_the_adapter(self):
        testbed, kernel, source, session, _clip = video_testbed(
            nframes=30, skip=3)
        testbed.start_all()
        testbed.run_until_sources_done()
        assert kernel.early_drops > 0
        # Only every third frame was decoded at all.
        decoder = session.path.stage_of("MPEG").decoder
        assert decoder.frames_decoded == 10
        assert session.frames_presented == 10

    def test_without_early_drop_frames_are_decoded_then_discarded(self):
        testbed, kernel, source, session, _clip = video_testbed(
            nframes=30, skip=3, early_drop_skipped=False)
        testbed.start_all()
        testbed.run_until_sources_done()
        assert kernel.early_drops == 0
        stage = session.path.stage_of("MPEG")
        assert stage.decoder.frames_decoded == 30
        assert stage.frames_skipped == 20
        assert session.frames_presented == 10


class TestIcmpPath:
    def test_flood_served_at_low_priority(self):
        testbed = Testbed(seed=3)
        flooder = testbed.add_flooder()
        kernel = testbed.build_scout()
        testbed.start_all()
        testbed.run_seconds(1.0)
        assert kernel.icmp.echo_requests > 0
        assert flooder.replies_received > 0

    def test_flood_starves_when_video_saturates(self):
        """The Table 2 mechanism: a busy video path starves the ICMP
        path, which throttles the self-clocked flood."""
        testbed, kernel, source, session, _clip = video_testbed(
            nframes=200, profile=NEPTUNE, policy=POLICY_RR)
        flooder = testbed.add_flooder()
        testbed.start_all()
        testbed.run_seconds(2.0)
        busy_rate = flooder.requests_sent / 2.0
        assert busy_rate < 2500  # self-clocking collapsed toward fallback


class TestFragmentPath:
    def test_fragmented_datagram_reclassified_to_video_path(self):
        """An oversized UDP datagram arrives as fragments: the catch-all
        path reassembles, the classifier reruns, and the payload reaches
        the right path's queue with an IP entry point."""
        from repro.net import IpHeader, UdpHeader, build_udp_frame

        testbed, kernel, source, session, _clip = video_testbed(nframes=5)
        inner = build_udp_frame(source.mac, kernel.device.mac,
                                source.ip, kernel.ip.addr,
                                7200, 6100, b"Z" * 3000)[14 + 20:]
        half = 1480 - (1480 % 8)
        pieces = [(0, inner[:half], True), (half, inner[half:], False)]
        for offset, body, more in pieces:
            header = IpHeader(20 + len(body), 4242, 17, source.ip,
                              kernel.ip.addr, flags=1 if more else 0,
                              frag_offset=offset // 8)
            frame = (kernel.device.mac.to_bytes() + source.mac.to_bytes()
                     + b"\x08\x00" + header.pack() + body)
            kernel.device.receive(frame)
        testbed.run_seconds(0.1)
        # The reassembled datagram landed in the video path's input queue
        # (and was consumed by its thread; the MPEG stage rejected the
        # garbage payload, but MFLOW counted it arriving).
        assert kernel.frag_path.stage_of("IP").datagrams_reassembled == 1
        assert kernel.classifier_stats.classified >= 2


class TestShell:
    def test_command_creates_video_path(self):
        testbed = Testbed(seed=5)
        client = testbed.add_command_client(dst_port=5000)
        kernel = testbed.build_scout()
        kernel.start_shell(port=5000)
        client.send_command(
            f"mpeg_decode ip={client.ip} port=7200 clip=Canyon")
        testbed.run_seconds(0.2)
        assert len(client.replies) == 1
        assert client.replies[0].startswith("ok pid=")
        assert len(kernel.sessions) == 1
        assert kernel.sessions[0].profile.name == "Canyon"

    def test_source_address_defaults_to_requester(self):
        """'SHELL assumes that the network address of the video source is
        the same as the address that originated the command request.'"""
        testbed = Testbed(seed=5)
        client = testbed.add_command_client(dst_port=5000)
        kernel = testbed.build_scout()
        kernel.start_shell(port=5000)
        client.send_command("mpeg_decode port=7200 clip=Canyon")
        testbed.run_seconds(0.2)
        session = kernel.sessions[0]
        from repro.core import PA_NET_PARTICIPANTS
        participants = session.path.attrs[PA_NET_PARTICIPANTS]
        assert str(participants[0]) == str(client.ip)

    def test_unknown_command_reports_error(self):
        testbed = Testbed(seed=5)
        client = testbed.add_command_client(dst_port=5000)
        kernel = testbed.build_scout()
        kernel.start_shell(port=5000)
        client.send_command("frobnicate x=1")
        testbed.run_seconds(0.2)
        assert client.replies and client.replies[0].startswith("error")
        assert kernel.shell.commands_failed == 1

    def test_bad_clip_reports_error(self):
        testbed = Testbed(seed=5)
        client = testbed.add_command_client(dst_port=5000)
        kernel = testbed.build_scout()
        kernel.start_shell(port=5000)
        client.send_command("mpeg_decode port=7200 clip=NoSuchClip")
        testbed.run_seconds(0.2)
        assert client.replies and client.replies[0].startswith("error")


class TestStopVideo:
    def test_deleted_path_stops_accepting(self):
        testbed, kernel, source, session, _clip = video_testbed(
            nframes=300, profile=NEPTUNE)
        testbed.start_all()
        testbed.run_seconds(0.2)
        kernel.stop_video(session)
        assert session.path.state == "deleted"
        before = kernel.classifier_stats.dropped
        testbed.run_seconds(0.3)
        # Packets for the dead flow are now discarded by the classifier.
        assert kernel.classifier_stats.dropped > before

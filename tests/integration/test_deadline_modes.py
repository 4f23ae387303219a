"""EDF deadline computation modes (Section 4.3's two alternatives)."""

import pytest

from repro.experiments import Testbed
from repro.kernel import ScoutKernel
from repro.mpeg import CANYON, NEPTUNE, synthesize_clip
from repro.net import EthAddr, IpAddr, build_udp_frame
from repro.sim import SimWorld


def run_mode(mode, nframes=90, seed=4):
    testbed = Testbed(seed=seed)
    clip = synthesize_clip(NEPTUNE, seed=seed, nframes=nframes)
    source = testbed.add_video_source(clip, dst_port=6100, pace_fps=30.0,
                                      lead_frames=6)
    kernel = testbed.build_scout(rate_limited_display=True)
    session = kernel.start_video(NEPTUNE, (str(source.ip), 7200),
                                 local_port=6100, fps=30.0,
                                 deadline_mode=mode, prebuffer=6)
    session.sink.expected_frames = nframes
    testbed.start_all()
    testbed.run_seconds(nframes / 30.0 + 2.0)
    return testbed, kernel, session


class TestDeadlineModes:
    def test_output_mode_meets_deadlines(self):
        _tb, _kernel, session = run_mode("output")
        assert session.missed_deadlines == 0
        assert session.frames_presented == 90

    def test_min_mode_meets_deadlines(self):
        _tb, _kernel, session = run_mode("min")
        assert session.missed_deadlines == 0
        assert session.frames_presented == 90

    def test_interarrival_estimate_maintained(self):
        _tb, _kernel, session = run_mode("min")
        interval = session.path.interarrival_us
        assert interval is not None and interval > 0

    def test_interarrival_ewma_lives_on_the_path(self):
        """Arrivals 10 us then 20 us apart: the first gap seeds the
        average, the second moves it an eighth of the way (Section 4.3's
        estimate), and the path's attribute set is left alone."""
        world = SimWorld(seed=1)
        kernel = ScoutKernel(world, world.new_segment(), udp_sink=True,
                             display=False)
        kernel.arp.add_entry("10.0.0.2", "02:00:00:00:00:02")
        path = kernel.start_udp_sink(6000, remote=("10.0.0.2", 7000))
        frame = build_udp_frame(EthAddr("02:00:00:00:00:02"),
                                kernel.device.mac, IpAddr("10.0.0.2"),
                                IpAddr("10.0.0.1"), 7000, 6000, b"x")
        invariants = path.attrs.snapshot()
        start, seen = world.now, []
        for at in (0.0, 10.0, 30.0):
            world.run_until(start + at)
            kernel.rx_burst([frame])
            seen.append((path.last_arrival_us - start, path.interarrival_us))
        assert seen == [(0.0, None), (10.0, 10.0), (30.0, 11.25)]
        assert path.attrs.snapshot() == invariants

    def test_min_mode_deadline_never_later_than_output_mode(self):
        """By construction min(out, in) <= out; observe it on live
        wakeups."""
        testbed = Testbed(seed=6)
        clip = synthesize_clip(CANYON, seed=6, nframes=40)
        source = testbed.add_video_source(clip, dst_port=6100)
        kernel = testbed.build_scout(rate_limited_display=True)
        session = kernel.start_video(CANYON, (str(source.ip), 7200),
                                     local_port=6100, fps=10.0,
                                     deadline_mode="min")
        sink = session.sink
        observed = []
        original = session.path.wakeup

        def spy(path, thread):
            original(path, thread)
            observed.append((thread.deadline, sink.next_frame_deadline()))

        session.path.wakeup = spy
        testbed.start_all()
        testbed.run_seconds(2.0)
        assert observed
        for chosen, output_only in observed:
            assert chosen <= output_only + 1e-6

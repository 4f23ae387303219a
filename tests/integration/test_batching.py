"""End-to-end batching exactness (DESIGN.md §13): a batched kernel
delivers the same frames with the same accounting as the per-message
kernel, and burst receive charges exactly the per-frame interrupt sum."""

import pytest

from repro.experiments import Testbed
from repro.mpeg import NEPTUNE, synthesize_clip
from repro.net import EthAddr, IpAddr, build_udp_frame

FRAMES = 60


def play(batch):
    """Play a 60-frame Neptune clip at max decode rate with the video
    thread draining *batch* messages per wakeup; return the observables
    that must not depend on batching."""
    testbed = Testbed(seed=1)
    clip = synthesize_clip(NEPTUNE, seed=1, nframes=FRAMES)
    source = testbed.add_video_source(clip, dst_port=6100)
    kernel = testbed.build_scout(rate_limited_display=False)
    session = kernel.start_video(NEPTUNE, (str(source.ip), 7200),
                                 local_port=6100, batch=batch)
    testbed.start_all()
    testbed.run_until_sources_done()
    mflow = session.path.stage_of("MFLOW")
    return {
        "presented": session.frames_presented,
        "window_advs_total": mflow.window_advs_sent
        + mflow.window_advs_coalesced,
        "flow_cache_hits": kernel.flow_cache.hits,
        "inq_overflow_drops": kernel.inq_overflow_drops,
        "early_drops": kernel.early_drops,
        "unclassified_drops": kernel.unclassified_drops,
        "path_drops": session.path.stats.drops,
        "mem_outstanding": session.path.stats.mem_bytes,
    }, mflow


class TestBatchedSessionParity:
    def test_batched_video_matches_per_message_video(self):
        solo, _solo_mflow = play(batch=1)
        batched, mflow = play(batch=8)
        assert batched == solo
        assert batched["presented"] == FRAMES
        # Batching exists to coalesce feedback: the run tail advertises
        # for the whole run, so *some* adverts must have been absorbed.
        assert mflow.window_advs_coalesced > 0
        assert mflow.window_advs_sent < batched["window_advs_total"]


def rx_fixture():
    """A booted kernel with one video path, plus a frame forge for its
    flow."""
    testbed = Testbed(seed=2)
    kernel = testbed.build_scout(rate_limited_display=False)
    kernel.graph.router("ARP").add_entry("10.0.0.9", "02:00:00:00:00:09")
    session = kernel.start_video(NEPTUNE, ("10.0.0.9", 7200),
                                 local_port=6100)

    def frame(payload):
        return build_udp_frame(EthAddr("02:00:00:00:00:09"),
                               EthAddr("02:00:00:00:00:01"),
                               IpAddr("10.0.0.9"), IpAddr("10.0.0.1"),
                               7200, session.local_port, payload)

    return testbed, kernel, session, frame


class TestRxBurstParity:
    def observe(self, kernel, session):
        return {
            "classified": kernel.classifier_stats.classified,
            "refinements": kernel.classifier_stats.refinements,
            "dropped": kernel.classifier_stats.dropped,
            "cache": (kernel.flow_cache.hits, kernel.flow_cache.misses),
            "inq": len(session.path.input_queue(1)),
            "unclassified": kernel.unclassified_drops,
            "irq_us": round(kernel.world.cpu.interrupt_us, 9),
        }

    def test_burst_equals_per_frame_receive(self):
        _, solo_kernel, solo_session, solo_frame = rx_fixture()
        _, burst_kernel, burst_session, burst_frame = rx_fixture()
        payloads = [b"pkt%02d" % i for i in range(10)] + [b"stray"]
        for p in payloads:
            solo_kernel._rx(solo_frame(p))
        deposited = burst_kernel.rx_burst([burst_frame(p) for p in payloads])
        assert deposited == len(payloads)
        assert self.observe(burst_kernel, burst_session) \
            == self.observe(solo_kernel, solo_session)
        inq = burst_session.path.input_queue(1)
        assert [m.to_bytes()[-5:] for m in inq.dequeue_batch()] \
            == [p[-5:] for p in payloads]

    def test_burst_charges_summed_interrupt_cost(self):
        _, kernel, session, frame = rx_fixture()
        base = kernel.world.cpu.interrupt_us
        kernel.rx_burst([frame(b"one")])  # cold: full chain walk
        cold_cost = kernel.world.cpu.interrupt_us - base
        base = kernel.world.cpu.interrupt_us
        kernel.rx_burst([frame(b"two"), frame(b"three")])  # warm: probes
        warm_cost = kernel.world.cpu.interrupt_us - base
        # A warm frame costs one probe hop; the cold walk cost more.
        assert warm_cost < cold_cost * 2
        assert warm_cost > 0

"""Differential execution: the two tiers are indistinguishable.

Every scenario below runs identically under the reference tier (the
recursive ``forward()`` walk) and the specialized tier (exec-generated
fused function, DESIGN.md §11), and the observables a user of the
system could ever see — delivered bytes, PathStats books,
drop-ledger categories, flow-cache statistics, metrics snapshots — must
be *equal*, not merely close.  Costs are compared exactly: the generated
code replicates the scalar accumulation order float-add by float-add, so
even rounding may not drift.

Tier selection is data, not code: the same scenario function runs for
each tier and only the ``specialize=`` switch differs.  Where the
specialized tier is expected to engage (warm validated UDP runs), the
scenario additionally asserts ``specialized_msgs > 0`` so a
silently-declining generator cannot make these tests pass vacuously.
"""

import pytest

from repro.core import Attrs, BWD, Msg, PA_NET_PARTICIPANTS, path_create
from repro.core.flowcache import VALIDATED_STAMPS
from repro.experiments import Testbed
from repro.experiments.micro import Fig7Stack, REMOTE_IP
from repro.mpeg import NEPTUNE, synthesize_clip
from repro.net.common import PA_LOCAL_PORT

TIERS = ("reference", "specialized")

FRAMES = 60


def path_books(path):
    """The PathAccount books a scenario must keep tier-independent."""
    stats = path.stats
    return {
        "messages": (stats.messages_fwd, stats.messages_bwd),
        "cycles": stats.cycles,
        "mem": (stats.mem_bytes, stats.mem_high_watermark),
        "drops": stats.drops,
        "drop_reasons": dict(stats.drop_reasons),
        "progress": stats.progress,
        "avg_proc_time_us": stats.avg_proc_time_us,
    }


def kernel_snapshot(kernel):
    snap = kernel.stats()
    snap["metrics"] = kernel.observatory.metrics.render()
    return snap


def assert_tiers_agree(observe):
    """Run ``observe(tier)`` for every tier and compare the results."""
    results = {tier: observe(tier) for tier in TIERS}
    assert results["specialized"] == results["reference"]
    return results["reference"]


# ---------------------------------------------------------------------------
# Scenario 1: UDP video end to end
# ---------------------------------------------------------------------------


class TestUdpVideoDifferential:

    def play(self, tier, batch=1, skip_at_us=None, skip=4):
        testbed = Testbed(seed=3)
        clip = synthesize_clip(NEPTUNE, seed=3, nframes=FRAMES)
        source = testbed.add_video_source(clip, dst_port=6100)
        kernel = testbed.build_scout(rate_limited_display=False,
                                     specialize=tier == "specialized")
        session = kernel.start_video(NEPTUNE, (str(source.ip), 7200),
                                     local_port=6100, batch=batch)
        testbed.start_all()
        if skip_at_us is not None:
            testbed.run_seconds(skip_at_us / 1e6)
            kernel.set_frame_skip(session.path, skip)
        testbed.run_until_sources_done()
        if tier == "specialized":
            assert session.path.specialized_msgs > 0, \
                "specialized tier never engaged"
        mflow = session.path.stage_of("MFLOW")
        return {
            "presented": session.frames_presented,
            "missed": session.missed_deadlines,
            "books": path_books(session.path),
            "mflow": (mflow.next_expected, mflow.last_delivered_seq,
                      mflow.stale_drops, mflow.gaps,
                      mflow.window_advs_sent,
                      mflow.window_advs_coalesced),
            "kernel": kernel_snapshot(kernel),
        }

    def test_video_observables_identical_across_tiers(self):
        result = assert_tiers_agree(self.play)
        assert result["presented"] == FRAMES

    def test_batched_video_identical_across_tiers(self):
        result = assert_tiers_agree(lambda tier: self.play(tier, batch=8))
        assert result["presented"] == FRAMES

    def test_frame_skip_reconfiguration_identical_across_tiers(self):
        """Mid-run ``set_frame_skip`` flushes the flow cache and changes
        the early-discard ledger; the drop categories must match across
        tiers packet for packet."""
        result = assert_tiers_agree(
            lambda tier: self.play(tier, skip_at_us=400_000.0))
        assert result["books"]["drop_reasons"].get("early_discard", 0) > 0
        assert result["presented"] < FRAMES


# ---------------------------------------------------------------------------
# Scenario 2: multipath video group
# ---------------------------------------------------------------------------


class TestMultipathGroupDifferential:

    def play(self, tier):
        testbed = Testbed(seed=5)
        clip = synthesize_clip(NEPTUNE, seed=5, nframes=FRAMES)
        source = testbed.add_video_source(clip, dst_port=6200)
        kernel = testbed.build_scout(rate_limited_display=False,
                                     specialize=tier == "specialized")
        vgroup = kernel.start_video_group(NEPTUNE, (str(source.ip), 7200),
                                          members=2, local_port=6200)
        testbed.start_all()
        testbed.run_until_sources_done()
        if tier == "specialized":
            assert sum(p.specialized_msgs for p in vgroup.paths) > 0
        return {
            "presented": vgroup.frames_presented,
            "per_member": [path_books(p) for p in vgroup.paths],
            "dispatches": vgroup.group.dispatches,
            "kernel": kernel_snapshot(kernel),
        }

    def test_group_observables_identical_across_tiers(self):
        result = assert_tiers_agree(self.play)
        assert result["presented"] == FRAMES
        assert result["dispatches"] >= FRAMES


# ---------------------------------------------------------------------------
# Scenario 3: HTTP over the Figure 3 graph
# ---------------------------------------------------------------------------


class TestHttpDifferential:
    """The web path has no registered specializers past TCP — the
    generator must *decline* and the specialized tier degrade to the
    reference walk untouched, byte for byte on the wire."""

    @staticmethod
    def _mask_ip_ident(frame):
        """Zero the IP ident + header checksum (a process-global ident
        counter makes consecutive runs differ there by design)."""
        buf = bytearray(frame)
        buf[18:20] = b"\x00\x00"  # ident
        buf[24:26] = b"\x00\x00"  # header checksum (covers the ident)
        return bytes(buf)

    def serve(self, tier):
        from tests.integration.test_http_server import segment, web

        graph, wire = web.__wrapped__()
        conn = path_create(graph.router("HTTP"),
                           Attrs({PA_NET_PARTICIPANTS: ("10.0.0.9", 51000),
                                  PA_LOCAL_PORT: 80}),
                           specialize=tier == "specialized")
        request = b"GET /index.html HTTP/1.0\r\n\r\n"
        conn.deliver(segment(graph, 0, request), BWD)
        return {
            "wire": [self._mask_ip_ident(frame) for frame in wire],
            "books": path_books(conn),
        }

    def test_http_response_identical_across_tiers(self):
        result = assert_tiers_agree(self.serve)
        assert result["wire"], "no response on the wire"
        assert b"<h1>paths</h1>" in b"".join(result["wire"])


# ---------------------------------------------------------------------------
# Scenario 4: warm validated runs, batch=1 vs batch=32, both tiers
# ---------------------------------------------------------------------------


class TestBatchShapeDifferential:
    """The fused function sees whole runs; batch shape must not leak
    into any observable.  This is the scenario where the fused function
    takes every message, so the delivered bytes comparison is the strongest
    equivalence statement in the file."""

    def run_stack(self, tier, chunk):
        stack = Fig7Stack()
        path = path_create(stack.test,
                           Attrs({PA_NET_PARTICIPANTS: (REMOTE_IP, 7000),
                                  PA_LOCAL_PORT: 6100}),
                           specialize=tier == "specialized")
        frames = [Msg(stack.udp_frame(6100, payload=b"payload%03d" % i))
                  for i in range(64)]
        for msg in frames:
            for stamp in VALIDATED_STAMPS:  # warm flow-cache annotations
                msg.meta[stamp] = True
        for start in range(0, len(frames), chunk):
            path.deliver_batch(frames[start:start + chunk], BWD)
        if tier == "specialized":
            assert path.specialized_msgs == len(frames)
        return {
            "delivered": [m.to_bytes() for m in stack.test.received],
            "metas": [dict(m.meta) for m in stack.test.received],
            "books": path_books(path),
            "rx_validated": (stack.eth.rx_validated, stack.ip.rx_validated,
                             path.stage_of("UDP").rx_validated),
            "outq": len(path.output_queue(BWD)),
        }

    @pytest.mark.parametrize("chunk", [1, 32])
    def test_tiers_agree_per_batch_shape(self, chunk):
        result = assert_tiers_agree(lambda tier: self.run_stack(tier, chunk))
        assert len(result["delivered"]) == 64
        assert result["delivered"][3].endswith(b"payload003")
        assert result["books"]["drops"] == 0
        assert result["rx_validated"] == (64, 64, 64)

    def test_batch_shape_invisible_within_each_tier(self):
        for tier in TIERS:
            assert self.run_stack(tier, 1) == self.run_stack(tier, 32), tier

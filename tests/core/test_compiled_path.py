"""Traversal semantics on both execution tiers (DESIGN.md §11).

A path has two routes: the recursive ``forward()`` walk — the reference —
and, where the chain is recognized and un-interposed, one compiled
(``exec``-generated) function per direction.  Every case below runs on
``TIERS``: generalized processing (absorb, turn-around, fan-out),
interposition deoptimizing before the next message, wrappers that
bracket their downstream, nested deliveries, and the wiring-bug
diagnosis must not depend on which route carried the message.

Two kinds of path are used.  ``make_chain`` builds unrecognized trace
stages, so both tiers take the walk and the switch must change nothing.
``UdpSink`` is the Figure 7 TEST/UDP/IP/ETH stack fed flow-validated
frames, which the specialized tier fuses (``specialized_msgs`` proves it
engaged); replacing the sink leaves ETH/IP/UDP fused with a one-stage
tail, so the seam between generated code and the walk is exercised too.
"""

import pytest

from repro.core import Attrs, BWD, FWD, Msg, PA_NET_PARTICIPANTS, path_create
from repro.core.flowcache import VALIDATED_STAMPS
from repro.core.stage import forward, turn_around
from repro.experiments.micro import Fig7Stack, REMOTE_IP
from repro.net.common import PA_LOCAL_PORT

from ..helpers import make_chain

TIERS = ("reference", "specialized")
PORT = 6100


def each_tier(test):
    """Run ``test(self, tier)`` once per tier."""
    def run(self):
        for tier in TIERS:
            test(self, tier)
    return run


def build_path(tier, *names, **router_kwargs):
    _, routers = make_chain(*names, **router_kwargs)
    return path_create(routers[0], Attrs(), specialize=tier == "specialized")


class UdpSink:
    """A Figure 7 sink path pinned to *tier*, its NIC a list."""

    def __init__(self, tier):
        self.tier = tier
        self.stack = Fig7Stack()
        self.wire = []
        self.stack.eth.attach_device(self)
        self.path = path_create(
            self.stack.test,
            Attrs({PA_NET_PARTICIPANTS: (REMOTE_IP, 7000),
                   PA_LOCAL_PORT: PORT}),
            specialize=tier == "specialized")

    def send(self, frame):
        self.wire.append(frame)

    def fuses(self, n):
        """``specialized_msgs`` after *n* stamped frames took the path."""
        return n if self.tier == "specialized" else 0

    def frame(self, payload, stamped=True, padding=0):
        msg = Msg(self.stack.udp_frame(PORT, payload=payload)
                  + b"\xa5" * padding)
        if stamped:  # what a flow-cache hit annotates
            for stamp in VALIDATED_STAMPS:
                msg.meta[stamp] = True
        return msg

    def replace_sink(self, fn):
        self.path.stage_of("TEST").set_deliver(BWD, fn)

    def received(self):
        return [m.to_bytes() for m in self.stack.test.received]

    def rx_validated(self):
        return (self.stack.eth.rx_validated, self.stack.ip.rx_validated,
                self.path.stage_of("UDP").rx_validated)


class TestCompilation:
    def test_compiled_matches_recursive_traversal(self):
        seen = {}
        for tier in TIERS:
            sink = UdpSink(tier)
            payloads = [b"pkt%02d" % i for i in range(6)]
            for payload in payloads[:2]:
                assert sink.path.deliver(sink.frame(payload), BWD) is None
            results = sink.path.deliver_batch(
                [sink.frame(p) for p in payloads[2:]], BWD)
            assert results == [None] * 4
            assert sink.received() == payloads
            assert sink.path.specialized_msgs == sink.fuses(6)
            seen[tier] = ([dict(m.meta) for m in sink.stack.test.received],
                          sink.rx_validated(), sink.path.stats.messages_bwd,
                          len(sink.path.output_queue(BWD)))
        assert seen["specialized"] == seen["reference"]

    @each_tier
    def test_backward_direction(self, tier):
        path = build_path(tier, "A", "B", "C")
        msg = Msg(b"payload")
        path.deliver(msg, BWD)
        assert msg.meta["trace"] == [("C", BWD), ("B", BWD), ("A", BWD)]
        assert path.output_queue(BWD).dequeue() is msg

    @each_tier
    def test_mixed_run_takes_the_walk_in_order(self, tier):
        """One cold frame declines the whole run; validated frames still
        take their scalar fast receive, and order holds."""
        sink = UdpSink(tier)
        sink.path.deliver_batch([sink.frame(b"aaaa"),
                                 sink.frame(b"bbbb", stamped=False),
                                 sink.frame(b"cccc")], BWD)
        assert sink.received() == [b"aaaa", b"bbbb", b"cccc"]
        assert sink.rx_validated() == (2, 2, 2)
        assert sink.path.specialized_msgs == 0

    @each_tier
    def test_padded_frames_bail_and_are_not_counted_as_fused(self, tier):
        """Link padding beyond the IP total length bails that message to
        the walk; ``specialized_msgs`` counts only the fused ones and
        agrees with what the fused epilogue added to ``rx_validated``."""
        sink = UdpSink(tier)
        padding = [0, 7, 0, 0, 3, 0]
        sink.path.deliver_batch(
            [sink.frame(b"pay%d" % i, padding=pad)
             for i, pad in enumerate(padding)], BWD)
        assert sink.received() == [b"pay%d" % i for i in range(6)]
        padded = sum(1 for pad in padding if pad)
        assert sink.path.specialized_msgs == sink.fuses(6 - padded)
        # Bailed frames keep their stamps, so the scalar branch counts
        # them: every layer saw all six exactly once.
        assert sink.rx_validated() == (6, 6, 6)


class TestGeneralizedProcessing:
    @each_tier
    def test_absorbing_stage_ends_the_loop(self, tier):
        path = build_path(tier, "A", "B", "C", B={"absorb": True})
        msg = Msg(b"payload")
        path.deliver(msg, FWD)
        assert msg.meta["trace"] == [("A", FWD), ("B", FWD)]
        assert msg.meta["absorbed_at"] == "B"
        assert path.output_queue(FWD).is_empty()

        sink = UdpSink(tier)
        absorbed = []
        sink.replace_sink(lambda iface, m, d, **kw: absorbed.append(m))
        assert sink.path.deliver_batch(
            [sink.frame(b"one"), sink.frame(b"two")], BWD) == [None, None]
        assert [m.to_bytes() for m in absorbed] == [b"one", b"two"]
        assert sink.path.output_queue(BWD).is_empty()
        assert sink.path.specialized_msgs == sink.fuses(2)

    @each_tier
    def test_turn_around_matches_recursive(self, tier):
        path = build_path(tier, "A", "B", "C", B={"bounce": True})
        msg = Msg(b"payload")
        path.deliver(msg, FWD)
        # B turns the message around; BWD processing resumes at A.
        assert msg.meta["trace"] == [("A", FWD), ("B", FWD), ("A", BWD)]
        assert path.output_queue(BWD).dequeue() is msg

        sink = UdpSink(tier)
        sink.replace_sink(lambda iface, m, d, **kw: turn_around(
            iface, Msg(b"echo:" + m.to_bytes()), d))
        sink.path.deliver(sink.frame(b"ping"), BWD)
        # The reply left the fused function's tail, went back down
        # UDP/IP/ETH on the walk, and reached the wire.
        assert [frame[-9:] for frame in sink.wire] == [b"echo:ping"]
        assert sink.path.specialized_msgs == sink.fuses(1)

    @each_tier
    def test_fan_out_preserves_wire_order(self, tier):
        """A stage may forward several messages per call (IP
        fragmentation); each runs to the end before the next starts."""
        path = build_path(tier, "A", "B", "C")
        pieces = [Msg(b"piece0"), Msg(b"piece1"), Msg(b"piece2")]

        def fragment(iface, msg, d, **kwargs):
            for piece in pieces:
                forward(iface, piece, d, **kwargs)
            return None

        path.stage_of("B").set_deliver(FWD, fragment)
        path.deliver(Msg(b"payload"), FWD)
        outq = path.output_queue(FWD)
        assert [outq.dequeue() for _ in pieces] == pieces
        for piece in pieces:
            assert piece.meta["trace"] == [("C", FWD)]

    @each_tier
    def test_forwarding_off_the_end_is_a_wiring_bug(self, tier):
        path = build_path(tier, "A", "B")
        path.stage_of("B").set_deliver(FWD, forward)
        with pytest.raises(RuntimeError, match="no next interface"):
            path.deliver(Msg(b"payload"), FWD)


class TestRecompilation:
    @each_tier
    def test_set_deliver_bumps_generation_and_recompiles(self, tier):
        sink = UdpSink(tier)
        sink.path.deliver(sink.frame(b"before"), BWD)
        generation = sink.path.chain_generation
        stage = sink.path.stage_of("UDP")
        inner = stage.deliver_fn(BWD)

        def tagged(iface, msg, d, **kwargs):
            msg.meta["tagged"] = True
            return inner(iface, msg, d, **kwargs)

        stage.set_deliver(BWD, tagged)
        assert sink.path.chain_generation > generation
        sink.path.deliver(sink.frame(b"after"), BWD)
        # Deopt before the next message: the stale function never ran.
        first, second = sink.stack.test.received
        assert "tagged" not in first.meta and second.meta["tagged"]
        assert sink.path._specialized_gen == sink.path.chain_generation
        assert sink.path.specialized_msgs == sink.fuses(1)

    @each_tier
    def test_wrap_deliver_bumps_generation(self, tier):
        sink = UdpSink(tier)
        generation = sink.path.chain_generation
        seen = []

        def spy(inner):
            def spied(iface, msg, d, **kwargs):
                seen.append(msg)
                return inner(iface, msg, d, **kwargs)
            return spied

        sink.path.stage_of("ETH").wrap_deliver(BWD, spy)
        assert sink.path.chain_generation > generation
        run = [sink.frame(b"wxyz") for _ in range(3)]
        sink.path.deliver_batch(run, BWD)
        assert seen == run  # the wrapper saw every message of the run
        assert sink.path.specialized_msgs == 0


class TestBracketFallback:
    @each_tier
    def test_bracketing_wrapper_contains_downstream_exception(self, tier):
        """A plain try/except wrapper mid-chain sees exceptions raised
        by *later* stages: they run inside its frame, on either tier,
        with no mark needed to keep it that way."""
        path = build_path(tier, "A", "B", "C")

        def boom(iface, msg, d, **kwargs):
            raise RuntimeError("downstream fault")

        path.stage_of("C").set_deliver(FWD, boom)
        stage_b = path.stage_of("B")
        inner = stage_b.deliver_fn(FWD)

        def guarded(iface, msg, d, **kwargs):
            try:
                return inner(iface, msg, d, **kwargs)
            except RuntimeError:
                msg.meta["contained"] = True
                return None

        stage_b.set_deliver(FWD, guarded)
        msg = Msg(b"payload")
        path.deliver(msg, FWD)  # must not raise
        assert msg.meta["contained"]


class TestDeliveryStateIsolation:
    @each_tier
    def test_nested_deliveries_do_not_corrupt_each_other(self, tier):
        """A stage that synchronously delivers into another path
        (cross-path handoff) runs that path's function inside the outer
        one's tail; neither run may disturb the other."""
        inner, outer = UdpSink(tier), UdpSink(tier)
        sink = outer.path.stage_of("TEST").deliver_fn(BWD)

        def handoff(iface, msg, d, **kwargs):
            inner.path.deliver_batch(
                [inner.frame(b"side:" + msg.to_bytes())], BWD)
            return sink(iface, msg, d, **kwargs)

        outer.replace_sink(handoff)
        outer.path.deliver_batch(
            [outer.frame(b"m0"), outer.frame(b"m1")], BWD)
        assert outer.received() == [b"m0", b"m1"]
        assert inner.received() == [b"side:m0", b"side:m1"]
        assert outer.path.specialized_msgs == outer.fuses(2)
        assert inner.path.specialized_msgs == inner.fuses(2)

"""MFLOW: ordered-not-reliable delivery, window advertisement, RTT echo."""

import pytest

from repro.core import Attrs, BWD, Msg, PA_INQ_LEN, PA_NET_PARTICIPANTS, path_create
from repro.net import MflowHeader, build_mflow_frame, parse_frame
from .conftest import REMOTE_IP, Stack


@pytest.fixture
def mstack():
    stack = Stack(with_mflow=True)
    return stack


def make_mflow_path(stack, local_port=6200, inq=8):
    from repro.net import PA_LOCAL_PORT
    attrs = Attrs({PA_NET_PARTICIPANTS: (REMOTE_IP, 7200),
                   PA_LOCAL_PORT: local_port, PA_INQ_LEN: inq})
    return path_create(stack.mflow, attrs)


def data_frame(stack, seq, payload=b"macroblocks", local_port=6200,
               timestamp=123456, flags=0):
    return build_mflow_frame(stack.remote.mac, stack.device.mac,
                             stack.remote.ip, stack.ip.addr,
                             7200, local_port, seq, timestamp, payload,
                             flags=flags)


class TestPathShape:
    def test_routers(self, mstack):
        path = make_mflow_path(mstack)
        assert path.routers() == ["MFLOW", "UDP", "IP", "ETH"]

    def test_flow_registered(self, mstack):
        path = make_mflow_path(mstack)
        key = mstack.mflow.binding_key(REMOTE_IP, 7200)
        assert mstack.mflow._flows[key] is path

    def test_flow_unregistered_on_delete(self, mstack):
        path = make_mflow_path(mstack)
        path.delete()
        assert mstack.mflow._flows == {}


class TestSequencing:
    def deliver(self, stack, path, seq, **kwargs):
        msg = Msg(data_frame(stack, seq, **kwargs))
        path.deliver(msg, BWD)
        return msg

    def test_in_order_delivery(self, mstack):
        path = make_mflow_path(mstack)
        stage = path.stage_of("MFLOW")
        for seq in range(3):
            self.deliver(mstack, path, seq)
        # MFLOW forwards to... nothing above it in this graph, so messages
        # stop at MFLOW being the first stage; check the stage counters.
        assert stage.next_expected == 3
        assert stage.stale_drops == 0
        assert stage.gaps == 0

    def test_stale_duplicate_dropped(self, mstack):
        path = make_mflow_path(mstack)
        stage = path.stage_of("MFLOW")
        self.deliver(mstack, path, 0)
        self.deliver(mstack, path, 1)
        msg = self.deliver(mstack, path, 0)  # duplicate
        assert stage.stale_drops == 1
        assert "stale seq" in msg.meta["drop_reason"]
        assert stage.next_expected == 2

    def test_gap_tolerated_and_order_restored(self, mstack):
        """Ordered but not reliable: a gap advances the window; the late
        packet is then stale."""
        path = make_mflow_path(mstack)
        stage = path.stage_of("MFLOW")
        self.deliver(mstack, path, 0)
        self.deliver(mstack, path, 5)   # gap of 4
        assert stage.gaps == 1
        assert stage.next_expected == 6
        msg = self.deliver(mstack, path, 3)  # late: never delivered backwards
        assert stage.stale_drops == 1
        assert msg.meta["drop_reason"].startswith("stale")


class TestWindowAdvertisement:
    def test_adv_sent_for_each_data_packet(self, mstack):
        path = make_mflow_path(mstack)
        msg = Msg(data_frame(mstack, 0))
        path.deliver(msg, BWD)
        mstack.run()
        assert len(mstack.remote.frames) == 1
        parsed = parse_frame(mstack.remote.frames[0], expect_mflow=True)
        assert parsed.mflow.is_window_adv

    def test_adv_advertises_free_input_slots(self, mstack):
        path = make_mflow_path(mstack, inq=8)
        path.deliver(Msg(data_frame(mstack, 0)), BWD)
        mstack.run()
        parsed = parse_frame(mstack.remote.frames[0], expect_mflow=True)
        # last delivered seq (0) + 1 + free slots (8; queue is empty)
        assert parsed.mflow.seq == 0 + 1 + 8
        assert parsed.mflow.window == 8

    def test_adv_echoes_timestamp_for_rtt(self, mstack):
        """'MFLOW can measure the round-trip latency by putting a
        timestamp in its header' — the sink must echo it."""
        path = make_mflow_path(mstack)
        path.deliver(Msg(data_frame(mstack, 0, timestamp=987654)), BWD)
        mstack.run()
        parsed = parse_frame(mstack.remote.frames[0], expect_mflow=True)
        assert parsed.mflow.timestamp_us == 987654

    def test_adv_addressed_to_source(self, mstack):
        path = make_mflow_path(mstack)
        path.deliver(Msg(data_frame(mstack, 0)), BWD)
        mstack.run()
        parsed = parse_frame(mstack.remote.frames[0], expect_mflow=True)
        assert str(parsed.ip.dst) == REMOTE_IP
        assert parsed.udp.dport == 7200
        assert parsed.udp.sport == 6200

    def test_adv_at_sink_is_dropped(self, mstack):
        path = make_mflow_path(mstack)
        stage = path.stage_of("MFLOW")
        frame = build_mflow_frame(mstack.remote.mac, mstack.device.mac,
                                  mstack.remote.ip, mstack.ip.addr,
                                  7200, 6200, 99, 0, b"",
                                  flags=MflowHeader.FLAG_WINDOW_ADV)
        msg = Msg(frame)
        path.deliver(msg, BWD)
        assert "advertisement at sink" in msg.meta["drop_reason"]
        assert stage.window_advs_sent == 0

    def test_adv_cost_charged_to_data_packet(self, mstack):
        from repro.net import peek_cost
        path = make_mflow_path(mstack)
        msg = Msg(data_frame(mstack, 0))
        path.deliver(msg, BWD)
        # receive chain (ETH+IP+UDP+MFLOW) plus the advertisement's send
        # chain (MFLOW/2+UDP+IP+ETH) all land on the one account.
        assert peek_cost(msg) > 20.0


class TestClassificationByFlow:
    def test_udp_demux_finds_flow_path(self, mstack):
        path = make_mflow_path(mstack, local_port=6200)
        msg = Msg(data_frame(mstack, 0, local_port=6200))
        assert mstack.classify(msg) is path

    def test_mflow_refinement_demux(self, mstack):
        """When UDP's port maps to the MFLOW router (multiple flows on one
        port), MFLOW refines by source address."""
        path = make_mflow_path(mstack, local_port=6300)
        # Rebind the port to the router instead of the path.
        mstack.udp.release_port(6300)
        mstack.udp.bind_port(6300, mstack.mflow,
                             mstack.mflow.service("down"))
        msg = Msg(data_frame(mstack, 0, local_port=6300))
        assert mstack.classify(msg) is path

    def test_unknown_flow_dropped(self, mstack):
        make_mflow_path(mstack, local_port=6300)
        mstack.udp.release_port(6300)
        mstack.udp.bind_port(6300, mstack.mflow,
                             mstack.mflow.service("down"))
        frame = build_mflow_frame(mstack.remote.mac, mstack.device.mac,
                                  mstack.remote.ip, mstack.ip.addr,
                                  9999, 6300, 0, 0, b"data")
        msg = Msg(frame)
        assert mstack.classify(msg) is None
        assert "no flow" in msg.meta["drop_reason"]

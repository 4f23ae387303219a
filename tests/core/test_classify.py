"""Tests for incremental packet classification (demux chains) and its
flow-cache and group-dispatch books."""

import importlib
from collections import Counter

import pytest

from repro.core import (
    Attrs,
    ClassificationError,
    ClassifierStats,
    DemuxResult,
    FlowCache,
    Msg,
    Path,
    Router,
    classify,
    flow_key_frame,
    path_create,
)
from repro.multipath import PathGroup
from repro.multipath.policies import WeightedAccountingPolicy
from repro.net import EthAddr, IpAddr, build_udp_frame
from ..helpers import ChainRouter, make_chain

#: The module, which ``repro.core``'s ``classify`` function shadows.
classify_module = importlib.import_module("repro.core.classify")


def bound_chain(*names, bind_at=None):
    """Build a chain, create a path, and bind it at router *bind_at*."""
    graph, routers = make_chain(*names)
    path = path_create(routers[0], Attrs())
    target = graph.router(bind_at or names[-1])
    target.bound_path = path
    return graph, routers, path


class TestIncrementalDemux:
    def test_single_router_decides(self):
        _, routers, path = bound_chain("A", "B", bind_at="A")
        msg = Msg(b"A...")
        assert classify(routers[0], msg) is path
        assert msg.meta == {}  # the decision is the return value alone

    def test_refinement_walks_down_the_chain(self):
        # Tag bytes spell the refinement route: A defers, B defers, C decides.
        _, routers, path = bound_chain("A", "B", "C", bind_at="C")
        stats = ClassifierStats()
        msg = Msg(b"xyC-payload")  # A sees 'x' (not A) -> down, B sees 'y' -> down
        assert classify(routers[0], msg, stats=stats) is path
        assert stats.refinements == 2
        assert stats.classified == 1

    def test_classification_does_not_consume_message(self):
        _, routers, _ = bound_chain("A", "B", bind_at="B")
        msg = Msg(b"zB-payload")
        classify(routers[0], msg)
        assert msg.to_bytes() == b"zB-payload"

    def test_unclassifiable_data_discarded_with_reason(self):
        _, routers, _ = bound_chain("A", "B", bind_at="B")
        stats = ClassifierStats()
        msg = Msg(b"??")
        assert classify(routers[0], msg, stats=stats) is None
        assert stats.dropped == 1
        assert "drop_reason" in msg.meta

    def test_decider_without_bound_path_drops(self):
        _, routers = make_chain("A", "B")
        msg = Msg(b"zB")
        assert classify(routers[0], msg) is None
        assert "no bound path" in msg.meta["drop_reason"]

    def test_empty_message_dropped_not_crashed(self):
        _, routers, _ = bound_chain("A", "B", bind_at="B")
        assert classify(routers[0], Msg(b"")) is None


class TestNonConvergence:
    def test_demux_cycle_detected(self):
        class PingPong(Router):
            SERVICES = ("up:net", "down:net")
            peer = None

            def demux(self, msg, service, offset=0):
                return DemuxResult.refine(self.peer, self.peer.service("up"))

        a, b = PingPong("A"), PingPong("B")
        a.peer, b.peer = b, a
        with pytest.raises(ClassificationError, match="converge"):
            classify(a, Msg(b"x"))


class TestBestEffortSemantics:
    def test_good_enough_path_for_fragments(self):
        """The Scout classifier may return a 'short/fat' catch-all path:
        a router can decide to claim traffic it can only partially
        classify (IP fragments go to the reassembly path)."""
        class FragmentAware(ChainRouter):
            def __init__(self, name):
                super().__init__(name)
                self.reassembly_path = None

            def demux(self, msg, service, offset=0):
                if msg.peek(1, at=offset) == b"F":
                    return DemuxResult.found(self.reassembly_path)
                return super().demux(msg, service, offset)

        from repro.core import RouterGraph
        graph = RouterGraph()
        ip = graph.add(FragmentAware("I"))
        eth = graph.add(ChainRouter("E"))
        graph.connect("E.down", "I.up")
        graph.boot()
        fat_path = path_create(eth, Attrs(role="reassembly"))
        ip.reassembly_path = fat_path
        msg = Msg(b"xF:frag1")  # E defers (x), I claims fragments
        assert classify(eth, msg) is fat_path


# ---------------------------------------------------------------------------
# The flow cache's books, one key per message, group re-dispatch
# ---------------------------------------------------------------------------

def flow_msg(payload=b"", tag=b"B"):
    """A keyable IPv4/UDP frame whose first byte (the destination MAC's)
    is the chain tag *tag*: every frame with one tag is one flow."""
    return Msg(build_udp_frame(EthAddr("02:00:00:00:00:02"),
                               EthAddr(tag + bytes(5)), IpAddr("10.0.0.2"),
                               IpAddr("10.0.0.1"), 7000, 6100, payload))


class TestClassifyResult:
    def test_source_cache_on_second_probe(self):
        """The first message of a flow is decided by the chain, the
        second by one cache probe: the books say which."""
        _, routers, path = bound_chain("B", bind_at="B")
        cache = FlowCache(capacity=8)
        stats = ClassifierStats()
        assert classify(routers[0], flow_msg(b"1"), stats=stats,
                        cache=cache) is path
        assert (stats.cache_hits, cache.misses, len(cache)) == (0, 1, 1)
        assert classify(routers[0], flow_msg(b"2"), stats=stats,
                        cache=cache) is path
        assert (stats.cache_hits, cache.hits) == (1, 1)


class TestFlowCacheBooks:
    def test_first_message_inserts_what_the_flow_then_hits(self):
        _, routers, path = bound_chain("B", bind_at="B")
        cache = FlowCache(capacity=8)
        stats = ClassifierStats()
        found = [classify(routers[0], flow_msg(p), stats=stats, cache=cache)
                 for p in (b"1", b"2", b"3")]
        assert found == [path] * 3
        assert stats.classified == 3
        assert stats.cache_hits == 2
        assert cache.hits == 2 and cache.misses == 1

    def test_no_cache_every_message_walks(self):
        _, routers, path = bound_chain("B", bind_at="B")
        stats = ClassifierStats()
        found = [classify(routers[0], flow_msg(p), stats=stats)
                 for p in (b"1", b"2")]
        assert found == [path] * 2
        assert stats.classified == 2 and stats.cache_hits == 0

    def test_refused_insert_counts_one_miss_per_message(self):
        """A decision the cache will not hold (B's bound path is still
        CREATING): every message walks the chain and is probed, and
        missed, exactly once."""
        graph, routers, _ = bound_chain("B", bind_at="B")
        creating = graph.router("B").bound_path = Path()
        cache = FlowCache(capacity=8)
        stats = ClassifierStats()
        for payload in (b"1", b"2", b"3"):
            assert classify(routers[0], flow_msg(payload), stats=stats,
                            cache=cache) is creating
        assert (cache.misses, cache.hits, len(cache)) == (3, 0, 0)
        assert (stats.classified, stats.cache_hits) == (3, 0)


class AlwaysRespread(WeightedAccountingPolicy):
    """Sticky, and asks for its pins to be dropped on every hit."""

    def should_respread(self, members):
        return True


def grouped_router(policy, **group_kwargs):
    _, routers, anchor = bound_chain("B", bind_at="B")
    group = PathGroup(policy, **group_kwargs)
    group.add(anchor)
    group.add(bound_chain("S", bind_at="S")[2])
    return routers[0]


ROUTERS = {
    "plain": lambda: bound_chain("B", bind_at="B")[1][0],
    "non-sticky-group": lambda: grouped_router("round_robin"),
    "sticky-group": lambda: grouped_router("weighted_accounting"),
    "sticky-respread": lambda: grouped_router(AlwaysRespread(),
                                              min_respread_interval=0),
}


@pytest.fixture
def key_calls(monkeypatch):
    """How often the classifier keys each frame, by frame bytes."""
    calls = Counter()

    def counting(frame):
        calls[bytes(frame)] += 1
        return flow_key_frame(frame)

    monkeypatch.setattr(classify_module, "flow_key_frame", counting)
    return calls


class TestOneKeyPerMessage:
    """The first message misses and is inserted, the rest hit (or, for a
    re-spreading sticky group, hit and are re-placed): each is keyed
    exactly once, for both its probe and its insert."""

    @pytest.mark.parametrize("setup", list(ROUTERS))
    def test_each_message_is_keyed_once(self, setup, key_calls):
        cache = FlowCache(capacity=8)
        router = ROUTERS[setup]()
        msgs = [flow_msg(b"%d" % i) for i in range(3)]
        assert all(classify(router, m, cache=cache) is not None
                   for m in msgs)
        assert key_calls == {m.peek(42): 1 for m in msgs}
        assert (cache.misses, cache.hits) == (1, 2)
        assert len(cache) == 1

    def test_a_keyless_message_is_keyed_once(self, key_calls):
        cache = FlowCache(capacity=8)
        router = ROUTERS["plain"]()
        msgs = []
        for i in range(3):
            frame = bytearray(flow_msg(b"%d" % i).to_bytes())
            frame[23] = 6  # TCP: the key declines it
            msgs.append(Msg(bytes(frame)))
        for msg in msgs:
            classify(router, msg, cache=cache)
        assert key_calls == {m.peek(42): 1 for m in msgs}
        assert (cache.misses, cache.hits, len(cache)) == (0, 0, 0)


class TestGroupDispatch:
    def test_followers_redispatch_through_policy(self):
        """A non-sticky cached anchor re-dispatches *every* message, so
        round-robin spreads a warm flow across the members."""
        _, routers, anchor = bound_chain("B", bind_at="B")
        sibling = bound_chain("S", bind_at="S")[2]
        group = PathGroup("round_robin")
        group.add(anchor)
        group.add(sibling)
        cache = FlowCache(capacity=8)
        classify(routers[0], flow_msg(b"0"), cache=cache)  # cache the anchor
        dispatches = group.dispatches
        picked = [classify(routers[0], flow_msg(b"%d" % i), cache=cache)
                  for i in range(1, 5)]
        # Every follower was a cache hit on the anchor, then one policy
        # dispatch.
        assert cache.hits == 4
        assert group.dispatches - dispatches == 4
        assert picked.count(anchor) == 2 and picked.count(sibling) == 2

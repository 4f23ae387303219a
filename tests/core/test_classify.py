"""Tests for incremental packet classification (demux chains), the
``classify_ex`` result and its flow-cache and group-dispatch books."""

from collections import Counter

import pytest

from repro.core import (
    SOURCE_CACHE,
    SOURCE_DEMUX,
    SOURCE_GROUP,
    Attrs,
    ClassificationError,
    ClassifierStats,
    ClassifyResult,
    DemuxResult,
    FlowCache,
    Msg,
    Path,
    Router,
    classify,
    classify_ex,
    classify_or_raise,
    path_create,
)
from repro.multipath import PathGroup
from repro.multipath.policies import WeightedAccountingPolicy
from ..helpers import ChainRouter, make_chain


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
        assert msg.meta["path"] is path

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

    def test_classify_or_raise(self):
        _, routers, path = bound_chain("A", bind_at="A")
        assert classify_or_raise(routers[0], Msg(b"A")) is path
        with pytest.raises(ClassificationError):
            classify_or_raise(routers[0], Msg(b"?"))

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
# classify_ex: the result, the flow cache's books, group re-dispatch
# ---------------------------------------------------------------------------

def first_byte_key(msg):
    return msg.peek(1) if len(msg) else None


def cache_of(capacity=8):
    return FlowCache(capacity=capacity, key_of=first_byte_key)


class TestClassifyResult:
    def test_defaults(self):
        assert ClassifyResult(None) == (None, SOURCE_DEMUX)

    def test_tuple_unpacking_shim(self):
        _, routers, path = bound_chain("A", bind_at="A")
        found, source = classify_ex(routers[0], Msg(b"A"))
        assert found is path and source == SOURCE_DEMUX

    def test_path_only_shims_preserved(self):
        """classify()/classify_or_raise() still return the bare path."""
        _, routers, path = bound_chain("A", bind_at="A")
        assert classify(routers[0], Msg(b"A")) is path
        assert classify_or_raise(routers[0], Msg(b"A")) is path

    def test_source_cache_on_second_probe(self):
        _, routers, path = bound_chain("A", bind_at="A")
        cache = cache_of()
        assert classify_ex(routers[0], Msg(b"A1"), cache=cache) \
            == (path, SOURCE_DEMUX)
        assert classify_ex(routers[0], Msg(b"A2"), cache=cache) \
            == (path, SOURCE_CACHE)


class TestFlowCacheBooks:
    def test_first_message_inserts_what_the_flow_then_hits(self):
        _, routers, path = bound_chain("A", bind_at="A")
        cache = cache_of()
        stats = ClassifierStats()
        results = [classify_ex(routers[0], Msg(p), stats=stats, cache=cache)
                   for p in (b"A1", b"A2", b"A3")]
        assert [r.source for r in results] \
            == [SOURCE_DEMUX, SOURCE_CACHE, SOURCE_CACHE]
        assert stats.classified == 3
        assert stats.cache_hits == 2
        assert cache.hits == 2 and cache.misses == 1

    def test_no_cache_every_message_walks(self):
        _, routers, path = bound_chain("A", bind_at="A")
        stats = ClassifierStats()
        results = [classify_ex(routers[0], Msg(p), stats=stats)
                   for p in (b"A1", b"A2")]
        assert [r.source for r in results] == [SOURCE_DEMUX] * 2
        assert stats.classified == 2 and stats.cache_hits == 0

    def test_refused_insert_counts_one_miss_per_message(self):
        """A decision the cache will not hold (A's bound path is still
        CREATING): every message walks the chain and is probed, and
        missed, exactly once."""
        graph, routers, _ = bound_chain("A", bind_at="A")
        creating = graph.router("A").bound_path = Path()
        cache = cache_of()
        stats = ClassifierStats()
        for payload in (b"A1", b"A2", b"A3"):
            assert classify_ex(routers[0], Msg(payload), stats=stats,
                               cache=cache) == (creating, SOURCE_DEMUX)
        assert (cache.misses, cache.hits, len(cache)) == (3, 0, 0)
        assert (stats.classified, stats.cache_hits) == (3, 0)


class CountingKey:
    """``first_byte_key`` (or no key at all) that counts how often each
    message is keyed."""

    def __init__(self, keyless=False):
        self.keyless = keyless
        self.calls = Counter()

    def __call__(self, msg):
        self.calls[id(msg)] += 1
        return None if self.keyless else first_byte_key(msg)


class AlwaysRespread(WeightedAccountingPolicy):
    """Sticky, and asks for its pins to be dropped on every hit."""

    def should_respread(self, members):
        return True


def grouped_router(policy, **group_kwargs):
    _, routers, anchor = bound_chain("A", bind_at="A")
    group = PathGroup(policy, **group_kwargs)
    group.add(anchor)
    group.add(bound_chain("S", bind_at="S")[2])
    return routers[0]


ROUTERS = {
    "plain": lambda: bound_chain("A", bind_at="A")[1][0],
    "non-sticky-group": lambda: grouped_router("round_robin"),
    "sticky-group": lambda: grouped_router("weighted_accounting"),
    "sticky-respread": lambda: grouped_router(AlwaysRespread(),
                                              min_respread_interval=0),
}


class TestOneKeyPerMessage:
    """The first message misses and is inserted, the rest hit (or, for a
    re-spreading sticky group, hit and are re-placed): each is keyed
    exactly once, for both its probe and its insert."""

    @pytest.mark.parametrize("setup", list(ROUTERS))
    def test_each_message_is_keyed_once(self, setup):
        key_of = CountingKey()
        cache = FlowCache(capacity=8, key_of=key_of)
        router = ROUTERS[setup]()
        msgs = [Msg(b"A%d" % i) for i in range(3)]
        assert all(classify_ex(router, m, cache=cache).path is not None
                   for m in msgs)
        assert key_of.calls == {id(m): 1 for m in msgs}
        assert (cache.misses, cache.hits) == (1, 2)
        assert len(cache) == 1

    def test_a_keyless_message_is_keyed_once(self):
        key_of = CountingKey(keyless=True)
        cache = FlowCache(capacity=8, key_of=key_of)
        router = ROUTERS["plain"]()
        msgs = [Msg(b"A%d" % i) for i in range(3)]
        for msg in msgs:
            classify_ex(router, msg, cache=cache)
        assert key_of.calls == {id(m): 1 for m in msgs}
        assert (cache.misses, cache.hits, len(cache)) == (0, 0, 0)


class TestGroupDispatch:
    def test_followers_redispatch_through_policy(self):
        """A non-sticky cached anchor re-dispatches *every* message, so
        round-robin spreads a warm flow across the members."""
        _, routers, anchor = bound_chain("A", bind_at="A")
        sibling = bound_chain("S", bind_at="S")[2]
        group = PathGroup("round_robin")
        group.add(anchor)
        group.add(sibling)
        cache = cache_of()
        classify_ex(routers[0], Msg(b"A0"), cache=cache)  # cache the anchor
        results = [classify_ex(routers[0], Msg(b"A%d" % i), cache=cache)
                   for i in range(4)]
        assert [r.source for r in results] == [SOURCE_GROUP] * 4
        picked = [r.path for r in results]
        assert picked.count(anchor) == 2 and picked.count(sibling) == 2

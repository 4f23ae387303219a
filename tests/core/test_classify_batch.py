"""Tests for batched classification: run grouping, decision sources,
and exact per-message counter parity with the per-message classifier.
"""

from collections import Counter

import pytest

from repro.core import (
    ClassifierStats,
    ClassifyResult,
    FlowCache,
    Msg,
    Path,
    SOURCE_CACHE,
    SOURCE_DEMUX,
    SOURCE_GROUP,
    classify,
    classify_batch,
    classify_ex,
)
from repro.core.classify import classify_or_raise
from repro.multipath import PathGroup
from repro.multipath.policies import WeightedAccountingPolicy
from .test_classify import bound_chain


def first_byte_key(msg):
    return msg.peek(1) if len(msg) else None


def cache_of(capacity=8):
    return FlowCache(capacity=capacity, key_of=first_byte_key)


class TestClassifyResult:
    def test_defaults(self):
        result = ClassifyResult(None)
        assert result == (None, SOURCE_DEMUX, 1)

    def test_tuple_unpacking_shim(self):
        _, routers, path = bound_chain("A", bind_at="A")
        found, source, run = classify_ex(routers[0], Msg(b"A"))
        assert found is path and source == SOURCE_DEMUX and run == 1

    def test_path_only_shims_preserved(self):
        """classify()/classify_or_raise() still return the bare path."""
        _, routers, path = bound_chain("A", bind_at="A")
        assert classify(routers[0], Msg(b"A")) is path
        assert classify_or_raise(routers[0], Msg(b"A")) is path

    def test_source_cache_on_second_probe(self):
        _, routers, path = bound_chain("A", bind_at="A")
        cache = cache_of()
        assert classify_ex(routers[0], Msg(b"A1"), cache=cache) \
            == (path, SOURCE_DEMUX, 1)
        assert classify_ex(routers[0], Msg(b"A2"), cache=cache) \
            == (path, SOURCE_CACHE, 1)


class TestClassifyBatchRuns:
    def test_single_run_shares_one_decision(self):
        _, routers, path = bound_chain("A", bind_at="A")
        cache = cache_of()
        classify_ex(routers[0], Msg(b"A0"), cache=cache)  # warm the cache
        msgs = [Msg(b"A1"), Msg(b"A2"), Msg(b"A3")]
        results = classify_batch(routers[0], msgs, cache=cache)
        assert [r.path for r in results] == [path] * 3
        assert [r.source for r in results] == [SOURCE_CACHE] * 3
        assert [r.run_length for r in results] == [3, 3, 3]
        assert all(m.meta["path"] is path for m in msgs)

    def test_runs_split_at_key_boundaries(self):
        graph, routers, path_a = bound_chain("A", "B", bind_at="A")
        path_b = bound_chain("X", "B")[2]  # unused; just for symmetry
        cache = cache_of()
        classify_ex(routers[0], Msg(b"A0"), cache=cache)
        msgs = [Msg(b"A1"), Msg(b"A2"), Msg(b"zB"), Msg(b"A3")]
        results = classify_batch(routers[0], msgs, cache=cache)
        assert [r.run_length for r in results] == [2, 2, 1, 1]
        assert results[0].source == SOURCE_CACHE
        assert results[2].source == SOURCE_DEMUX  # different flow: own walk

    def test_cold_cache_head_decides_followers_hit(self):
        """The run head's chain walk populates the cache; followers in the
        same run resolve through the precomputed key."""
        _, routers, path = bound_chain("A", bind_at="A")
        cache = cache_of()
        stats = ClassifierStats()
        results = classify_batch(routers[0],
                                 [Msg(b"A1"), Msg(b"A2"), Msg(b"A3")],
                                 stats=stats, cache=cache)
        assert [r.source for r in results] \
            == [SOURCE_DEMUX, SOURCE_CACHE, SOURCE_CACHE]
        assert stats.classified == 3
        assert stats.cache_hits == 2
        assert cache.hits == 2 and cache.misses == 1

    def test_no_cache_every_message_walks(self):
        _, routers, path = bound_chain("A", bind_at="A")
        stats = ClassifierStats()
        results = classify_batch(routers[0], [Msg(b"A1"), Msg(b"A2")],
                                 stats=stats)
        assert [r.source for r in results] == [SOURCE_DEMUX] * 2
        assert [r.run_length for r in results] == [1, 1]
        assert stats.classified == 2 and stats.cache_hits == 0

    def test_dropped_head_does_not_poison_followers(self):
        """A run whose head is discarded falls back to per-message walks;
        every message still gets a (drop) result and a reason."""
        _, routers, _ = bound_chain("A", "B", bind_at="B")
        cache = cache_of()
        msgs = [Msg(b"??1"), Msg(b"??2")]
        results = classify_batch(routers[0], msgs, cache=cache)
        assert [r.path for r in results] == [None, None]
        assert all("drop_reason" in m.meta for m in msgs)

    def test_empty_batch(self):
        _, routers, _ = bound_chain("A", bind_at="A")
        assert classify_batch(routers[0], [], cache=cache_of()) == []

    def test_keyless_messages_classify_individually(self):
        """Messages the cache deems ineligible (key None) never form
        runs — each takes its own walk, exactly as per-message would."""
        _, routers, path = bound_chain("A", bind_at="A")
        cache = cache_of()

        class NoKeys(FlowCache):
            pass

        nokeys = FlowCache(capacity=4, key_of=lambda m: None)
        results = classify_batch(routers[0], [Msg(b"A1"), Msg(b"A2")],
                                 cache=nokeys)
        assert [r.run_length for r in results] == [1, 1]
        assert [r.source for r in results] == [SOURCE_DEMUX] * 2


def classify_all(router, msgs, cache, batched, stats=None):
    if batched:
        return classify_batch(router, msgs, stats=stats, cache=cache)
    return [classify_ex(router, m, stats=stats, cache=cache) for m in msgs]


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
    exactly once, by whichever entry point classified it."""

    @pytest.mark.parametrize("batched", [False, True],
                             ids=["classify_ex", "classify_batch"])
    @pytest.mark.parametrize("setup", list(ROUTERS))
    def test_each_message_is_keyed_once(self, setup, batched):
        key_of = CountingKey()
        cache = FlowCache(capacity=8, key_of=key_of)
        msgs = [Msg(b"A%d" % i) for i in range(3)]
        results = classify_all(ROUTERS[setup](), msgs, cache, batched)
        assert all(r.path is not None for r in results)
        assert key_of.calls == {id(m): 1 for m in msgs}
        assert (cache.misses, cache.hits) == (1, 2)
        assert len(cache) == 1

    @pytest.mark.parametrize("batched", [False, True],
                             ids=["classify_ex", "classify_batch"])
    def test_a_keyless_message_is_keyed_once(self, batched):
        key_of = CountingKey(keyless=True)
        cache = FlowCache(capacity=8, key_of=key_of)
        msgs = [Msg(b"A%d" % i) for i in range(3)]
        classify_all(ROUTERS["plain"](), msgs, cache, batched)
        assert key_of.calls == {id(m): 1 for m in msgs}
        assert (cache.misses, cache.hits, len(cache)) == (0, 0, 0)


class TestCounterParity:
    INTERLEAVED = [b"A1", b"A2", b"A3", b"zB1", b"zB2", b"A4"]

    def counters(self, batched, payloads=INTERLEAVED, creating=False):
        """Classify *payloads* (by default two flows interleaved in runs)
        and return every observable counter.  With *creating*, A's bound
        path is still CREATING, so demux returns it and the cache refuses
        to insert it."""
        graph, routers, path = bound_chain("A", "B", bind_at="A")
        graph.router("B").bound_path = bound_chain("B")[2]
        if creating:
            graph.router("A").bound_path = Path()
        cache = cache_of()
        stats = ClassifierStats()
        msgs = [Msg(p) for p in payloads]
        paths = [r.path for r in classify_all(routers[0], msgs, cache,
                                              batched, stats)]
        # Normalize pids (globally allocated) to first-appearance order so
        # the two fresh graphs compare structurally.
        order = {}
        for p in paths:
            order.setdefault(p.pid if p is not None else None, len(order))
        return {
            "paths": [order[p.pid if p is not None else None] for p in paths],
            "classified": stats.classified,
            "dropped": stats.dropped,
            "refinements": stats.refinements,
            "stats_cache_hits": stats.cache_hits,
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "metas": [order[m.meta.get("path").pid] for m in msgs],
        }

    def test_batch_counters_equal_per_message_counters(self):
        assert self.counters(batched=True) == self.counters(batched=False)

    def test_refused_insert_counts_one_miss_per_message(self):
        """A run whose decision the cache will not hold: every message
        walks the chain and is probed, and missed, exactly once."""
        payloads = [b"A1", b"A2", b"A3"]
        batched = self.counters(True, payloads, creating=True)
        assert batched == self.counters(False, payloads, creating=True)
        assert batched["cache_misses"] == 3


class TestGroupDispatch:
    def group_setup(self):
        """A bound chain whose path joins a round-robin group with a
        second live member."""
        _, routers, anchor = bound_chain("A", bind_at="A")
        sibling = bound_chain("S", bind_at="S")[2]
        group = PathGroup("round_robin")
        group.add(anchor)
        group.add(sibling)
        return routers, anchor, sibling, group

    def test_followers_redispatch_through_policy(self):
        """A non-sticky cached anchor re-dispatches *every* follower, so
        round-robin spreads exactly as per-message classification."""
        routers, anchor, sibling, group = self.group_setup()
        cache = cache_of()
        classify_ex(routers[0], Msg(b"A0"), cache=cache)  # cache the anchor
        msgs = [Msg(b"A%d" % i) for i in range(4)]
        results = classify_batch(routers[0], msgs, cache=cache)
        assert [r.source for r in results] == [SOURCE_GROUP] * 4
        picked = [r.path for r in results]
        assert picked.count(anchor) == 2 and picked.count(sibling) == 2

    def test_dispatch_batch_matches_per_message_dispatch(self):
        """PathGroup.dispatch_batch yields ordered (member, run) splits
        whose concatenation equals N individual dispatch() calls."""
        _, anchor, sibling, group = self.group_setup()
        msgs = [{"frame": i} for i in range(5)]
        splits = group.dispatch_batch(msgs)
        flattened = [(member, msg) for member, run in splits
                     for msg in run]
        assert [m for _member, m in flattened] == msgs
        # Consecutive splits never share a member (maximal runs).
        members = [member for member, _run in splits]
        assert all(a is not b for a, b in zip(members, members[1:]))

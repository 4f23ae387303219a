"""Tests for the demux flow cache: LRU mechanics, strict invalidation,
and the classify() integration (cache consulted before the chain)."""

import pytest

from repro.core import (
    ClassifierStats,
    DELETED,
    FlowCache,
    Msg,
    Path,
    classify,
    flow_key,
)
from repro.experiments.micro import Fig7Stack


def established_path() -> Path:
    path = Path()
    path._establish()
    return path


def first_byte_key(msg):
    """Toy key for LRU mechanics: the message's first byte, or None for
    empty (ineligible) messages."""
    return msg[:1] if msg else None


def cache_of(capacity=4):
    return FlowCache(capacity=capacity, key_of=first_byte_key)


class TestLookupInsert:
    def test_miss_then_insert_then_hit(self):
        cache = cache_of()
        path = established_path()
        assert cache.lookup(b"a") is None
        assert cache.misses == 1
        assert cache.insert(b"a", path)
        assert cache.lookup(b"a") is path
        assert cache.hits == 1
        assert len(cache) == 1

    def test_ineligible_messages_bypass_entirely(self):
        cache = cache_of()
        path = established_path()
        assert cache.lookup(b"") is None
        assert not cache.insert(b"", path)
        # An ineligible message is not even a miss: the cache was never
        # consulted, so counters and contents stay untouched.
        assert cache.misses == 0
        assert len(cache) == 0

    def test_only_established_paths_admitted(self):
        cache = cache_of()
        creating = Path()  # state == CREATING
        assert not cache.insert(b"a", creating)
        assert len(cache) == 0

    def test_reinsert_same_key_different_path_replaces(self):
        cache = cache_of()
        old, new = established_path(), established_path()
        cache.insert(b"a", old)
        cache.insert(b"a", new)
        assert cache.lookup(b"a") is new
        old.delete()  # invalidating the old path must not remove "a"
        assert cache.lookup(b"a") is new


class TestLRU:
    def test_capacity_bound_evicts_least_recently_used(self):
        cache = cache_of(capacity=2)
        paths = {tag: established_path() for tag in "abc"}
        cache.insert(b"a", paths["a"])
        cache.insert(b"b", paths["b"])
        cache.insert(b"c", paths["c"])
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.lookup(b"a") is None  # the oldest went first
        assert cache.lookup(b"b") is paths["b"]
        assert cache.lookup(b"c") is paths["c"]

    def test_lookup_refreshes_recency(self):
        cache = cache_of(capacity=2)
        paths = {tag: established_path() for tag in "abc"}
        cache.insert(b"a", paths["a"])
        cache.insert(b"b", paths["b"])
        assert cache.lookup(b"a") is paths["a"]  # refresh: b is now LRU
        cache.insert(b"c", paths["c"])
        assert cache.lookup(b"b") is None
        assert cache.lookup(b"a") is paths["a"]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FlowCache(capacity=0)


class TestInvalidation:
    def test_path_delete_purges_synchronously(self):
        cache = cache_of()
        path = established_path()
        cache.insert(b"a", path)
        path.delete()
        assert cache.lookup(b"a") is None
        assert cache.invalidations == 1
        # The purge happened through delete(), not through a stale hit.
        assert cache.stale_hits == 0

    def test_invalidate_path_removes_every_key(self):
        cache = cache_of()
        path = established_path()
        other = established_path()
        cache.insert(b"a", path)
        cache.insert(b"b", path)
        cache.insert(b"c", other)
        assert cache.invalidate_path(path) == 2
        assert cache.lookup(b"a") is None
        assert cache.lookup(b"b") is None
        assert cache.lookup(b"c") is other

    def test_stale_entry_evicted_on_lookup(self):
        """Defense in depth: a path deleted behind the cache's back (the
        registration bypassed somehow) is still never handed out."""
        cache = cache_of()
        path = established_path()
        cache.insert(b"a", path)
        path.state = DELETED  # bypass delete() and its purge
        assert cache.lookup(b"a") is None
        assert cache.stale_hits == 1
        assert len(cache) == 0  # evicted on the spot

    def test_clear_drops_everything(self):
        cache = cache_of()
        for tag in (b"a", b"b"):
            cache.insert(tag, established_path())
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.lookup(b"a") is None


class TestGroupInvalidation:
    """Bulk invalidation by path-group id — the multipath re-spread and
    failover primitive."""

    def grouped_paths(self, cache, count=2, keys_per_path=2):
        from repro.multipath import PathGroup

        group = PathGroup("round_robin")
        members = [group.add(established_path()) for _ in range(count)]
        tag = ord("a")
        for member in members:
            for _ in range(keys_per_path):
                cache.insert(bytes([tag]), member)
                tag += 1
        return group, members

    def test_invalidate_group_drops_every_members_keys(self):
        cache = cache_of(capacity=8)
        group, members = self.grouped_paths(cache)
        other = established_path()
        cache.insert(b"z", other)
        assert cache.invalidate_group(group.gid) == 4
        assert len(cache) == 1
        assert cache.lookup(b"z") is other
        assert cache.invalidations == 4

    def test_unknown_gid_is_a_noop(self):
        cache = cache_of()
        cache.insert(b"a", established_path())
        assert cache.invalidate_group(999_999) == 0
        assert len(cache) == 1

    def test_invalidate_group_is_idempotent(self):
        cache = cache_of(capacity=8)
        group, _members = self.grouped_paths(cache)
        assert cache.invalidate_group(group.gid) == 4
        assert cache.invalidate_group(group.gid) == 0

    def test_member_delete_unindexes_it_from_the_group(self):
        cache = cache_of(capacity=8)
        group, members = self.grouped_paths(cache)
        members[0].delete()  # purges its own keys synchronously
        # Only the survivor's keys remain for the bulk drop.
        assert cache.invalidate_group(group.gid) == 2
        assert len(cache) == 0

    def test_clear_also_resets_group_index(self):
        cache = cache_of(capacity=8)
        group, _members = self.grouped_paths(cache)
        cache.clear()
        assert cache.invalidate_group(group.gid) == 0

    def test_stale_grouped_entry_counts_a_stale_hit(self):
        """A grouped member deleted behind the cache's back must be
        caught by the lookup-time liveness check, counted, and evicted —
        same defense-in-depth as ungrouped paths."""
        cache = cache_of(capacity=8)
        group, members = self.grouped_paths(cache, count=1, keys_per_path=1)
        members[0].state = DELETED  # bypass delete() and its purge
        assert cache.lookup(b"a") is None
        assert cache.stale_hits == 1
        assert len(cache) == 0


class TestAnnotate:
    def test_annotate_runs_on_hits_only(self):
        seen = []
        cache = FlowCache(capacity=4, key_of=first_byte_key,
                          annotate=lambda msg, key: seen.append(key))
        path = established_path()
        cache.lookup(b"a")  # miss: no annotation
        cache.insert(b"a", path)
        cache.lookup(b"a")  # hit
        assert seen == [b"a"]


class TestFlowKey:
    def setup_method(self):
        self.stack = Fig7Stack()
        self.frame = self.stack.udp_frame(6100)

    def test_udp_frame_is_keyable(self):
        assert flow_key(Msg(self.frame)) is not None

    def test_same_flow_same_key_despite_payload(self):
        a = flow_key(Msg(self.stack.udp_frame(6100, b"x" * 10)))
        b = flow_key(Msg(self.stack.udp_frame(6100, b"y" * 90)))
        assert a == b

    def test_different_port_different_key(self):
        a = flow_key(Msg(self.stack.udp_frame(6100)))
        b = flow_key(Msg(self.stack.udp_frame(6200)))
        assert a != b

    def test_non_ipv4_is_ineligible(self):
        frame = bytearray(self.frame)
        frame[12:14] = b"\x08\x06"  # ARP ethertype
        assert flow_key(Msg(bytes(frame))) is None

    def test_non_udp_is_ineligible(self):
        frame = bytearray(self.frame)
        frame[23] = 6  # TCP
        assert flow_key(Msg(bytes(frame))) is None

    def test_fragment_is_ineligible(self):
        frame = bytearray(self.frame)
        frame[20] |= 0x20  # MF flag
        assert flow_key(Msg(bytes(frame))) is None

    def test_runt_is_ineligible(self):
        assert flow_key(Msg(self.frame[:20])) is None


class TestClassifyIntegration:
    def setup_method(self):
        self.stack = Fig7Stack()
        self.path = self.stack.create_udp_path(local_port=6100)
        self.cache = FlowCache(capacity=8)
        self.stats = ClassifierStats()

    def classify_frame(self, dport=6100):
        msg = Msg(self.stack.udp_frame(dport))
        return classify(self.stack.eth, msg, stats=self.stats,
                        cache=self.cache)

    def test_first_packet_populates_then_hits(self):
        assert self.classify_frame() is self.path
        assert self.stats.cache_hits == 0
        refinements_after_cold = self.stats.refinements
        assert self.classify_frame() is self.path
        assert self.stats.cache_hits == 1
        # The warm lookup never touched the refinement chain.
        assert self.stats.refinements == refinements_after_cold
        assert self.stats.classified == 2

    def test_deleted_path_never_served_from_cache(self):
        assert self.classify_frame() is self.path
        self.path.delete()
        result = self.classify_frame()
        assert result is not self.path
        assert self.cache.hits == 0

"""Tests for the demux flow cache: LRU mechanics, strict invalidation,
and the classify() integration (cache consulted before the chain)."""

import pytest

from repro.core import (
    BWD,
    ClassifierStats,
    DELETED,
    FlowCache,
    Msg,
    Path,
    classify,
    flow_key,
)
from repro.core.specialize import FLOW_VALIDATED
from repro.experiments.micro import Fig7Stack
from repro.kernel import ScoutKernel
from repro.net import EthAddr, IpAddr, build_udp_frame
from repro.sim import SimWorld


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


class TestGroupInvalidation:
    """``PathGroup.purge_pins`` — the multipath re-spread and failover
    primitive — over the one per-path purge verb."""

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

    def test_purge_pins_drops_every_members_keys(self):
        cache = cache_of(capacity=8)
        group, members = self.grouped_paths(cache)
        other = established_path()
        cache.insert(b"z", other)
        assert group.purge_pins() == 4
        assert len(cache) == 1
        assert cache.lookup(b"z") is other
        assert cache.invalidations == 4

    def test_purge_pins_without_pins_is_a_noop(self):
        from repro.multipath import PathGroup

        cache = cache_of()
        cache.insert(b"a", established_path())
        group = PathGroup("round_robin")
        group.add(established_path())
        assert group.purge_pins() == 0
        assert len(cache) == 1
        assert cache.invalidations == 0

    def test_purge_pins_is_idempotent(self):
        cache = cache_of(capacity=8)
        group, _members = self.grouped_paths(cache)
        assert group.purge_pins() == 4
        assert group.purge_pins() == 0
        assert cache.invalidations == 4

    def test_member_delete_unindexes_it_from_the_group(self):
        cache = cache_of(capacity=8)
        group, members = self.grouped_paths(cache)
        members[0].delete()  # purges its own keys synchronously
        assert cache.invalidations == 2
        # The deleted member's keys are already gone: only the
        # survivor's remain for the group purge.
        assert group.purge_pins() == 2
        assert len(cache) == 0
        assert cache.invalidations == 4

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


def msg_key(msg):
    return msg.peek(1) if len(msg) else None


class TestAnnotate:
    """The hook runs once per entry, at insert, against a blank ``meta``;
    every hit copies what it wrote into the hit's own ``meta``."""

    def annotated_cache(self, capacity=4):
        runs = []

        def annotate(msg, key):
            runs.append(key)
            msg.meta["flow"] = key
            msg.meta["generation"] = len(runs)
            msg.meta[FLOW_VALIDATED] = True

        return FlowCache(capacity=capacity, key_of=msg_key,
                         annotate=annotate), runs

    def test_annotate_runs_once_per_entry_at_insert(self):
        cache, runs = self.annotated_cache()
        path = established_path()
        first = Msg(b"a0", meta={"rx_time": 1.0})
        assert cache.lookup(first) is None  # miss: no annotation
        assert runs == []
        cache.insert(first, path)
        assert runs == [b"a"]
        # The hook wrote a blank meta, not the message that walked the
        # chain: it takes no stamp it did not earn.
        assert first.meta == {"rx_time": 1.0}
        hits = [Msg(b"a%d" % i, meta={"rx_time": 2.0}) for i in range(1, 4)]
        assert all(cache.lookup(m) is path for m in hits)
        assert runs == [b"a"]
        assert all(m.meta == {"rx_time": 2.0, "flow": b"a", "generation": 1,
                              FLOW_VALIDATED: True} for m in hits)

    def test_popping_a_stamp_leaves_the_next_hit_intact(self):
        cache, runs = self.annotated_cache()
        path = established_path()
        cache.insert(Msg(b"a0"), path)
        first, second = Msg(b"a1"), Msg(b"a2")
        cache.lookup(first)
        assert first.meta.pop(FLOW_VALIDATED) is True
        cache.lookup(second)
        assert second.meta[FLOW_VALIDATED] is True
        assert FLOW_VALIDATED not in first.meta
        assert len(runs) == 1

    @pytest.mark.parametrize("drop", ["evict", "invalidate"])
    def test_a_dropped_key_rederives_its_annotations(self, drop):
        cache, runs = self.annotated_cache(capacity=1)
        path = established_path()
        cache.insert(Msg(b"a0"), path)
        warm = Msg(b"a1")
        assert cache.lookup(warm) is path
        if drop == "evict":
            cache.insert(Msg(b"b0"), established_path())
            assert cache.evictions == 1
            expected = [b"a", b"b", b"a"]
        else:
            path.delete()
            path = established_path()
            expected = [b"a", b"a"]
        assert cache.lookup(Msg(b"a2")) is None
        cache.insert(Msg(b"a3"), path)
        assert runs == expected
        hit = Msg(b"a4")
        assert cache.lookup(hit) is path
        assert (warm.meta["generation"], hit.meta["generation"]) \
            == (1, len(expected))


class TestKernelAnnotations:
    """The Scout kernel's hook fixes what the flow key determines; ETH's
    source MAC, which the key does not cover, is read per frame."""

    def test_source_mac_change_on_a_warm_key_reports_the_new_mac(self):
        world = SimWorld(seed=1)
        kernel = ScoutKernel(world, world.new_segment(), udp_sink=True,
                             display=False)
        kernel.arp.add_entry("10.0.0.2", "02:00:00:00:00:02")
        path = kernel.start_udp_sink(6000, remote=("10.0.0.2", 7000))
        hook, runs = kernel.flow_cache.annotate, []

        def counting(msg, key):
            runs.append(key)
            hook(msg, key)

        kernel.flow_cache.annotate = counting
        macs = [EthAddr("02:00:00:00:00:%02x" % i) for i in (2, 3, 4)]
        frames = [build_udp_frame(mac, kernel.device.mac, IpAddr("10.0.0.2"),
                                  IpAddr("10.0.0.1"), 7000, 6000, b"x")
                  for mac in macs]
        kernel.rx_burst(frames[:1])  # miss: ETH's demux records the MAC
        kernel.rx_burst(frames[1:2])  # hit, burst receive
        kernel.device.rx_handler(frames[2])  # hit, per-frame receive
        assert kernel.flow_cache.hits == 2 and len(runs) == 1
        queued = list(path.input_queue(BWD))
        assert [m.meta["eth_src"] for m in queued] == macs
        for msg in queued[1:]:
            assert msg.meta["ip_src"] == IpAddr("10.0.0.2")
            assert msg.meta["udp_ports"] == (7000, 6000)
            assert msg.meta[FLOW_VALIDATED] is True

    def test_alternating_source_macs_on_a_warm_key_keep_their_own(self):
        """The source MAC is not in the flow key, so admission reads it
        from each hit's own frame: two MACs alternating on one warm flow
        key must each reach the sink on their own frames."""
        world = SimWorld(seed=1)
        kernel = ScoutKernel(world, world.new_segment(), udp_sink=True,
                             display=False)
        kernel.arp.add_entry("10.0.0.2", "02:00:00:00:00:02")
        kernel.start_udp_sink(6000, remote=("10.0.0.2", 7000), batch=4,
                              specialize=True)
        macs = [EthAddr("02:00:00:00:00:02"), EthAddr("02:00:00:00:00:03")]
        frames = [build_udp_frame(macs[i % 2], kernel.device.mac,
                                  IpAddr("10.0.0.2"), IpAddr("10.0.0.1"),
                                  7000, 6000, b"frame%02d" % i)
                  for i in range(12)]
        kernel.rx_burst(frames[:1])  # miss: warms the key
        kernel.rx_burst(frames[1:7])
        for frame in frames[7:]:
            kernel.device.rx_handler(frame)
        world.run_until_idle()
        assert kernel.flow_cache.hits == 11
        delivered = kernel.test.received
        assert [m.to_bytes() for m in delivered] == \
            [b"frame%02d" % i for i in range(12)]
        assert [m.meta["eth_src"].to_bytes() for m in delivered] == \
            [frame[6:12] for frame in frames]


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

    @pytest.mark.parametrize("dst", ["ff:ff:ff:ff:ff:ff",
                                     "01:00:5e:00:00:01"],
                             ids=["broadcast", "multicast"])
    def test_group_addressed_frame_is_ineligible(self, dst):
        """A group address is the same on every NIC, so it cannot key a
        flow per ingress port."""
        frame = EthAddr(dst).to_bytes() + self.frame[6:]
        assert flow_key(Msg(frame)) is None


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

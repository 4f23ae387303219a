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
    flow_key_frame,
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


def lookup(cache, key):
    """Probe *cache* under the toy *key*, for a message carrying it."""
    return cache.lookup(key, Msg(key))


def insert(cache, key, path):
    return cache.insert(key, Msg(key), path)


def cache_of(capacity=4):
    return FlowCache(capacity=capacity)


class TestLookupInsert:
    def test_miss_then_insert_then_hit(self):
        cache = cache_of()
        path = established_path()
        assert lookup(cache, b"a") is None
        assert cache.misses == 1
        assert insert(cache, b"a", path)
        assert lookup(cache, b"a") is path
        assert cache.hits == 1
        assert len(cache) == 1

    def test_ineligible_messages_bypass_entirely(self):
        stack = Fig7Stack()
        stack.create_udp_path(local_port=6100)
        cache = cache_of()
        tcp = bytearray(stack.udp_frame(6100))
        tcp[23] = 6
        for frame in (bytes(tcp), stack.udp_frame(6100)[:20]):
            assert classify(stack.eth, Msg(frame), cache=cache) is None
        # An ineligible message is not even a miss: the classifier never
        # consulted the cache, so counters and contents stay untouched.
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)

    def test_only_established_paths_admitted(self):
        cache = cache_of()
        creating = Path()  # state == CREATING
        assert not insert(cache, b"a", creating)
        assert len(cache) == 0

    def test_reinsert_same_key_different_path_replaces(self):
        cache = cache_of()
        old, new = established_path(), established_path()
        insert(cache, b"a", old)
        insert(cache, b"a", new)
        assert lookup(cache, b"a") is new
        old.delete()  # invalidating the old path must not remove "a"
        assert lookup(cache, b"a") is new


class TestLRU:
    def test_capacity_bound_evicts_least_recently_used(self):
        cache = cache_of(capacity=2)
        paths = {tag: established_path() for tag in "abc"}
        insert(cache, b"a", paths["a"])
        insert(cache, b"b", paths["b"])
        insert(cache, b"c", paths["c"])
        assert len(cache) == 2
        assert cache.evictions == 1
        assert lookup(cache, b"a") is None  # the oldest went first
        assert lookup(cache, b"b") is paths["b"]
        assert lookup(cache, b"c") is paths["c"]

    def test_lookup_refreshes_recency(self):
        cache = cache_of(capacity=2)
        paths = {tag: established_path() for tag in "abc"}
        insert(cache, b"a", paths["a"])
        insert(cache, b"b", paths["b"])
        assert lookup(cache, b"a") is paths["a"]  # refresh: b is now LRU
        insert(cache, b"c", paths["c"])
        assert lookup(cache, b"b") is None
        assert lookup(cache, b"a") is paths["a"]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FlowCache(capacity=0)


class TestInvalidation:
    def test_path_delete_purges_synchronously(self):
        cache = cache_of()
        path = established_path()
        insert(cache, b"a", path)
        path.delete()
        assert lookup(cache, b"a") is None
        assert cache.invalidations == 1
        # The purge happened through delete(), not through a stale hit.
        assert cache.stale_hits == 0

    def test_invalidate_path_removes_every_key(self):
        cache = cache_of()
        path = established_path()
        other = established_path()
        insert(cache, b"a", path)
        insert(cache, b"b", path)
        insert(cache, b"c", other)
        assert cache.invalidate_path(path) == 2
        assert lookup(cache, b"a") is None
        assert lookup(cache, b"b") is None
        assert lookup(cache, b"c") is other

    def test_stale_entry_evicted_on_lookup(self):
        """Defense in depth: a path deleted behind the cache's back (the
        registration bypassed somehow) is still never handed out."""
        cache = cache_of()
        path = established_path()
        insert(cache, b"a", path)
        path.state = DELETED  # bypass delete() and its purge
        assert lookup(cache, b"a") is None
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
                insert(cache, bytes([tag]), member)
                tag += 1
        return group, members

    def test_purge_pins_drops_every_members_keys(self):
        cache = cache_of(capacity=8)
        group, members = self.grouped_paths(cache)
        other = established_path()
        insert(cache, b"z", other)
        assert group.purge_pins() == 4
        assert len(cache) == 1
        assert lookup(cache, b"z") is other
        assert cache.invalidations == 4

    def test_purge_pins_without_pins_is_a_noop(self):
        from repro.multipath import PathGroup

        cache = cache_of()
        insert(cache, b"a", established_path())
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
        assert lookup(cache, b"a") is None
        assert cache.stale_hits == 1
        assert len(cache) == 0


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

        return FlowCache(capacity=capacity, annotate=annotate), runs

    def test_annotate_runs_once_per_entry_at_insert(self):
        cache, runs = self.annotated_cache()
        path = established_path()
        first = Msg(b"a0", meta={"rx_time": 1.0})
        assert cache.lookup(b"a", first) is None  # miss: no annotation
        assert runs == []
        cache.insert(b"a", first, path)
        assert runs == [b"a"]
        # The hook wrote a blank meta, not the message that walked the
        # chain: it takes no stamp it did not earn.
        assert first.meta == {"rx_time": 1.0}
        hits = [Msg(b"a%d" % i, meta={"rx_time": 2.0}) for i in range(1, 4)]
        assert all(cache.lookup(b"a", m) is path for m in hits)
        assert runs == [b"a"]
        assert all(m.meta == {"rx_time": 2.0, "flow": b"a", "generation": 1,
                              FLOW_VALIDATED: True} for m in hits)

    def test_popping_a_stamp_leaves_the_next_hit_intact(self):
        cache, runs = self.annotated_cache()
        path = established_path()
        cache.insert(b"a", Msg(b"a0"), path)
        first, second = Msg(b"a1"), Msg(b"a2")
        cache.lookup(b"a", first)
        assert first.meta.pop(FLOW_VALIDATED) is True
        cache.lookup(b"a", second)
        assert second.meta[FLOW_VALIDATED] is True
        assert FLOW_VALIDATED not in first.meta
        assert len(runs) == 1

    @pytest.mark.parametrize("drop", ["evict", "invalidate"])
    def test_a_dropped_key_rederives_its_annotations(self, drop):
        cache, runs = self.annotated_cache(capacity=1)
        path = established_path()
        cache.insert(b"a", Msg(b"a0"), path)
        warm = Msg(b"a1")
        assert cache.lookup(b"a", warm) is path
        if drop == "evict":
            cache.insert(b"b", Msg(b"b0"), established_path())
            assert cache.evictions == 1
            expected = [b"a", b"b", b"a"]
        else:
            path.delete()
            path = established_path()
            expected = [b"a", b"a"]
        assert cache.lookup(b"a", Msg(b"a2")) is None
        cache.insert(b"a", Msg(b"a3"), path)
        assert runs == expected
        hit = Msg(b"a4")
        assert cache.lookup(b"a", hit) is path
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
    """``flow_key_frame``: what a flow *is*, for the flow cache on raw
    frame bytes and for the kernel that files a ``Msg`` under it."""

    def setup_method(self):
        self.stack = Fig7Stack()
        self.frame = self.stack.udp_frame(6100)

    def test_udp_frame_is_keyable(self):
        assert flow_key_frame(self.frame) is not None

    def test_key_is_the_19_peeked_bytes(self):
        """Destination MAC, IP protocol, IP addresses and UDP ports."""
        key = flow_key_frame(self.frame)
        assert key == self.frame[0:6] + self.frame[23:24] + self.frame[26:38]

    def test_same_flow_same_key_despite_payload(self):
        keys = {flow_key_frame(self.stack.udp_frame(6100, b"p" * n))
                for n in (1, 10, 90, 1000)}
        assert len(keys) == 1 and None not in keys

    def test_different_port_different_key(self):
        keys = {flow_key_frame(self.stack.udp_frame(6100 + port))
                for port in range(32)}
        assert len(keys) == 32

    def test_different_dst_mac_different_key(self):
        other = EthAddr("02:00:00:00:00:99").to_bytes() + self.frame[6:]
        a, b = flow_key_frame(self.frame), flow_key_frame(other)
        assert a is not None and b is not None and a != b

    def test_non_ipv4_is_ineligible(self):
        frame = bytearray(self.frame)
        frame[12:14] = b"\x08\x06"  # ARP ethertype
        assert flow_key_frame(bytes(frame)) is None

    def test_non_udp_is_ineligible(self):
        frame = bytearray(self.frame)
        frame[23] = 6  # TCP
        assert flow_key_frame(bytes(frame)) is None

    def test_fragment_is_ineligible(self):
        frame = bytearray(self.frame)
        frame[20] |= 0x20  # MF flag
        assert flow_key_frame(bytes(frame)) is None

    def test_runt_is_ineligible(self):
        assert flow_key_frame(self.frame[:20]) is None

    @pytest.mark.parametrize("dst", ["ff:ff:ff:ff:ff:ff",
                                     "01:00:5e:00:00:01"],
                             ids=["broadcast", "multicast"])
    def test_group_addressed_frame_is_ineligible(self, dst):
        """A group address is the same on every NIC, so it cannot key a
        flow per ingress port."""
        frame = EthAddr(dst).to_bytes() + self.frame[6:]
        assert flow_key_frame(frame) is None


    @staticmethod
    def sink_kernel():
        """A kernel serving one UDP sink, and a frame of its flow."""
        world = SimWorld(seed=1)
        kernel = ScoutKernel(world, world.new_segment(), udp_sink=True,
                             display=False)
        kernel.arp.add_entry("10.0.0.2", "02:00:00:00:00:02")
        path = kernel.start_udp_sink(6000, remote=("10.0.0.2", 7000))
        frame = bytes(build_udp_frame(
            EthAddr("02:00:00:00:00:02"), kernel.device.mac,
            IpAddr("10.0.0.2"), IpAddr("10.0.0.1"), 7000, 6000, b"x"))
        return kernel, path, frame

    def test_msg_and_frame_forms_agree(self):
        """A frame received as a ``Msg`` is filed in the kernel's flow
        cache under the key computed on its raw bytes."""
        kernel, path, frame = self.sink_kernel()
        kernel.rx_burst([frame])
        cache = kernel.flow_cache
        assert len(cache) == 1
        assert cache.lookup(flow_key_frame(frame), Msg(frame)) is path

    def test_declined_frame_never_reaches_the_cache(self):
        """A frame the key declines is not a hit, not a miss, not an
        entry."""
        kernel, _path, frame = self.sink_kernel()
        tcp = bytearray(frame)
        tcp[23] = 6
        kernel.rx_burst([bytes(tcp)])
        cache = kernel.flow_cache
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)


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

"""PathGroup mechanics and the classifier's demux-boundary dispatch."""

import pytest

from repro.core import ClassifierStats, FlowCache, Msg, Path, classify
from repro.experiments.micro import Fig7Stack
from repro.multipath import (
    MEMBER_ADDED,
    MEMBER_REMOVED,
    PathGroup,
    WeightedAccountingPolicy,
)

PORT = 6100


def established_path() -> Path:
    path = Path()
    path._establish()
    return path


class TestMembership:
    def test_add_sets_backrefs_and_remove_clears_them(self):
        group = PathGroup("round_robin")
        path = established_path()
        group.add(path)
        assert path.group is group
        assert len(group) == 1
        group.remove(path)
        assert path.group is None
        assert len(group) == 0

    def test_add_is_idempotent(self):
        group = PathGroup()
        path = established_path()
        group.add(path)
        group.add(path)
        assert len(group) == 1

    def test_path_cannot_join_two_groups(self):
        first, second = PathGroup(), PathGroup()
        path = established_path()
        first.add(path)
        with pytest.raises(ValueError, match="already belongs"):
            second.add(path)

    def test_deleted_member_removes_itself(self):
        group = PathGroup()
        keeper, dier = established_path(), established_path()
        group.add(keeper)
        group.add(dier)
        dier.delete()
        assert group.members == [keeper]
        assert dier.group is None

    def test_membership_hooks_fire_for_adds_removes_and_deletes(self):
        group = PathGroup()
        events = []
        group.on_change(lambda g, p, event: events.append((p.pid, event)))
        a, b = established_path(), established_path()
        group.add(a)
        group.add(b)
        b.delete()
        group.remove(a)
        assert events == [(a.pid, MEMBER_ADDED), (b.pid, MEMBER_ADDED),
                          (b.pid, MEMBER_REMOVED), (a.pid, MEMBER_REMOVED)]

    def test_live_members_excludes_dead_ones(self):
        group = PathGroup()
        live = group.add(established_path())
        creating = Path()  # not yet established
        # add() bypassed deliberately: enroll a non-established path the
        # way a pool refill might, then check dispatch skips it.
        group.members.append(creating)
        creating.group = group
        assert group.live_members() == [live]


class TestDispatch:
    def test_round_robin_spreads_messages(self):
        group = PathGroup("round_robin")
        members = [group.add(established_path()) for _ in range(3)]
        picks = [group.dispatch(None) for _ in range(3)]
        assert picks == members
        assert group.dispatches == 3

    def test_empty_group_dispatches_none(self):
        group = PathGroup()
        assert group.dispatch(None) is None
        group.note_dispatch_failure()
        assert group.dispatch_failures == 1

    def test_affinity_pins_equal_keys_to_one_member(self):
        group = PathGroup("round_robin", affinity_of=lambda msg: msg["frame"])
        group.add(established_path())
        group.add(established_path())
        first = group.dispatch({"frame": 7})
        # Round-robin would alternate; affinity must override it.
        assert all(group.dispatch({"frame": 7}) is first for _ in range(4))
        other = group.dispatch({"frame": 8})
        assert group.dispatch({"frame": 8}) is other

    def test_affinity_rebinds_when_member_dies(self):
        group = PathGroup("round_robin", affinity_of=lambda msg: msg["frame"])
        a = group.add(established_path())
        group.add(established_path())
        assert group.dispatch({"frame": 1}) is a
        a.delete()
        survivor = group.dispatch({"frame": 1})
        assert survivor is not a
        assert survivor.state == "established"

    def test_affinity_map_is_bounded(self):
        group = PathGroup("round_robin", affinity_of=lambda msg: msg["frame"],
                          affinity_capacity=4)
        group.add(established_path())
        for frame in range(100):
            group.dispatch({"frame": frame})
        assert len(group._affinity) == 4

    def test_none_affinity_key_falls_through_to_policy(self):
        group = PathGroup("round_robin", affinity_of=lambda msg: None)
        members = [group.add(established_path()) for _ in range(2)]
        assert [group.dispatch({}) for _ in range(2)] == members


class TestRespreadDebounce:
    def _imbalanced_group(self, interval):
        group = PathGroup(WeightedAccountingPolicy(respread_ratio=2.0),
                          min_respread_interval=interval)
        hot = group.add(established_path())
        group.add(established_path())
        hot.stats.charge_cycles(1_000_000)
        return group

    def test_non_sticky_group_never_respreads(self):
        group = PathGroup("round_robin")
        group.add(established_path())
        assert not group.take_respread()

    def test_imbalance_triggers_respread(self):
        group = self._imbalanced_group(interval=0)
        assert group.take_respread()
        assert group.respreads == 1

    def test_debounce_blocks_back_to_back_respreads(self):
        group = self._imbalanced_group(interval=10)
        assert group.take_respread()  # initial credit covers the first
        assert not group.take_respread()  # still imbalanced, but debounced
        for _ in range(10):
            group.dispatch(None)
        assert group.take_respread()


class _GroupedStack:
    """A Figure 7 stack with N same-port paths enrolled in one group."""

    def __init__(self, members=3, policy="round_robin", cache=None, **kwargs):
        self.stack = Fig7Stack()
        self.group = PathGroup(policy, **kwargs)
        self.members = [self.group.add(self.stack.create_udp_path(PORT))
                        for _ in range(members)]
        self.cache = cache
        self.stats = ClassifierStats()

    def classify_frame(self):
        msg = Msg(self.stack.udp_frame(PORT))
        return classify(self.stack.eth, msg, stats=self.stats,
                        cache=self.cache)


class TestClassifierDispatch:
    def test_demux_resolves_through_the_group(self):
        grouped = _GroupedStack(members=3)
        picks = {grouped.classify_frame().pid for _ in range(6)}
        assert picks == {m.pid for m in grouped.members}

    def test_all_live_members_serve_not_just_the_anchor(self):
        grouped = _GroupedStack(members=2, policy="least_loaded")
        anchor = grouped.members[0]
        anchor.q[0].try_enqueue(object())  # load the anchor
        assert grouped.classify_frame() is grouped.members[1]

    def test_no_live_member_is_a_drop_with_reason(self):
        grouped = _GroupedStack(members=2)
        survivor = grouped.members[1]
        grouped.members[0].delete()
        assert grouped.classify_frame() is survivor
        survivor.delete()
        msg = Msg(grouped.stack.udp_frame(PORT))
        # The dead anchor released the port; demux itself now misses.
        assert classify(grouped.stack.eth, msg, stats=grouped.stats) is None
        assert "drop_reason" in msg.meta

    def test_non_sticky_hit_redispatches_through_policy(self):
        cache = FlowCache()
        grouped = _GroupedStack(members=2, policy="round_robin", cache=cache)
        first = grouped.classify_frame()  # miss: walks chain, caches anchor
        second = grouped.classify_frame()  # hit: re-dispatched
        third = grouped.classify_frame()
        assert cache.hits == 2
        assert first is not second  # round-robin visible through the cache
        assert third is first

    def test_sticky_hit_rides_the_pin(self):
        cache = FlowCache()
        grouped = _GroupedStack(members=2,
                                policy=WeightedAccountingPolicy(),
                                min_respread_interval=1_000_000)
        grouped.cache = cache
        pinned = grouped.classify_frame()
        assert all(grouped.classify_frame() is pinned for _ in range(5))
        assert cache.hits == 5
        assert grouped.group.dispatches == 1  # only the initial placement

    def test_sticky_respread_invalidates_pins_and_replaces(self):
        cache = FlowCache()
        grouped = _GroupedStack(
            members=2, policy=WeightedAccountingPolicy(respread_ratio=2.0),
            cache=cache, min_respread_interval=0)
        pinned = grouped.classify_frame()
        other = next(m for m in grouped.members if m is not pinned)
        # Make the pinned member look expensive: the policy must move the
        # flow on its next packet.
        pinned.stats.charge_cycles(1_000_000)
        replacement = grouped.classify_frame()
        assert replacement is other
        assert grouped.group.respreads == 1
        assert cache.invalidations >= 1


class TestGroupMetrics:
    def test_counters_mirror_into_registry(self):
        from repro.observe.metrics import MetricsRegistry

        registry = MetricsRegistry()
        group = PathGroup("round_robin", name="g")
        group.bind_metrics(registry)
        group.add(established_path())
        group.dispatch(None)
        group.note_dispatch_failure()
        labels = {"group": "g", "policy": "round_robin"}
        assert registry.total("multipath_dispatches_total", **labels) == 1
        assert registry.total("multipath_dispatch_failures_total",
                              **labels) == 1

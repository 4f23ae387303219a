"""Axiom conformance for selection policies.

Every PathGroup policy, whatever its load signal, must satisfy two
behavioural axioms the adversarial harness leans on:

* **stability** — under constant load (no member's signal changes
  between selections) the policy's decision does not oscillate: it
  either sticks to one member (load-aware policies) or spreads uniformly
  by design (round-robin);
* **monotonicity** — making a member strictly *more* attractive (its
  load drops, all else equal) never makes the policy abandon it, and a
  member whose load falls strictly below the incumbent's (beyond any
  hysteresis) is adopted.

These are exactly the properties the ``group_chaser`` adversary attacks:
a policy violating them can be driven into per-message oscillation by
crafted load deltas.
"""

import pytest

from repro.core import Path
from repro.multipath import (
    DeadlineSlackPolicy,
    LeastLoadedPolicy,
    PathGroup,
    RoundRobinPolicy,
    WeightedAccountingPolicy,
    bottleneck_depth,
)


def established_path() -> Path:
    path = Path()
    path._establish()
    return path


def with_depth(path: Path, depth: int) -> Path:
    while bottleneck_depth(path) < depth:
        path.q[0].try_enqueue(object())
    return path


def drain_to(path: Path, depth: int) -> None:
    while bottleneck_depth(path) > depth:
        path.q[0].dequeue()


class TestStabilityUnderConstantLoad:
    """No load signal changes => the decision stream does not oscillate."""

    def test_least_loaded_is_constant(self):
        members = [with_depth(established_path(), d) for d in (4, 2, 7)]
        policy = LeastLoadedPolicy()
        picks = {policy.select(members, None) for _ in range(20)}
        assert picks == {members[1]}

    def test_least_loaded_with_hysteresis_is_constant(self):
        members = [with_depth(established_path(), d) for d in (4, 2, 7)]
        policy = LeastLoadedPolicy(hysteresis=2)
        picks = {policy.select(members, None) for _ in range(20)}
        assert picks == {members[1]}
        assert policy.switches == 0

    def test_deadline_slack_is_constant(self):
        members = [established_path() for _ in range(3)]
        for path, deadline in zip(members, (500.0, 9_000.0, 2_000.0)):
            path.attrs["_edf_deadline_fn"] = (
                lambda deadline=deadline: deadline)
        policy = DeadlineSlackPolicy()
        picks = {policy.select(members, None) for _ in range(20)}
        assert picks == {members[1]}  # most slack

    def test_weighted_accounting_is_constant(self):
        members = [established_path() for _ in range(3)]
        for path, cycles in zip(members, (900.0, 100.0, 400.0)):
            path.stats.charge_cycles(cycles)
        policy = WeightedAccountingPolicy()
        picks = {policy.select(members, None) for _ in range(20)}
        assert picks == {members[1]}  # fewest cycles charged

    def test_round_robin_spreads_uniformly(self):
        """Round-robin's stability is distributional: over N*k selections
        every member is picked exactly k times."""
        members = [established_path() for _ in range(4)]
        policy = RoundRobinPolicy()
        picks = [policy.select(members, None) for _ in range(4 * 5)]
        for member in members:
            assert picks.count(member) == 5


class TestMonotonicityWhenLoadDrops:
    """A member getting strictly better is never abandoned for it."""

    @pytest.mark.parametrize("hysteresis", [0, 2])
    def test_incumbents_improvement_never_loses_it(self, hysteresis):
        first = with_depth(established_path(), 3)
        second = with_depth(established_path(), 6)
        policy = LeastLoadedPolicy(hysteresis=hysteresis)
        members = [first, second]
        assert policy.select(members, None) is first
        drain_to(first, 1)  # the chosen member's load drops
        assert policy.select(members, None) is first

    def test_clear_improvement_of_rival_is_adopted(self):
        first = with_depth(established_path(), 3)
        second = with_depth(established_path(), 6)
        policy = LeastLoadedPolicy(hysteresis=2)
        members = [first, second]
        assert policy.select(members, None) is first
        drain_to(second, 0)  # now better by 3 > hysteresis
        assert policy.select(members, None) is second
        assert policy.switches == 1

    def test_weighted_accounting_adopts_cheaper_member(self):
        cheap, dear = established_path(), established_path()
        cheap.stats.charge_cycles(100.0)
        dear.stats.charge_cycles(500.0)
        policy = WeightedAccountingPolicy()
        assert policy.select([cheap, dear], None) is cheap
        # The dear member idles while cheap works: ordering flips only
        # when the signal actually crosses.
        cheap.stats.charge_cycles(600.0)
        assert policy.select([cheap, dear], None) is dear


class TestHysteresisDampsOscillation:
    """The group_chaser failure mode: sub-threshold load deltas must not
    flip the decision; deltas beyond the threshold must."""

    def test_small_imbalance_does_not_flip(self):
        first = with_depth(established_path(), 2)
        second = with_depth(established_path(), 3)
        policy = LeastLoadedPolicy(hysteresis=2)
        members = [first, second]
        assert policy.select(members, None) is first
        # The adversary shifts one message of load onto the incumbent.
        with_depth(first, 4)
        assert bottleneck_depth(first) - bottleneck_depth(second) == 1
        assert policy.select(members, None) is first  # within hysteresis
        assert policy.switches == 0

    def test_oscillating_load_without_hysteresis_flips_every_time(self):
        """The baseline the damping exists for: hysteresis=0 chases every
        crafted one-message imbalance."""
        first = with_depth(established_path(), 2)
        second = with_depth(established_path(), 3)
        policy = LeastLoadedPolicy()
        members = [first, second]
        flips = 0
        previous = None
        for round_number in range(10):
            shallow = members[round_number % 2]
            deep = members[1 - round_number % 2]
            drain_to(shallow, 1)
            with_depth(deep, 3)
            chosen = policy.select(members, None)
            assert chosen is shallow
            if previous is not None and chosen is not previous:
                flips += 1
            previous = chosen
        assert flips == 9  # every crafted delta flipped the decision

    def test_same_oscillation_with_hysteresis_never_flips(self):
        first = with_depth(established_path(), 2)
        second = with_depth(established_path(), 3)
        policy = LeastLoadedPolicy(hysteresis=2)
        members = [first, second]
        picks = set()
        for round_number in range(10):
            shallow = members[round_number % 2]
            deep = members[1 - round_number % 2]
            drain_to(shallow, 1)
            with_depth(deep, 3)
            picks.add(policy.select(members, None))
        assert len(picks) == 1  # the crafted +-2 swing never flipped it
        assert policy.switches == 0

    def test_dead_incumbent_is_replaced(self):
        """Hysteresis never pins to a member that left the group."""
        first = with_depth(established_path(), 1)
        second = with_depth(established_path(), 2)
        policy = LeastLoadedPolicy(hysteresis=4)
        assert policy.select([first, second], None) is first
        assert policy.select([second], None) is second

    def test_validation(self):
        with pytest.raises(ValueError):
            LeastLoadedPolicy(hysteresis=-1)


class TestGroupLevelStability:
    def test_dispatch_under_constant_load_sticks(self):
        group = PathGroup(LeastLoadedPolicy(hysteresis=2), name="axiom")
        members = [group.add(with_depth(established_path(), d))
                   for d in (3, 1)]
        picks = {group.dispatch(object()) for _ in range(25)}
        assert picks == {members[1]}
        assert group.policy.switches == 0

"""Differential parity: sharding must be observably invisible.

The fabric's core claim is that flow-hash dispatch changes *where* a
flow runs, never *what happens to it*: the same seeded workload pushed
through one kernel and through ``ShardedKernel(shards=4)`` must yield
byte-identical per-flow payload streams and exactly-equal merged drop
ledgers.  This is the shard analogue of the specialized-tier
differential suite (``tests/specialize/test_differential.py``): equal,
not merely close.

Why this holds: every flow rides exactly one kernel in both
configurations, each ``offer`` runs its shards to quiescence before the
next, and per-path input-queue overflow depends only on that flow's own
frames — so a flow's fate sequence is a function of its frames and its
sink parameters, not of which shard it shares with whom.
"""

import pytest

from repro.core import flow_key_frame
from repro.faults.adversary import DELIVERED
from repro.shard import ShardedKernel

from .conftest import fabric_ports, interleaved_workload, udp_frame


def run_fabric(shards: int, flows: int, offers, **kwargs) -> ShardedKernel:
    fabric = ShardedKernel(shards=shards, ports=fabric_ports(flows),
                           **kwargs)
    for frames in offers:
        fabric.offer(frames)
    fabric.finish()
    return fabric


def assert_fabrics_agree(baseline: ShardedKernel, sharded: ShardedKernel):
    assert baseline.flow_streams.keys() == sharded.flow_streams.keys()
    for key in baseline.flow_streams:
        assert baseline.flow_streams[key] == sharded.flow_streams[key], \
            f"flow {key.hex()} payload streams diverge"
    books_a = baseline.finish()
    books_b = sharded.finish()
    assert books_a.ledger.counts() == books_b.ledger.counts()
    assert books_a.ok and books_b.ok


class TestCleanWorkloadParity:
    def test_one_vs_four_shards(self):
        offers = [interleaved_workload(8, 6, start=i * 48)
                  for i in range(4)]
        assert_fabrics_agree(run_fabric(1, 8, offers, batch=8),
                             run_fabric(4, 8, offers, batch=8))

    def test_delivery_totals(self):
        offers = [interleaved_workload(8, 6, start=i * 48)
                  for i in range(4)]
        fabric = run_fabric(4, 8, offers, batch=8)
        assert fabric.finish().ledger.counts() == {
            DELIVERED: 8 * 6 * 4}

    def test_unbatched_sinks_agree_too(self):
        offers = [interleaved_workload(5, 4, start=i * 20)
                  for i in range(2)]
        assert_fabrics_agree(run_fabric(1, 5, offers, batch=1),
                             run_fabric(4, 5, offers, batch=1))


class TestOverloadParity:
    """Parity must survive drops, not just clean delivery."""

    def test_overflowing_workload_drops_identically(self):
        # 24-frame bursts per flow into 16-deep per-flow inqs: part of
        # every burst overflows, and exactly the same frames must
        # overflow in both configurations.
        offers = [interleaved_workload(16, 1, burst_len=24, start=i * 384)
                  for i in range(3)]
        baseline = run_fabric(1, 16, offers, batch=8, inq_len=16)
        sharded = run_fabric(4, 16, offers, batch=8, inq_len=16)
        counts = baseline.finish().ledger.counts()
        assert counts.get("inq_overflow", 0) > 0, \
            "workload failed to provoke any overflow drops"
        assert_fabrics_agree(baseline, sharded)

    def test_two_vs_four_shards(self):
        offers = [interleaved_workload(12, 1, burst_len=24, start=i * 288)
                  for i in range(2)]
        assert_fabrics_agree(
            run_fabric(2, 12, offers, batch=4, inq_len=16),
            run_fabric(4, 12, offers, batch=4, inq_len=16))


class TestSpecializedTierParity:
    """The specialized execution tier engages per-shard and must not
    perturb parity: the reference walk and the fused functions are
    pinned explicitly against each other."""

    def test_specialized_vs_interpreted_fabric(self):
        offers = [interleaved_workload(6, 8, start=i * 48)
                  for i in range(3)]
        assert_fabrics_agree(
            run_fabric(4, 6, offers, batch=8, specialize=False),
            run_fabric(4, 6, offers, batch=8, specialize=True))

    def test_specialized_one_vs_four(self):
        offers = [interleaved_workload(6, 8, start=i * 48)
                  for i in range(3)]
        assert_fabrics_agree(
            run_fabric(1, 6, offers, batch=8, specialize=True),
            run_fabric(4, 6, offers, batch=8, specialize=True))


class TestRebalanceParity:
    def test_rebalanced_flow_stream_unchanged(self):
        key = flow_key_frame(udp_frame(3, 0))
        offers = [interleaved_workload(8, 4, start=i * 32)
                  for i in range(2)]

        plain = run_fabric(4, 8, offers, batch=8)

        moved = ShardedKernel(shards=4, batch=8, ports=fabric_ports(8))
        moved.offer(offers[0])
        home = moved.dispatcher.shard_for_key(key)
        moved.rebalance(key, (home + 1) % 4)
        moved.offer(offers[1])
        moved.finish()

        assert_fabrics_agree(plain, moved)
        assert moved.dispatcher.pins[key] == (home + 1) % 4

    @pytest.mark.parametrize("bad_shard", [99, -1])
    def test_out_of_range_rebalance_leaves_fabric_usable(self, bad_shard):
        """A rejected rebalance must not poison the dispatcher: the pin
        is unchanged, the flow keeps delivering, the books close."""
        key = flow_key_frame(udp_frame(3, 0))
        fabric = ShardedKernel(shards=4, batch=8, ports=fabric_ports(8))
        fabric.offer(interleaved_workload(8, 4))
        home = fabric.dispatcher.shard_for_key(key)
        cached = fabric.workers[home].kernel.flow_cache.invalidations

        with pytest.raises(ValueError):
            fabric.rebalance(key, bad_shard)

        assert key not in fabric.dispatcher.pins
        assert fabric.dispatcher.shard_for_key(key) == home
        assert fabric.workers[home].kernel.flow_cache.invalidations == cached
        fates = fabric.offer(interleaved_workload(8, 4, start=32))
        assert [cat for _, cat, _ in fates] == [DELIVERED] * 32
        assert len(fabric.flow_streams[key]) == 8
        assert fabric.finish().ok


@pytest.mark.parametrize("seed", [0, 7, 1234])
def test_seed_invariance_of_parity(seed):
    offers = [interleaved_workload(8, 5)]
    assert_fabrics_agree(run_fabric(1, 8, offers, batch=8, seed=seed),
                         run_fabric(4, 8, offers, batch=8, seed=seed))

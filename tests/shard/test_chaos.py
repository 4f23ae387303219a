"""Chaos: kill a shard worker mid-storm; the books must stay exact.

The scenario is the ``adv_queue_storm`` profile's traffic shape —
phase-locked bursts of ``w`` frames per flow, hot enough to provoke
queue pressure — with one worker killed between bursts.  Required
outcome (DESIGN.md §17): every flow the dead shard carried is re-pinned
onto a live shard and keeps delivering; every frame that was in flight
to the dead worker is ledgered ``shard_failover`` — exactly those
frames, no more, no fewer; and no frame is ever delivered twice.
"""

from repro.core import flow_key_frame
from repro.faults.adversary import DELIVERED
from repro.faults.plan import PROFILES
from repro.shard import SHARD_FAILOVER, ShardedKernel
from repro.shard.dispatch import shard_of

from .conftest import fabric_ports, interleaved_workload

FLOWS = 12
SHARDS = 4
#: Burst width from the queue-storm adversary profile.
STORM_W = PROFILES["adv_queue_storm"].adversary.w


def storm_burst(burst_index: int):
    """One phase-locked burst: every flow fires ``w`` frames back to back."""
    return interleaved_workload(FLOWS, 1, burst_len=STORM_W,
                                start=burst_index * FLOWS * STORM_W)


class TestKillOneShard:
    def run_storm_with_kill(self):
        fabric = ShardedKernel(shards=SHARDS, batch=8,
                               ports=fabric_ports(FLOWS),
                               inq_len=2 * STORM_W)
        victim = 1
        victim_flows = {flow for flow in range(FLOWS)
                        if shard_of(flow_key_frame(
                            storm_burst(0)[flow * STORM_W]),
                            SHARDS) == victim}
        assert victim_flows, "hash placed no flows on the victim shard"

        fabric.offer(storm_burst(0))         # warm: all shards deliver
        fabric.kill_shard(victim)
        doomed = storm_burst(1)              # in flight when death detected
        fates = fabric.offer(doomed)
        fabric.offer(storm_burst(2))         # rerouted traffic delivers
        books = fabric.finish()
        return fabric, books, fates, victim, victim_flows

    def test_failover_exactness(self):
        fabric, books, fates, victim, victim_flows = \
            self.run_storm_with_kill()

        # 1. the ledgered failover serials are exactly the doomed frames
        expected_failover = len(victim_flows) * STORM_W
        counts = books.ledger.counts()
        assert counts.get(SHARD_FAILOVER, 0) == expected_failover
        assert sum(1 for _, cat, _ in fates
                   if cat == SHARD_FAILOVER) == expected_failover

        # 2. every live flow re-pinned off the dead shard
        assert fabric.dispatcher.dead == {victim}
        for flow_key in fabric.dispatcher.flows_on_shard[victim]:
            assert fabric.dispatcher.pins[flow_key] != victim
            assert fabric.dispatcher.pins[flow_key] not in \
                fabric.dispatcher.dead

        # 3. no double delivery, no leaks, conservation holds
        assert books.ledger.double_counted == []
        assert books.reconciliation["leaks"] == []
        assert books.reconciliation["conserved"]
        assert books.ok

        # 4. totals: 3 bursts injected, one burst of the victim's flows
        #    failed over, everything else delivered
        injected = 3 * FLOWS * STORM_W
        assert books.reconciliation["injected"] == injected
        assert counts[DELIVERED] == injected - expected_failover

    def test_orphaned_flows_keep_delivering(self):
        fabric, _books, _fates, victim, victim_flows = \
            self.run_storm_with_kill()
        # Each flow delivered its first and third bursts; the victim's
        # flows lost exactly the middle one.
        for key, stream in fabric.flow_streams.items():
            flow_bursts = len(stream) // STORM_W
            if shard_of(key, SHARDS) == victim:
                assert flow_bursts == 2
            else:
                assert flow_bursts == 3
            # in-order, duplicate-free payloads
            assert len(set(stream)) == len(stream)
            assert stream == sorted(stream)


def test_kill_then_finish_without_further_traffic():
    """Books must close cleanly even if the dead shard is never probed
    by later traffic (its acked history stays; nothing leaks)."""
    fabric = ShardedKernel(shards=SHARDS, batch=8,
                           ports=fabric_ports(8))
    fabric.offer(interleaved_workload(8, 2))
    fabric.kill_shard(2)
    books = fabric.finish()
    assert books.reconciliation["leaks"] == []
    assert books.reconciliation["conserved"]


def test_control_plane_shards_stay_exact():
    """With per-shard watchdogs + shedder active the books still close
    exactly (bounded-slice quiescence instead of run-until-idle)."""
    fabric = ShardedKernel(shards=2, batch=8,
                           ports=fabric_ports(6), control_plane=True)
    for i in range(3):
        fabric.offer(interleaved_workload(6, 4, start=i * 24))
    books = fabric.finish()
    assert books.ok
    view = books.governor_view()
    assert set(view) == {0, 1}
    for row in view.values():
        assert row["stalls_detected"] == 0

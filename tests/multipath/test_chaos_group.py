"""Chaos acceptance for multipath: a video fanned across a path group
whose members are stalled and rebuilt by watchdogs, with replacements
drawn through a warm pool.  Through all of it the invariant chain —
pool bookkeeping, group membership, flow-cache pins, demux anchor — must
unwind and re-form with zero stale deliveries: the fast path never hands
out a path that is not ESTABLISHED, and drop accounting stays exact.
"""

import pytest

from repro import params
from repro.core.path import ESTABLISHED
from repro.experiments.testbed import Testbed
from repro.faults import PathWatchdog, StageFault, StageFaultInjector
from repro.mpeg.clips import NEPTUNE
from repro.multipath import PathPool

PORT = 6100


@pytest.mark.slow
class TestChaosGroup:
    def test_member_rebuild_drains_pool_group_and_cache_with_zero_stale(self):
        testbed = Testbed(seed=5)
        source = testbed.add_video_source(
            NEPTUNE, dst_port=PORT, seed=5, nframes=90,
            pace_fps=NEPTUNE.fps,
            probe_timeout_us=params.MFLOW_PROBE_TIMEOUT_US)
        kernel = testbed.build_scout(rate_limited_display=False)
        remote = (str(source.ip), source.src_port)
        vgroup = kernel.start_video_group(NEPTUNE, remote, members=3,
                                          group_policy="least_loaded",
                                          local_port=PORT)
        group = vgroup.group

        # Replacement members come out of a warm pool of video paths.
        pool = PathPool(kernel.display, transforms=kernel.transforms,
                        admission=kernel.admission)
        warm_attrs = kernel.build_video_attrs(NEPTUNE, remote,
                                              local_port=PORT)
        pool.prewarm(warm_attrs, count=2)

        # Stall one member's MFLOW stage mid-run.
        victim = vgroup.sessions[0].path
        injector = StageFaultInjector(testbed.world.engine)
        injector.apply(victim,
                       StageFault(router="MFLOW", mode="stall",
                                  start_us=500_000.0))

        def rebuild():
            path = pool.acquire(warm_attrs)
            kernel._attach_video_path(path)
            return path

        watchdog = PathWatchdog(testbed.world.engine, victim, rebuild,
                                group=group).start()

        served_states = []
        inner_lookup = kernel.flow_cache.lookup

        def spying_lookup(key, msg):
            path = inner_lookup(key, msg)
            if path is not None:
                served_states.append(path.state)
            return path

        # Every probe goes through lookup.
        kernel.flow_cache.lookup = spying_lookup

        testbed.start_all()
        testbed.run_until_sources_done(max_seconds=30.0)
        watchdog.stop()

        # The chaos happened: the stalled member was detected, deleted
        # under the watchdog_rebuild category, and replaced from the pool.
        assert watchdog.stalls_detected >= 1
        assert watchdog.rebuilds >= 1
        assert victim.state == "deleted"
        assert victim.stats.drop_reasons.get("watchdog_rebuild", 0) >= 0

        # Group invariants: the dead member removed itself, the pooled
        # replacement was enrolled, capacity is back to three.
        assert victim not in group.members
        assert victim.group is None
        assert len(group.live_members()) == 3
        assert watchdog.path in group.members
        assert watchdog.path.state == ESTABLISHED
        assert group.members_removed >= 1

        # Pool invariants: the warm acquire served the rebuild, and the
        # wedged path was never re-parked.
        assert pool.hits >= 1
        assert all(p is not victim
                   for bucket in pool._idle.values() for p in bucket)

        # Playback survived the repair across the surviving members.
        assert vgroup.frames_presented > 0

        # The headline invariant: the fast path stayed hot and never
        # served anything but an ESTABLISHED path — no stale deliveries
        # through rebuild, re-anchor, and re-pin.
        assert kernel.flow_cache.hits > 0
        assert kernel.flow_cache.invalidations > 0
        assert served_states, "flow cache never consulted under load"
        assert all(state == ESTABLISHED for state in served_states)
        assert kernel.flow_cache.stale_hits == 0

        # Drop-ledger reconciliation: every queued message the teardown
        # discarded is accounted on the dead path, categorized.
        assert victim.stats.drops == sum(victim.stats.drop_reasons.values())

    def test_anchor_death_promotes_sibling_and_traffic_continues(self):
        testbed = Testbed(seed=7)
        source = testbed.add_video_source(NEPTUNE, dst_port=PORT, seed=7,
                                          nframes=60)
        kernel = testbed.build_scout(rate_limited_display=False)
        remote = (str(source.ip), source.src_port)
        vgroup = kernel.start_video_group(NEPTUNE, remote, members=3,
                                          group_policy="round_robin",
                                          local_port=PORT)
        anchor = vgroup.sessions[0].path
        assert kernel.udp._port_paths[PORT] is anchor

        # Kill the anchor a third of the way in; the port binding must
        # move to a live sibling and packets keep classifying.
        def kill():
            kernel.stop_video(vgroup.sessions[0])

        testbed.world.engine.schedule(400_000, kill)
        testbed.start_all()
        testbed.run_until_sources_done(max_seconds=30.0)

        promoted = kernel.udp._port_paths.get(PORT)
        assert promoted is not None and promoted is not anchor
        assert promoted in vgroup.group.live_members()
        survivors = vgroup.sessions[1:]
        assert sum(s.frames_presented for s in survivors) > 0
        assert sum(s.path.stats.messages_bwd for s in survivors) > 0

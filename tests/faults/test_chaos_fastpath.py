"""Chaos acceptance for the demux fast path: a video session whose path
is torn down and rebuilt by the watchdog while the degradation governor's
early-discard knob flips under load.  Through all of it the flow cache
must never serve a stale (non-ESTABLISHED) path — every reconfiguration
invalidates, and the next packet re-walks the full refinement chain.
"""

import pytest

from repro import params
from repro.core.path import ESTABLISHED
from repro.core.path_create import path_create
from repro.experiments.testbed import Testbed
from repro.faults import PathWatchdog, StageFault, StageFaultInjector
from repro.mpeg.clips import NEPTUNE


@pytest.mark.slow
class TestChaosFastPath:
    def test_no_stale_path_served_under_rebuild_and_governor_flips(self):
        testbed = Testbed(seed=3)
        source = testbed.add_video_source(
            NEPTUNE, dst_port=6100, seed=3, nframes=90,
            pace_fps=NEPTUNE.fps,
            probe_timeout_us=params.MFLOW_PROBE_TIMEOUT_US)
        kernel = testbed.build_scout(rate_limited_display=False)
        remote = (str(source.ip), source.src_port)
        session = kernel.start_video(NEPTUNE, remote, local_port=6100)

        injector = StageFaultInjector(testbed.world.engine)
        injector.apply(session.path,
                       StageFault(router="MFLOW", mode="stall",
                                  start_us=500_000.0))

        rebuilt = []

        def rebuild():
            attrs = kernel.build_video_attrs(NEPTUNE, remote,
                                             local_port=6100)
            path = path_create(kernel.display, attrs,
                               transforms=kernel.transforms,
                               admission=kernel.admission)
            rebuilt.append(kernel._attach_video_path(path))
            return path

        watchdog = PathWatchdog(testbed.world.engine, session.path,
                                rebuild).start()

        # Spy on every cache decision: a hit handing out a path in any
        # state but ESTABLISHED would be a stale fast-path delivery.
        served_states = []
        inner_lookup = kernel.flow_cache.lookup

        def spying_lookup(key, msg):
            path = inner_lookup(key, msg)
            if path is not None:
                served_states.append(path.state)
            return path

        # Every probe goes through lookup.
        kernel.flow_cache.lookup = spying_lookup

        # Governor-style early-discard flips on whatever path is live at
        # fire time (the watchdog swaps paths mid-run).
        def flip(modulus):
            kernel.set_frame_skip(watchdog.path, modulus)

        for index, when in enumerate(range(200_000, 2_000_001, 200_000)):
            testbed.world.engine.schedule(
                when, flip, 2 if index % 2 == 0 else 1)

        testbed.start_all()
        testbed.run_until_sources_done(max_seconds=30.0)
        watchdog.stop()

        # The chaos actually happened: a rebuild, resumed playback, and
        # repeated cache invalidation from delete + governor flips.
        assert watchdog.rebuilds >= 1
        assert sum(s.frames_presented for s in rebuilt) > 0
        assert kernel.flow_cache.invalidations > 0
        # The headline invariant: the fast path stayed hot (real hits)
        # and never once served anything but an ESTABLISHED path.
        assert kernel.flow_cache.hits > 0
        assert served_states, "flow cache never consulted under load"
        assert all(state == ESTABLISHED for state in served_states)

"""SimWorld: the bundled substrate a kernel runs on.

Creates the engine, CPU, scheduler (with the two policies the paper
implemented — fixed-priority round-robin and EDF), and a seeded random
generator, wired together.  Kernels and experiments build on this instead
of assembling the pieces by hand.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .cpu import CPU, CPU_MHZ
from .engine import Engine
from .sched import EDF, FixedPriorityRR, Scheduler

#: Policy names used throughout the library.
POLICY_RR = "rr"
POLICY_EDF = "edf"


class SimWorld:
    """Engine + CPU + scheduler + deterministic randomness.

    Parameters
    ----------
    seed:
        Seed for the world's random generator; every experiment is
        deterministic given its seed.
    mhz:
        CPU clock (defaults to the paper's 300 MHz Alpha).
    rr_share, edf_share:
        CPU share for each scheduling policy ("allocates a percentage of
        CPU time to each"); shares only matter when both policies have
        ready threads.
    """

    def __init__(self, seed: int = 0, mhz: float = CPU_MHZ,
                 rr_share: float = 1.0, edf_share: float = 1.0,
                 rr_levels: int = 16):
        self.engine = Engine()
        self.cpu = CPU(self.engine, mhz=mhz)
        self.scheduler = Scheduler(self.engine, self.cpu)
        self.scheduler.add_policy(POLICY_RR, FixedPriorityRR(levels=rr_levels),
                                  share=rr_share)
        self.scheduler.add_policy(POLICY_EDF, EDF(), share=edf_share)
        self.rng = np.random.default_rng(seed)
        self.seed = seed

    @property
    def now(self) -> float:
        return self.engine.now

    def new_segment(self, bandwidth_mbps: Optional[float] = None,
                    latency_us: Optional[float] = None, **kwargs):
        """Create an :class:`~repro.net.segment.EtherSegment` on this
        world's engine (multi-hop topologies make one per link)."""
        from ..net.segment import EtherSegment
        from .. import params

        return EtherSegment(
            self.engine,
            bandwidth_mbps=bandwidth_mbps if bandwidth_mbps is not None
            else params.ETH_BANDWIDTH_MBPS,
            latency_us=latency_us if latency_us is not None
            else params.ETH_LINK_LATENCY_US,
            rng=self.rng, **kwargs)

    def spawn(self, body, name: str = "", policy: str = POLICY_RR,
              priority: int = 0, path=None):
        """Spawn a thread on this world's scheduler."""
        return self.scheduler.spawn(body, name=name, policy=policy,
                                    priority=priority, path=path)

    def run_for(self, duration_us: float) -> None:
        """Advance virtual time by *duration_us*."""
        self.engine.run_until(self.engine.now + duration_us)

    def run_until(self, time_us: float) -> None:
        self.engine.run_until(time_us)

    def run_until_idle(self, max_events: Optional[int] = None) -> int:
        """Drain all pending events (careful with self-perpetuating loads)."""
        return self.engine.run(max_events=max_events)

    def run_ready(self) -> None:
        """Step the engine while a thread is running or ready; stop the
        moment every thread is blocked.

        The wall-clock pump (``Scout.serve``, DESIGN.md §18): events due
        later (reassembly expiry, ARP retry, watchdog ticks) stay in the
        heap, so virtual time advances by charged work only and never
        jumps to a timer.
        """
        idle = self.scheduler.idle
        step = self.engine.step
        while not idle() and step():
            pass

    def __repr__(self) -> str:
        return f"<SimWorld t={self.engine.now:.1f}us seed={self.seed}>"

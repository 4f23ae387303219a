"""Virtual-time substrate: event engine, CPU model, threads, schedulers.

This package stands in for the paper's physical machine (a 300 MHz Alpha
21064).  See DESIGN.md section 2 for why each substitution preserves the
behaviour the experiments depend on.
"""

from .cpu import CPU, CPU_MHZ, cycles_to_us, us_to_cycles
from .engine import Engine, Event
from .sched import EDF, FixedPriorityRR, Policy, Scheduler
from .threads import (
    BLOCKED,
    DONE,
    READY,
    RUNNING,
    YIELD,
    Compute,
    Dequeue,
    DequeueBatch,
    Enqueue,
    Op,
    SimThread,
    Sleep,
    WaitSpace,
)
from .world import POLICY_EDF, POLICY_RR, SimWorld

__all__ = [
    "Engine", "Event",
    "CPU", "CPU_MHZ", "cycles_to_us", "us_to_cycles",
    "Scheduler", "Policy", "FixedPriorityRR", "EDF",
    "SimThread", "Op", "Compute", "Dequeue", "DequeueBatch", "Enqueue", "WaitSpace",
    "Sleep", "YIELD",
    "READY", "RUNNING", "BLOCKED", "DONE",
    "SimWorld", "POLICY_RR", "POLICY_EDF",
]

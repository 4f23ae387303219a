"""Bridge between virtual cycle accounting and wall-clock time.

The kernel keeps its books in *virtual* microseconds on every backend:
``Compute`` charges paths via ``PathStats.charge_cycles`` and advances
``cpu.compute_us`` and the virtual clock.  When ``Scout.serve()`` pumps
that scheduler with real socket traffic the books still fill, but
nothing relates them to the seconds actually elapsing on the machine.
:class:`WallClockBridge` is that relation: a read-only sampler that
pairs the CPU model's virtual charge with ``time.monotonic()``, so a
wall-clock run can report "this load cost N virtual CPU seconds over M
real seconds" — the speed-up (or, under pacing, the slowdown) of the
reproduction relative to the modeled 300 MHz machine.

The bridge deliberately does not *charge* anything — the scheduler
already keeps ``cpu.compute_us`` (DESIGN.md §18), so a second
bookkeeper would be a double-count waiting to happen.  It only reads.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from .metrics import MetricsRegistry

__all__ = ["WallClockBridge"]


class WallClockBridge:
    """Sample virtual CPU charge against real elapsed time.

    Usage::

        bridge = WallClockBridge(world.cpu)
        bridge.start()
        ...  # serve traffic
        snap = bridge.snapshot()
        snap["wall_s"], snap["virtual_cpu_s"], snap["speedup"]
    """

    def __init__(self, cpu) -> None:
        self.cpu = cpu
        self.started_at: Optional[float] = None
        self._virtual_at_start = 0.0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Mark the epoch; idempotent (a second call re-bases)."""
        self.started_at = time.monotonic()
        self._virtual_at_start = self._virtual_us()

    def running(self) -> bool:
        return self.started_at is not None

    # -- sampling ----------------------------------------------------------

    def _virtual_us(self) -> float:
        return self.cpu.compute_us + self.cpu.interrupt_us

    def wall_s(self) -> float:
        """Real seconds since :meth:`start` (0.0 before it)."""
        if self.started_at is None:
            return 0.0
        return time.monotonic() - self.started_at

    def virtual_cpu_s(self) -> float:
        """Virtual CPU seconds charged since :meth:`start`."""
        return (self._virtual_us() - self._virtual_at_start) / 1e6

    def snapshot(self) -> Dict[str, float]:
        """One reconcilable reading: wall vs virtual, plus the ratio.

        ``speedup`` > 1 means the host is replaying the modeled machine
        faster than real time; 0.0 when no wall time has elapsed yet.
        """
        wall = self.wall_s()
        virtual = self.virtual_cpu_s()
        return {
            "wall_s": wall,
            "virtual_cpu_s": virtual,
            "compute_us": self.cpu.compute_us,
            "interrupt_us": self.cpu.interrupt_us,
            "speedup": (virtual / wall) if wall > 0 else 0.0,
        }

    # -- metrics -----------------------------------------------------------

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Expose ``wallclock_{wall_s,virtual_cpu_s,speedup}``, which
        *registry* reads live from a fresh :meth:`snapshot`."""
        def readings():
            snap = self.snapshot()
            return [(f"wallclock_{name}", {}, snap[name])
                    for name in ("wall_s", "virtual_cpu_s", "speedup")]
        registry.collect(readings)

    def __repr__(self) -> str:
        return (f"<WallClockBridge wall={self.wall_s():.3f}s "
                f"virtual={self.virtual_cpu_s():.6f}s>")

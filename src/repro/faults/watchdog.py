"""The path watchdog: detect stalled paths, tear down, rebuild, back off.

Paths make Scout's failure unit explicit: when one path stops producing,
everything needed to replace it — the invariants it was created with —
is recorded in its attribute set, so recovery is "run ``path_create``
again with the same attributes".  The watchdog automates exactly that
loop:

* **heartbeat** — every check interval it samples the path's
  :meth:`~repro.core.path.Path.progress_signature` (output-queue deposits
  plus explicit progress marks) and
  :meth:`~repro.core.path.Path.demand_signature` (input-queue arrivals).
  Work arriving while output stays flat for longer than the stall budget
  is the signature of a hung stage — drops do not count as progress, so a
  path shedding everything it receives is also flagged;
* **repair** — the stalled path is deleted (freeing its queues and port
  bindings) and the caller-supplied ``rebuild`` callback creates its
  replacement, after an exponential backoff that doubles on every
  consecutive repair that fails to restore progress;
* **accounting** — every detection and repair is appended to
  :attr:`events` with virtual timestamps, and the recovery latency
  (detection to first post-rebuild progress) is measured per incident —
  the number ``python -m repro.experiments recovery`` reports.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from .. import params
from ..core.path import DELETED, Path


class PathWatchdog:
    """Virtual-time liveness monitor and repairer for one path.

    Parameters
    ----------
    engine:
        The simulation engine heartbeats run on.
    path:
        The path to watch initially.
    rebuild:
        Zero-argument callable returning a replacement :class:`Path`
        (typically closing over ``path_create`` plus the original
        attributes and whatever thread-spawning the kernel needs).  May
        raise; a failed rebuild retries with further backoff.
    observatory:
        Optional :class:`~repro.observe.Observatory`; when supplied every
        stall / rebuild / recovery is recorded as an incident span and
        recovery latencies feed a histogram, alongside :attr:`events`.
    """

    def __init__(self, engine, path: Path,
                 rebuild: Callable[[], Path],
                 check_interval_us: float = params.WATCHDOG_CHECK_INTERVAL_US,
                 stall_budget_us: float = params.WATCHDOG_STALL_BUDGET_US,
                 backoff_base_us: float = params.WATCHDOG_BACKOFF_BASE_US,
                 backoff_max_us: float = params.WATCHDOG_BACKOFF_MAX_US,
                 observatory=None, flow_cache=None, group=None, pool=None,
                 overload_check: Optional[Callable[[], bool]] = None,
                 min_rebuild_interval_us: Optional[float] = None):
        self.engine = engine
        self.path = path
        self.rebuild = rebuild
        self.observatory = observatory
        #: Optional overload discriminator (e.g. a
        #: :class:`~repro.admission.BackpressureShedder`'s ``shedding``
        #: flag).  A flat progress signature with this returning True is
        #: *overload*, not a stall: adversarial arrival phase can starve
        #: a healthy path of output without any stage being hung, and
        #: tearing it down would only amplify the attack.  The watchdog
        #: then defers (resetting its stall clock) instead of rebuilding
        #: and leaves relief to admission/degradation.
        self.overload_check = overload_check
        #: Hard floor between consecutive rebuilds: however the stall
        #: clock is provoked, the watchdog will not tear the path down
        #: again within this window of the previous rebuild — crafted
        #: arrival phase cannot turn the repair loop into a rebuild
        #: storm.  Defaults to a multiple of the stall budget so the
        #: guard scales with the configured detection timescale.
        #: (Backoff still applies on top for *failed* repairs.)
        self.min_rebuild_interval_us = (
            min_rebuild_interval_us if min_rebuild_interval_us is not None
            else params.WATCHDOG_MIN_REBUILD_FACTOR * stall_budget_us)
        #: Optional :class:`~repro.core.flowcache.FlowCache` to purge on
        #: every stall.  ``Path.delete`` already invalidates the caches a
        #: path is registered with; this covers a cache the stalled path
        #: never reached (e.g. it stalled before its first packet).
        self.flow_cache = flow_cache
        #: Optional :class:`~repro.multipath.PathGroup` the watched path
        #: belongs to: a rebuilt replacement is enrolled automatically,
        #: so group capacity survives watchdog repairs (the stalled
        #: member removes *itself* via its delete hook).
        self.group = group
        #: Optional :class:`~repro.multipath.PathPool`: a stalled path is
        #: reported via ``pool.discard`` so a wedged path can never be
        #: parked and handed out again.
        self.pool = pool
        self.check_interval_us = check_interval_us
        self.stall_budget_us = stall_budget_us
        self.backoff_base_us = backoff_base_us
        self.backoff_max_us = backoff_max_us
        self._timer = None
        self._running = False
        # heartbeat state
        self._last_progress = path.progress_signature()
        self._demand_at_progress = path.demand_signature()
        self._flat_since: Optional[float] = None
        # repair state
        self._consecutive_repairs = 0
        self._stall_detected_at: Optional[float] = None
        self._awaiting_recovery = False
        self._last_rebuild_at: Optional[float] = None
        # accounting
        self.stalls_detected = 0
        self.overload_deferrals = 0
        self.rebuilds_suppressed = 0
        self.rebuilds = 0
        self.rebuild_failures = 0
        self.recovery_latencies_us: List[float] = []
        #: Chronological record of everything the watchdog did.
        self.events: List[Dict[str, Any]] = []

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "PathWatchdog":
        if self._running:
            return self
        self._running = True
        self._schedule_check(self.check_interval_us)
        return self

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # -- heartbeat -----------------------------------------------------------------

    def _schedule_check(self, delay_us: float) -> None:
        if self._running:
            self._timer = self.engine.schedule(delay_us, self._check)

    def _check(self) -> None:
        self._timer = None
        if not self._running:
            return
        path = self.path
        if path.state == DELETED:
            # Deleted behind our back (e.g. stop_video): go dormant until
            # someone swaps in a new path via adopt().
            self._schedule_check(self.check_interval_us)
            return
        progress = path.progress_signature()
        demand = path.demand_signature()
        if progress > self._last_progress:
            self._note_progress(progress, demand)
        elif demand > self._demand_at_progress:
            # Demand advanced, progress flat: the stall clock runs.
            if self._flat_since is None:
                self._flat_since = self.engine.now
            elif self.engine.now - self._flat_since >= self.stall_budget_us:
                if self.overload_check is not None and self.overload_check():
                    # Overload, not a stall: defer to admission /
                    # degradation and restart the stall clock.
                    self.overload_deferrals += 1
                    self._flat_since = None
                    self.events.append({"type": "overload_deferred",
                                        "time_us": self.engine.now,
                                        "pid": path.pid})
                    self._incident("watchdog_overload_deferred",
                                   f"demand={demand} progress={progress}")
                elif (self._last_rebuild_at is not None
                      and self.engine.now - self._last_rebuild_at
                      < self.min_rebuild_interval_us):
                    # Inside the rebuild cool-down: crafted arrival phase
                    # cannot provoke a rebuild storm.  Keep the stall
                    # clock running; if it is a real stall it survives
                    # the cool-down and is repaired then.
                    self.rebuilds_suppressed += 1
                else:
                    self._on_stall(progress, demand)
                    return  # _repair schedules the next check itself
        self._schedule_check(self.check_interval_us)

    def _note_progress(self, progress: int, demand: int) -> None:
        self._last_progress = progress
        self._demand_at_progress = demand
        self._flat_since = None
        if self._awaiting_recovery:
            # First output since the rebuild: the path recovered.
            self._awaiting_recovery = False
            latency = self.engine.now - self._stall_detected_at
            self.recovery_latencies_us.append(latency)
            self._consecutive_repairs = 0
            self.events.append({"type": "recovered",
                                "time_us": self.engine.now,
                                "latency_us": latency,
                                "pid": self.path.pid})
            self._incident("watchdog_recovered",
                           f"latency_us={latency:.1f}")
            if self.observatory is not None:
                self.observatory.metrics.histogram(
                    "watchdog_recovery_latency_us").observe(latency)

    # -- repair -------------------------------------------------------------------------

    def _on_stall(self, progress: int, demand: int) -> None:
        self.stalls_detected += 1
        if not self._awaiting_recovery:
            self._stall_detected_at = self.engine.now
        self.events.append({"type": "stall_detected",
                            "time_us": self.engine.now,
                            "pid": self.path.pid,
                            "progress": progress, "demand": demand})
        self._incident("watchdog_stall",
                       f"progress={progress} demand={demand}")
        backoff = min(self.backoff_base_us * (2 ** self._consecutive_repairs),
                      self.backoff_max_us)
        self._consecutive_repairs += 1
        # Messages still queued on the stalled path are casualties of the
        # repair, not of the original fault: account them under their own
        # category so recovery cost is visible (and reconcilable).
        if self.flow_cache is not None:
            self.flow_cache.invalidate_path(self.path)
        self.path.delete(drop_category="watchdog_rebuild")
        if self.pool is not None:
            # Already deleted above (keeping the drop category); discard
            # just scrubs the pool's bookkeeping so the wedged path can
            # never be re-acquired.
            self.pool.discard(self.path)
        self.engine.schedule(backoff, self._repair)

    def _repair(self) -> None:
        if not self._running:
            return
        try:
            replacement = self.rebuild()
        except Exception as exc:
            self.rebuild_failures += 1
            self.events.append({"type": "rebuild_failed",
                                "time_us": self.engine.now,
                                "error": f"{type(exc).__name__}: {exc}"})
            self._incident("watchdog_rebuild_failed",
                           f"{type(exc).__name__}: {exc}")
            backoff = min(self.backoff_base_us
                          * (2 ** self._consecutive_repairs),
                          self.backoff_max_us)
            self._consecutive_repairs += 1
            self.engine.schedule(backoff, self._repair)
            return
        self.rebuilds += 1
        self._last_rebuild_at = self.engine.now
        self.events.append({"type": "rebuilt", "time_us": self.engine.now,
                            "old_pid": self.path.pid,
                            "new_pid": replacement.pid})
        self._incident("watchdog_rebuilt",
                       f"old=#{self.path.pid} new=#{replacement.pid}")
        if self.group is not None and replacement.group is None:
            # Enroll the replacement so the group regains its capacity
            # (the stalled member already removed itself via its delete
            # hook).  A rebuild callback that enrolled it itself is left
            # alone.
            self.group.add(replacement)
        self.adopt(replacement, awaiting_recovery=True)
        self._schedule_check(self.check_interval_us)

    def adopt(self, path: Path, awaiting_recovery: bool = False) -> None:
        """Point the watchdog at a (new) path and reset its heartbeat."""
        self.path = path
        self._last_progress = path.progress_signature()
        self._demand_at_progress = path.demand_signature()
        self._flat_since = None
        self._awaiting_recovery = awaiting_recovery

    def _incident(self, label: str, detail: str) -> None:
        if self.observatory is not None:
            self.observatory.incident(label, path=self.path, detail=detail)

    # -- introspection ---------------------------------------------------------------------

    @property
    def last_recovery_latency_us(self) -> Optional[float]:
        if not self.recovery_latencies_us:
            return None
        return self.recovery_latencies_us[-1]

    def __repr__(self) -> str:
        return (f"<PathWatchdog path#{self.path.pid} "
                f"stalls={self.stalls_detected} rebuilds={self.rebuilds}>")

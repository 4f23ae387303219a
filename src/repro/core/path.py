"""The path object (the paper's ``struct Path``).

A path bundles: the stage sequence with chained interfaces, the four
decoupling queues, the attribute set recording the invariants it was
created with (plus any state stages share anonymously), the ``wakeup``
scheduling callback, and — because the whole point of paths is early,
global knowledge — the per-path resource accounting that admission control
and the EDF deadline computation consume.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional

from .attributes import Attrs
from .errors import PathStateError
from .queues import BWD_IN, BWD_OUT, FWD_IN, FWD_OUT, PathQueue, QUEUE_ROLE_NAMES
from .specialize import specialize_chain
from .stage import BWD, FWD, Stage

_pid_counter = itertools.count(1)

#: Meta key traversal probes read the per-message cost account from.
#: Matches ``repro.net.common.COST_KEY`` (core cannot import net).
_COST_KEY = "cost_us"

#: Path lifecycle states.
CREATING, ESTABLISHED, DELETED = "creating", "established", "deleted"


class PathStats:
    """Per-path resource accounting.

    "As all memory allocation requests are performed on behalf of a given
    path, it is a simple matter of accounting to decide whether a newly
    created path is admissible" (Section 4.4) — and likewise for CPU:
    "it is easy to compute the execution time spent per path".
    """

    __slots__ = ("cycles", "messages_fwd", "messages_bwd", "mem_bytes",
                 "mem_high_watermark", "avg_proc_time_us", "_proc_samples",
                 "drops", "drop_reasons", "progress")

    def __init__(self) -> None:
        self.cycles = 0.0
        self.messages_fwd = 0
        self.messages_bwd = 0
        self.mem_bytes = 0
        self.mem_high_watermark = 0
        self.avg_proc_time_us = 0.0
        self._proc_samples = 0
        #: Total messages discarded on behalf of this path, for any reason.
        self.drops = 0
        #: Discards broken down by category (e.g. "inq_overflow",
        #: "fault_isolation", "early_discard", "fault_injection").
        self.drop_reasons: Dict[str, int] = {}
        #: Monotonic useful-work counter: bumped whenever the path delivers
        #: something to the outside world that is not an output-queue
        #: deposit (wire transmission, inline service).  The watchdog reads
        #: this plus the output queues' enqueued counts as its heartbeat.
        self.progress = 0

    def charge_cycles(self, cycles: float) -> None:
        self.cycles += cycles

    def charge_memory(self, nbytes: int) -> None:
        self.mem_bytes += nbytes
        if self.mem_bytes > self.mem_high_watermark:
            self.mem_high_watermark = self.mem_bytes

    def release_memory(self, nbytes: int) -> None:
        self.mem_bytes = max(0, self.mem_bytes - nbytes)

    def record_drop(self, category: str) -> None:
        self.drops += 1
        self.drop_reasons[category] = self.drop_reasons.get(category, 0) + 1

    def record_proc_time(self, micros: float) -> None:
        """Exponentially weighted average packet processing time — what the
        Section 4.2 measurement transformation maintains."""
        self._proc_samples += 1
        if self._proc_samples == 1:
            self.avg_proc_time_us = micros
        else:
            self.avg_proc_time_us += 0.125 * (micros - self.avg_proc_time_us)


class Path:
    """A live path through the router graph."""

    #: Modeled C footprint (Section 3.6: "the path object itself is about
    #: 300 bytes"): two stage pointers, pid, wakeup pointer, four queue
    #: headers (~48 B each), and the attribute set header.
    MODELED_BYTES = 2 * 8 + 8 + 8 + 4 * 48 + 64

    def __init__(self, attrs: Optional[Attrs] = None,
                 queue_lengths: Optional[Dict[int, Optional[int]]] = None):
        self.pid = next(_pid_counter)
        self.attrs = attrs if attrs is not None else Attrs()
        self.stages: List[Stage] = []
        self.state = CREATING
        self.stats = PathStats()
        #: Observability hook (a :class:`~repro.observe.PathObserver`),
        #: installed at path-create time when the path was created with a
        #: truthy ``PA_TRACE`` attribute.  ``None`` — the default — keeps
        #: every hot path to a single attribute test.
        self.observer: Optional[Any] = None
        #: Scheduling hook: "a path can set the wakeup function pointer to
        #: request that a specific function gets executed when a thread t
        #: is awakened to execute in a path p" (Section 3.2).
        self.wakeup: Optional[Callable[["Path", Any], None]] = None
        #: Execution tiers (DESIGN.md §11).  A path has two routes: the
        #: recursive ``forward()`` walk over the interface chain — the
        #: reference — and, when ``specialize`` is set (path_create's
        #: one resolution rule) and the chain's stages are recognized
        #: and un-interposed, one ``exec``-generated function per
        #: direction (Section 4.1's "function pointers in the interfaces
        #: can be updated to point to this optimized code", applied to
        #: the whole chain).  ``chain_generation`` is bumped by
        #: ``Stage.set_deliver``/``wrap_deliver``; a mismatch with
        #: ``_specialized_gen`` regenerates before the next message, so
        #: interposition never meets a stale function.
        self.chain_generation = 0
        self.specialize = False
        self._specialized: List[Optional[Callable]] = [None, None]
        self._specialized_gen = -1
        #: Messages that took a generated function's fused body, bumped
        #: by the generated code itself (kept off ``PathStats`` so the
        #: books stay structurally identical across tiers).
        self.specialized_msgs = 0
        #: Per-direction traversal probes: ``probe(msg, elapsed_us)``
        #: called after each traversal with the cost the traversal
        #: accumulated on the message's account.  Unlike a
        #: ``wrap_deliver`` interposition this observes at the *path*
        #: boundary, so it composes with both execution tiers — the
        #: Section 4.2 proc-time probe uses it without forcing the chain
        #: off the generated function.
        self._probes: List[List[Callable[[Any, float], None]]] = [[], []]
        #: Flow caches holding entries that point at this path; populated
        #: by :meth:`register_flow_cache`, purged synchronously by
        #: :meth:`delete` so no cache can ever return a deleted path.
        self._flow_caches: List[Any] = []
        #: Multipath membership (a :class:`~repro.multipath.PathGroup`),
        #: or ``None`` for the common single-path case.  The classifier
        #: consults this at the demux boundary: a demux decision landing
        #: on any group member is re-dispatched through the group's
        #: selection policy.  ``group_id`` survives long enough for flow
        #: caches to index pinned entries by group even while membership
        #: is being torn down.
        self.group: Optional[Any] = None
        self.group_id: Optional[int] = None
        #: Teardown callbacks, run (once, in registration order) at the
        #: end of :meth:`delete` — after stages are destroyed and queues
        #: drained, so a hook that re-binds a demux port or returns an
        #: admission grant observes the fully-released state.
        self._delete_hooks: List[Callable[["Path"], None]] = []
        lengths = queue_lengths or {}
        self.q: List[PathQueue] = [
            PathQueue(maxlen=lengths.get(role, 32),
                      name=f"path{self.pid}.{QUEUE_ROLE_NAMES[role]}")
            for role in (FWD_IN, FWD_OUT, BWD_IN, BWD_OUT)
        ]

    # -- structural accessors ---------------------------------------------------

    @property
    def end(self) -> List[Optional[Stage]]:
        """The paper's ``Stage end[2]``: the two extreme stages."""
        if not self.stages:
            return [None, None]
        return [self.stages[0], self.stages[-1]]

    def __len__(self) -> int:
        """Path length = number of stages ("length" in Section 2.5)."""
        return len(self.stages)

    def stage_of(self, router_name: str) -> Stage:
        """Return the (first) stage contributed by the named router."""
        for stage in self.stages:
            if stage.router.name == router_name:
                return stage
        raise KeyError(f"path {self.pid} has no stage from router {router_name!r}")

    def routers(self) -> List[str]:
        """Router names along the path, in creation (FWD) order."""
        return [stage.router.name for stage in self.stages]

    # -- queues ---------------------------------------------------------------------

    def input_queue(self, direction: int) -> PathQueue:
        """The queue messages wait on before traversing in *direction*."""
        return self.q[FWD_IN] if direction == FWD else self.q[BWD_IN]

    def output_queue(self, direction: int) -> PathQueue:
        """The queue messages land on after traversing in *direction*."""
        return self.q[FWD_OUT] if direction == FWD else self.q[BWD_OUT]

    # -- construction (used by path_create) ---------------------------------------------

    def _append_stage(self, stage: Stage) -> None:
        if self.state != CREATING:
            raise PathStateError(
                f"cannot extend path {self.pid} in state {self.state}")
        stage.path = self
        self.stages.append(stage)

    def _link_interfaces(self) -> None:
        """Chain every stage's interfaces (phase 2 of path creation).

        Forward chain: stage[k].end[FWD].next -> stage[k+1].end[FWD].
        Backward chain: stage[k].end[BWD].next -> stage[k-1].end[BWD].
        Back pointers connect each interface to "the next interface in the
        opposite direction": turning a FWD-traveling message around at
        stage k resumes BWD processing at stage k-1.
        """
        for index, stage in enumerate(self.stages):
            fwd_iface, bwd_iface = stage.end[FWD], stage.end[BWD]
            after = self.stages[index + 1] if index + 1 < len(self.stages) else None
            before = self.stages[index - 1] if index > 0 else None
            fwd_iface.next = after.end[FWD] if after else None
            bwd_iface.next = before.end[BWD] if before else None
            fwd_iface.back = before.end[BWD] if before else None
            bwd_iface.back = after.end[FWD] if after else None

    def _establish(self) -> None:
        """Run every stage's establish hook (phase 3), then go live."""
        for stage in self.stages:
            stage.establish(self.attrs)
        self.state = ESTABLISHED

    # -- execution -----------------------------------------------------------------------

    def entry_iface(self, direction: int):
        """The first interface a message traverses in *direction*."""
        if not self.stages:
            raise PathStateError(f"path {self.pid} has no stages")
        stage = self.stages[0] if direction == FWD else self.stages[-1]
        return stage.end[direction]

    def specialize_chains(self) -> None:
        """(Re)generate both directions' fused functions from the deliver
        pointers as they stand now.  Either slot may come back ``None``
        (switch off, observed path, unrecognized or interposed stages):
        delivery in that direction is then the reference walk."""
        if self.specialize and self.observer is None:
            self._specialized = [specialize_chain(self, FWD),
                                 specialize_chain(self, BWD)]
        else:
            self._specialized = [None, None]
        self._specialized_gen = self.chain_generation

    def deliver(self, msg: Any, direction: int = FWD, **kwargs: Any) -> Any:
        """Inject *msg* at the path's entry for *direction* and process it.

        This is the straight-line evaluation of g(m, d): each stage's
        deliver function processes and explicitly forwards.  Generalized
        processing (absorb / turn around / spontaneous messages) happens
        naturally because stages control forwarding themselves.
        """
        if self.state == DELETED:
            raise PathStateError(f"path {self.pid} has been deleted")
        if direction == FWD:
            self.stats.messages_fwd += 1
        else:
            self.stats.messages_bwd += 1
        probes = self._probes[direction]
        if probes:
            before = msg.meta.get(_COST_KEY, 0.0)
            result = self._traverse_one(msg, direction, kwargs)
            elapsed = msg.meta.get(_COST_KEY, 0.0) - before
            for probe in probes:
                probe(msg, elapsed)
            return result
        return self._traverse_one(msg, direction, kwargs)

    def _traverse_one(self, msg: Any, direction: int, kwargs: dict) -> Any:
        observer = self.observer
        if observer is None:
            if self._specialized_gen != self.chain_generation:
                self.specialize_chains()
            spec = self._specialized[direction]
            if spec is not None:
                out = spec((msg,), kwargs)
                if out is not None:
                    return out[0]
            iface = self.entry_iface(direction)
            return iface.deliver(iface, msg, direction, **kwargs)
        # Observed paths keep the reference walk so stage spans nest.
        iface = self.entry_iface(direction)
        token = observer.begin_traversal(msg, direction)
        try:
            return iface.deliver(iface, msg, direction, **kwargs)
        finally:
            observer.end_traversal(token)

    def deliver_batch(self, msgs: Any, direction: int = FWD,
                      **kwargs: Any) -> List[Any]:
        """Deliver a whole run of messages (a ``MsgBatch`` or any
        iterable of messages) through the path in *direction*.

        The per-path books stay exact per message — the message counters
        advance by the batch length, every stage still charges and drops
        per message — but the dispatch bookkeeping around the traversal
        (state check, generation check) is paid **once per batch**, and
        a generated function takes the whole run in one call.  Without
        one (or when it declines the run) every message takes the
        reference walk in order; an *observed* path (``PA_TRACE``) does
        so with its spans nesting exactly as they would unbatched.
        Returns the per-message traversal results in order.
        """
        if self.state == DELETED:
            raise PathStateError(f"path {self.pid} has been deleted")
        batch = list(msgs)
        count = len(batch)
        if direction == FWD:
            self.stats.messages_fwd += count
        else:
            self.stats.messages_bwd += count
        if not count:
            return []
        probes = self._probes[direction]
        if probes:
            befores = [msg.meta.get(_COST_KEY, 0.0) for msg in batch]
            results = self._traverse_batch(batch, direction, kwargs)
            for msg, before in zip(batch, befores):
                elapsed = msg.meta.get(_COST_KEY, 0.0) - before
                for probe in probes:
                    probe(msg, elapsed)
            return results
        return self._traverse_batch(batch, direction, kwargs)

    def _traverse_batch(self, batch: List[Any], direction: int,
                        kwargs: dict) -> List[Any]:
        observer = self.observer
        if observer is None:
            if self._specialized_gen != self.chain_generation:
                self.specialize_chains()
            spec = self._specialized[direction]
            if spec is not None:
                out = spec(batch, kwargs)
                if out is not None:
                    return out
            iface = self.entry_iface(direction)
            return [iface.deliver(iface, msg, direction, **kwargs)
                    for msg in batch]
        # Observed paths keep the per-message reference walk so stage
        # spans stay exact per message — batching never blurs the trace.
        iface = self.entry_iface(direction)
        results = []
        for msg in batch:
            token = observer.begin_traversal(msg, direction)
            try:
                results.append(iface.deliver(iface, msg, direction,
                                             **kwargs))
            finally:
                observer.end_traversal(token)
        return results

    def add_traversal_probe(self, direction: int,
                            probe: Callable[[Any, float], None]) -> None:
        """Attach ``probe(msg, elapsed_us)`` to every traversal in
        *direction*.

        *elapsed_us* is the cost the traversal accumulated on the
        message's own account (its ``cost_us`` meta delta).  Probes fire
        after the traversal completes, outside the stage chain, so they
        never change what the chain specializes to.
        """
        self._probes[direction].append(probe)

    def inject_at(self, stage: Stage, msg: Any, direction: int,
                  **kwargs: Any) -> Any:
        """Inject *msg* mid-path at *stage* (Section 2.4.2's loosened rule:
        "a message may now be injected at any one of these sub-functions").

        A retransmission timer firing inside MFLOW uses this to create a
        message spontaneously inside the path.
        """
        if stage.path is not self:
            raise PathStateError(f"{stage!r} does not belong to path {self.pid}")
        iface = stage.end[direction]
        observer = self.observer
        if observer is None:
            return iface.deliver(iface, msg, direction, **kwargs)
        token = observer.begin_injection(msg, direction, stage.router.name)
        try:
            return iface.deliver(iface, msg, direction, **kwargs)
        finally:
            observer.end_traversal(token)

    # -- drop / progress accounting ---------------------------------------------------------

    def note_drop(self, msg: Any, reason: str, category: str = "drop") -> None:
        """Record that *msg* was discarded on behalf of this path.

        Every discard site — classification failure, queue overflow, fault
        isolation, early discard, fault injection — funnels through here so
        drop accounting is uniform: ``msg.meta["drop_reason"]`` explains the
        individual message, :attr:`PathStats.drops` and
        :attr:`PathStats.drop_reasons` aggregate per path.
        """
        meta = getattr(msg, "meta", None)
        if meta is not None:
            meta["drop_reason"] = reason
        self.stats.record_drop(category)
        if self.observer is not None:
            self.observer.on_drop(msg, reason, category)

    def charge_cycles(self, cycles: float) -> None:
        """Charge CPU cycles to this path's account (the scheduler's
        compute hook), mirrored into the metrics layer when observed."""
        self.stats.charge_cycles(cycles)
        if self.observer is not None:
            self.observer.on_cycles(cycles)

    def register_flow_cache(self, cache: Any) -> None:
        """Record that *cache* holds entries mapping to this path, so
        :meth:`delete` can purge them synchronously (a flow cache must
        never hand out a deleted path)."""
        if cache not in self._flow_caches:
            self._flow_caches.append(cache)

    def purge_flow_caches(self) -> int:
        """Drop every flow-cache entry pointing at this path *without*
        deleting it.  Path pools call this when parking a path: an idle
        pooled path is still ESTABLISHED, so only an explicit purge stops
        the caches from classifying live traffic onto it.  Returns how
        many entries were removed."""
        removed = 0
        for cache in self._flow_caches:
            removed += cache.invalidate_path(self)
        self._flow_caches.clear()
        return removed

    def add_delete_hook(self, hook: Callable[["Path"], None]) -> None:
        """Register ``hook(path)`` to run when this path is deleted.

        Hooks fire exactly once, at the end of :meth:`delete`, in
        registration order.  They are how the layers that *hold* paths —
        admission control (grant reclaim), path pools (drop the pooled
        entry), path groups (membership removal + demux re-binding) —
        observe teardown without the core importing any of them.
        """
        if hook not in self._delete_hooks:
            self._delete_hooks.append(hook)

    def note_progress(self) -> None:
        """Record useful work that does not land on an output queue (wire
        transmission, inline service).  Feeds the watchdog heartbeat."""
        self.stats.progress += 1

    def progress_signature(self) -> int:
        """Monotonic useful-output counter the watchdog samples: output
        queue deposits plus explicit progress marks.  Dropped messages
        deliberately do not count — a path shedding 100% of its input is
        not making progress."""
        return (self.q[FWD_OUT].enqueued + self.q[BWD_OUT].enqueued
                + self.stats.progress)

    def demand_signature(self) -> int:
        """Monotonic offered-work counter: everything ever enqueued on the
        input queues.  Demand advancing while the progress signature stays
        flat is what the watchdog reads as a stall."""
        return self.q[FWD_IN].enqueued + self.q[BWD_IN].enqueued

    # -- lifecycle --------------------------------------------------------------------------

    def delete(self, drop_category: str = "path_teardown") -> None:
        """Destroy the path: run stage destroy hooks in reverse order and
        drop queued work.

        Every message still queued is routed through :meth:`note_drop`
        under *drop_category* (the watchdog passes ``"watchdog_rebuild"``)
        so drop accounting stays consistent across teardown: per-path drop
        totals match queue drop totals and observers close any open
        queue-wait spans instead of leaking them.
        """
        if self.state == DELETED:
            return
        # Purge flow-cache entries first: nothing may classify onto a
        # path whose stages are mid-teardown.
        for cache in self._flow_caches:
            cache.invalidate_path(self)
        self._flow_caches.clear()
        for stage in reversed(self.stages):
            stage.destroy()
        for queue in self.q:
            for item in queue.drain(reason=drop_category):
                self.note_drop(item, f"queued message discarded: "
                                     f"{drop_category}", drop_category)
        self.state = DELETED
        # Teardown hooks run last: ports and sinks are released, so a
        # hook re-binding a demux entry to a surviving group member (or
        # returning an admission grant) sees the final state.
        hooks, self._delete_hooks = self._delete_hooks, []
        for hook in hooks:
            hook(self)

    # -- accounting ----------------------------------------------------------------------------

    def modeled_size(self) -> int:
        """Modeled byte footprint: path object plus all stages+interfaces.

        Reproduces the Section 3.6 claim that a path costs ~300 bytes plus
        ~150 bytes per stage.
        """
        return self.MODELED_BYTES + sum(s.modeled_size() for s in self.stages)

    def __repr__(self) -> str:
        chain = "->".join(self.routers()) or "(empty)"
        return f"<Path #{self.pid} {chain} [{self.state}]>"

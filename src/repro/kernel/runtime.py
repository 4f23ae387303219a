"""The path runtime: the two behaviours every Scout kernel shares.

* **interrupt-time classification** — every received frame is classified
  at interrupt level and deposited directly on its path's input queue
  ("since each video path has its own input queue and since the packet
  classifier is run at interrupt time, newly arriving packets are
  immediately placed in the correct queue"), or dropped right there,
  ledgered, when no path wants it or the queue is full.  There is one
  receive route, :meth:`PathRuntime.rx_burst`; a lone frame from a
  simulated NIC is a burst of one;
* **per-path threads under per-path scheduling** — each path's thread
  dequeues, traverses the path, and pays the accumulated CPU cost.

:class:`PathRuntime` spells them once, the flow cache included: every
kernel probes its own :class:`~repro.core.flowcache.FlowCache` before the
demux chain.  ``ScoutKernel`` (and ``HostNode``, a ``ScoutKernel``) and
``RouterKernel`` differ in the router graph they boot and the paths they
create, not in how a frame reaches a path or how a path gets the CPU.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .. import params
from ..core.classify import ClassifierStats, classify
from ..core.flowcache import FlowCache
from ..core.message import Msg
from ..core.path import DELETED, Path
from ..core.queues import BWD_IN
from ..core.specialize import FLOW_VALIDATED
from ..core.stage import BWD
from ..net.addresses import EthAddr, IpAddr
from ..net.common import charge, take_cost
from ..sim.threads import Compute, DequeueBatch, WaitSpace, YIELD
from ..sim.world import SimWorld


def mac_for(ip) -> str:
    """Locally administered MAC for a NIC given no explicit one, derived
    from the interface's IP: ``02:00`` + the four address bytes.  A
    function of the declaration alone, so identical seeded builds put
    identical bytes on the wire."""
    return str(EthAddr(b"\x02\x00" + IpAddr(ip).to_bytes()))


class PathRuntime:
    """Receive spine, admission, path threads and the drop ledger.

    A subclass boots a router graph and creates paths.  It sets
    ``self.eth`` (where a received frame enters the demux chain; a
    multi-port kernel passes the port's router to :meth:`rx_burst`
    instead) and, when its IP router reassembles, ``self.ip`` and
    ``self.frag_path`` for :meth:`_reclassify`.
    """

    def __init__(self, world: SimWorld, flow_cache_capacity: int = 128):
        self.world = world
        self.classifier_stats = ClassifierStats()
        #: Established-flow fast path for interrupt-time classification:
        #: one exact-match probe instead of the demux chain, for every
        #: whole IPv4/UDP datagram this kernel receives (DESIGN.md §11.1).
        self.flow_cache = FlowCache(capacity=flow_cache_capacity,
                                    annotate=self._annotate_flow)
        #: Optional per-message fate observer ``fn(obj, category)``: it
        #: hears exactly what :meth:`drop_ledger` counts, once per dropped
        #: object — admission drops, drops inside a path, teardown drains
        #: and reassembled datagrams no path wants.  *obj* is usually a
        #: ``Msg`` but need not be (DISPLAY's ``outq_overflow`` drops a
        #: decoded frame), so read ``getattr(obj, "meta", None)``.  The
        #: shard fabric's workers use it to close each handed-off serial
        #: under an exact category; ``None`` (the default) costs nothing.
        self.drop_hook = None
        self.unclassified_drops = 0
        self.inq_overflow_drops = 0
        self._paths: List[Path] = []

    # ------------------------------------------------------------------
    # Interrupt-time receive: classify early, segregate early.
    # ------------------------------------------------------------------

    def rx_burst(self, frames, metas=None, entry=None) -> int:
        """Interrupt-time receive for a burst of frames (DESIGN.md §13);
        a lone frame is a burst of one.

        Every frame is classified first — :func:`classify` from
        *entry* (default ``self.eth``; a router port passes its own ETH
        router) through the kernel's flow cache — and then each takes
        admission in arrival order (early discard, input-queue deposit,
        memory charge, drop ledger).  The modeled interrupt cost is the
        exact sum of the per-frame costs — one probe per frame plus one
        hop per refinement a chain walk took, so a cache hit costs a
        single probe — charged in one ``extend_interrupt`` call.
        Returns how many frames were deposited on a path input queue.

        *metas*, when given, is a per-frame sequence of extra ``meta``
        entries stamped onto each message before classification — the
        shard fabric's handoff serials ride in through here so every
        frame's fate can be accounted to the ledger that injected it.
        """
        router = self.eth if entry is None else entry
        stats = self.classifier_stats
        cache = self.flow_cache
        arrivals = []
        # Classifier hops: one probe per frame plus every refinement the
        # burst's chain walks add to ``stats``.
        hops = -stats.refinements
        for i, frame in enumerate(frames):
            msg = Msg(frame)
            if metas is not None and metas[i]:
                msg.meta.update(metas[i])
            arrivals.append((msg, classify(router, msg, stats=stats,
                                           cache=cache)))
            hops += 1
        self.world.cpu.extend_interrupt(
            (hops + stats.refinements) * params.CLASSIFY_PER_HOP_US)
        deposited = 0
        for msg, path in arrivals:
            if self._admit(path, msg):
                deposited += 1
        return deposited

    def _rx(self, frame: bytes, entry=None) -> None:
        """A simulated NIC's per-frame ``rx_handler``: a burst of one."""
        self.rx_burst((frame,), None, entry)

    def _admit(self, path: Optional[Path], msg: Msg) -> bool:
        """Post-classification admission of one received message; returns
        True when the message reached an input queue."""
        if path is None:
            self._drop_unclassified(msg, "no path wants this frame")
            self._shed()
            return False
        if "eth_src" not in msg.meta:
            # A flow-cache hit skipped ETH's demux, which records the
            # source MAC, and the flow key does not fix it.
            msg.meta["eth_src"] = EthAddr(msg.peek(6, at=6))
        if not path.q[BWD_IN].try_enqueue(msg):
            self.inq_overflow_drops += 1
            path.note_drop(msg, "path input queue full", "inq_overflow")
            self._shed()
            return False
        path.stats.charge_memory(msg.footprint())
        return True

    def _annotate_flow(self, msg: Msg, key: bytes) -> None:
        """The ``msg.meta`` annotations the skipped demux chain would have
        made that the flow key fixes (IP and UDP stash the fields later
        stages and SHELL command handling read); the flow cache runs this
        once per entry and copies the result into every hit.  The key
        guarantees a well-formed non-fragmented IPv4/UDP frame, so fixed
        offsets are safe: IP proto at 23, IP src at 26, UDP ports at 34.
        ETH's source MAC is not in the key; :meth:`_admit` reads it.
        """
        head = msg.peek(38)
        meta = msg.meta
        meta["ip_src"] = IpAddr(head[26:30])
        meta["ip_proto"] = head[23]
        meta["udp_ports"] = (int.from_bytes(head[34:36], "big"),
                             int.from_bytes(head[36:38], "big"))
        # The key matched the exact framing, addressing and port bytes:
        # the proof the specialized tier's fused functions guard on
        # (DESIGN.md §15).  The reference walk never reads it; every
        # scalar stage validates each frame itself.
        meta[FLOW_VALIDATED] = True

    def _shed(self) -> None:
        """Pay for an interrupt-time discard."""
        self.world.cpu.extend_interrupt(params.EARLY_DROP_US)

    def _report_drop(self, msg, category: str) -> None:
        """The one place this kernel's fates reach :attr:`drop_hook`:
        every path it serves reports here from ``Path.note_drop``, and
        :meth:`_drop_unclassified` reports the pathless ones."""
        if self.drop_hook is not None:
            self.drop_hook(msg, category)

    def _drop_unclassified(self, msg: Msg, reason: str) -> None:
        """Ledger *msg*, which no path wants, as ``unclassified``: the one
        book for both pathless sites — admission and a reassembled
        datagram's reclassification."""
        self.unclassified_drops += 1
        msg.meta.setdefault("drop_reason", reason)
        self._report_drop(msg, "unclassified")

    # ------------------------------------------------------------------
    # Reassembled datagrams: rerun the classifier (Section 3.5)
    # ------------------------------------------------------------------

    def _reclassify(self, msg: Msg, header) -> None:
        take_cost(msg)  # the fragment path's thread already paid so far
        whole = msg
        # Charge what the destination thread will release: the header
        # pushed next is a chunk of its own that the IP stage pops whole.
        footprint = whole.footprint()
        whole.push(header.pack())
        refinements_before = self.classifier_stats.refinements
        path = classify(self.ip, whole, stats=self.classifier_stats)
        hops = self.classifier_stats.refinements - refinements_before + 1
        charge(whole, hops * params.CLASSIFY_PER_HOP_US)
        if path is None or path is self.frag_path:
            self._drop_unclassified(whole,
                                    "no path wants the reassembled datagram")
            return
        whole.meta["entry_router"] = "IP"
        if not path.input_queue(BWD).try_enqueue(whole):
            self.inq_overflow_drops += 1
            path.note_drop(whole, "path input queue full", "inq_overflow")
            return
        path.stats.charge_memory(footprint)

    # ------------------------------------------------------------------
    # Path threads
    # ------------------------------------------------------------------

    def _path_thread_body(self, path: Path, batch_limit: int = 1,
                          reserve_output: bool = False):
        """The one path thread: drain up to *batch_limit* messages per
        scheduler dispatch (DESIGN.md §13; one message is a batch of
        one), traverse them, pay the accumulated cost in a single
        ``Compute``, then release the messages' memory charges.

        *reserve_output* (video paths): "if the output queue is full
        already, there is little point in scheduling a thread to process
        a packet in the input queue" — wait for display space before
        burning decode CPU.  One slot is reserved per dispatch; should
        the queue fill mid-batch, the overflowing deposits take the
        ledgered ``outq_overflow`` drop instead of blocking the batch.
        Service and sink paths do not reserve: their ends deposit (or
        transmit) themselves and account any overflow.
        """
        # The ops are values: one of each serves every dispatch.
        take = DequeueBatch(path.input_queue(BWD), batch_limit)
        reserve = WaitSpace(path.output_queue(BWD))
        while path.state != DELETED:
            msgs = yield take
            if reserve_output:
                yield reserve
            self._traverse_batch(path, msgs)
            cost = 0.0
            for msg in msgs:
                cost += take_cost(msg)
            if cost > 0:
                yield Compute(cost)
            release = path.stats.release_memory
            for msg in msgs:
                release(msg.footprint())
            yield YIELD

    @staticmethod
    def _traverse_batch(path: Path, msgs: List[Msg]) -> None:
        """Run a dequeued batch through the path.

        The whole batch — a batch of one included — rides
        :meth:`~repro.core.path.Path.deliver_batch` (one call into the
        path's generated function) unless some message needs a mid-path
        injection (a reassembled datagram entering at IP); then the
        batch falls back to per-message traversal to preserve arrival
        order exactly.
        """
        for msg in msgs:
            if "entry_router" in msg.meta:
                break
        else:
            # Mark everything but the tail so stages that turn per-packet
            # feedback around (MFLOW window advs, TCP cumulative ACKs) can
            # coalesce it to one message per batch.
            for msg in msgs[:-1]:
                msg.meta["batch_followup"] = True
            path.deliver_batch(msgs, BWD)
            return
        for msg in msgs:
            entry = msg.meta.pop("entry_router", None)
            if entry is not None:
                path.inject_at(path.stage_of(entry), msg, BWD)
            else:
                path.deliver(msg, BWD)

    def _spawn_path_thread(self, path: Path, name: str, policy: str,
                           priority: int, batch_limit: int = 1,
                           reserve_output: bool = False):
        """Give *path* its thread and enter it in the kernel's books."""
        self._paths.append(path)
        path.drop_report = self._report_drop
        return self.world.spawn(
            self._path_thread_body(path, batch_limit, reserve_output),
            name=name, policy=policy, priority=priority, path=path)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def paths(self) -> List[Path]:
        """Every path this kernel has given a thread, in creation order.
        Deleted paths stay listed: the frames that died on them still
        have that fate."""
        return list(self._paths)

    def stats(self) -> Dict[str, float]:
        """The counters every kernel keeps: classification, its flow
        cache and the admission drops.  A subclass adds its own keys."""
        classifier, cache = self.classifier_stats, self.flow_cache
        return {
            "classified": classifier.classified,
            "classifier_drops": classifier.dropped,
            "classifier_cache_hits": classifier.cache_hits,
            "flow_cache_hits": cache.hits,
            "flow_cache_misses": cache.misses,
            "flow_cache_evictions": cache.evictions,
            "flow_cache_invalidations": cache.invalidations,
            "inq_overflow_drops": self.inq_overflow_drops,
            "unclassified_drops": self.unclassified_drops,
        }

    def drop_ledger(self) -> Dict[str, int]:
        """Drop accounting across every path of this kernel, plus the
        frames no path wanted."""
        ledger: Dict[str, int] = {}
        for path in self._paths:
            for category, count in path.stats.drop_reasons.items():
                ledger[category] = ledger.get(category, 0) + count
        if self.unclassified_drops:
            ledger["unclassified"] = self.unclassified_drops
        return ledger

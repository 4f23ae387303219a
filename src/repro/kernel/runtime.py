"""The path runtime: the two behaviours every Scout kernel shares.

* **interrupt-time classification** — every received frame is classified
  at interrupt level and deposited directly on its path's input queue
  ("since each video path has its own input queue and since the packet
  classifier is run at interrupt time, newly arriving packets are
  immediately placed in the correct queue"), or dropped right there,
  ledgered, when no path wants it or the queue is full;
* **per-path threads under per-path scheduling** — each path's thread
  dequeues, traverses the path, and pays the accumulated CPU cost.

:class:`PathRuntime` spells them once.  ``ScoutKernel``, ``HostNode`` and
``RouterKernel`` differ in the router graph they boot and the paths they
create, not in how a frame reaches a path or how a path gets the CPU.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .. import params
from ..core.classify import ClassifierStats, classify
from ..core.message import Msg
from ..core.path import DELETED, Path
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
    multi-port kernel passes the port's router to :meth:`_rx` instead)
    and, when its IP router reassembles, ``self.ip`` and
    ``self.frag_path`` for :meth:`_reclassify`.
    """

    #: Established-flow cache probed before the demux chain; ``None``
    #: walks the chain for every frame.
    flow_cache = None

    def __init__(self, world: SimWorld):
        self.world = world
        self.classifier_stats = ClassifierStats()
        #: Optional per-message discard observer ``fn(msg, category)``,
        #: invoked at every admission-time drop site (unclassified, early
        #: discard, input-queue overflow).  The shard fabric's workers use
        #: it to close each handed-off serial under an exact category;
        #: ``None`` (the default) costs nothing.
        self.drop_hook = None
        self.early_drops = 0
        self.unclassified_drops = 0
        self.inq_overflow_drops = 0
        self._paths: List[Path] = []

    # ------------------------------------------------------------------
    # Interrupt-time receive: classify early, segregate early.
    # ------------------------------------------------------------------

    def _rx(self, frame: bytes, entry=None) -> None:
        msg = Msg(frame, meta={"rx_time": self.world.now})
        refinements_before = self.classifier_stats.refinements
        path = classify(self.eth if entry is None else entry, msg,
                        stats=self.classifier_stats, cache=self.flow_cache)
        # A cache hit adds no refinements, so its modeled interrupt cost
        # is a single probe — the speedup the flow cache exists to buy.
        hops = self.classifier_stats.refinements - refinements_before + 1
        self.world.cpu.extend_interrupt(hops * params.CLASSIFY_PER_HOP_US)
        self._admit(path, msg)

    def _admit(self, path: Optional[Path], msg: Msg) -> bool:
        """Post-classification admission, identical for single frames and
        bursts; returns True when the message reached an input queue."""
        if path is None:
            self.unclassified_drops += 1
            msg.meta.setdefault("drop_reason", "no path wants this frame")
            self._shed(msg, "unclassified")
            return False
        if not path.input_queue(BWD).try_enqueue(msg):
            self.inq_overflow_drops += 1
            path.note_drop(msg, "path input queue full", "inq_overflow")
            self._shed(msg, "inq_overflow")
            return False
        path.stats.charge_memory(msg.footprint())
        return True

    def _shed(self, msg: Msg, category: str) -> None:
        """The tail of every interrupt-time drop: report the fate, pay
        for the discard."""
        if self.drop_hook is not None:
            self.drop_hook(msg, category)
        self.world.cpu.extend_interrupt(params.EARLY_DROP_US)

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
            self.unclassified_drops += 1
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
        inq = path.input_queue(BWD)
        outq = path.output_queue(BWD)
        while path.state != DELETED:
            msgs = yield DequeueBatch(inq, batch_limit)
            if reserve_output:
                yield WaitSpace(outq)
            self._traverse_batch(path, msgs)
            cost = 0.0
            for msg in msgs:
                cost += take_cost(msg)
            if cost > 0:
                yield Compute(cost)
            for msg in msgs:
                path.stats.release_memory(msg.footprint())
            yield YIELD

    @staticmethod
    def _traverse(path: Path, msg: Msg) -> None:
        entry = msg.meta.pop("entry_router", None)
        if entry is not None:
            path.inject_at(path.stage_of(entry), msg, BWD)
        else:
            path.deliver(msg, BWD)

    @classmethod
    def _traverse_batch(cls, path: Path, msgs: List[Msg]) -> None:
        """Run a dequeued batch through the path.

        The whole batch rides :meth:`~repro.core.path.Path.deliver_batch`
        (one call into the path's generated function) unless some message
        needs a mid-path injection (a reassembled datagram entering at
        IP) — then the batch falls back to per-message traversal to
        preserve arrival order exactly.  A batch of one has no followers
        to mark and takes the same per-message route.
        """
        if len(msgs) == 1 or \
                any("entry_router" in msg.meta for msg in msgs):
            for msg in msgs:
                cls._traverse(path, msg)
        else:
            # Mark everything but the tail so stages that turn per-packet
            # feedback around (MFLOW window advs, TCP cumulative ACKs) can
            # coalesce it to one message per batch.
            for msg in msgs[:-1]:
                msg.meta["batch_followup"] = True
            path.deliver_batch(msgs, BWD)

    def _spawn_path_thread(self, path: Path, name: str, policy: str,
                           priority: int, batch_limit: int = 1,
                           reserve_output: bool = False):
        """Give *path* its thread and enter it in the kernel's books."""
        self._paths.append(path)
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

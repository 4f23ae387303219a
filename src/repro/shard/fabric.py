"""The sharded kernel fabric: N Scout kernels behind one RX boundary.

:class:`ShardedKernel` composes the pieces of this package into one
logical machine: a :class:`~repro.shard.dispatch.FlowDispatcher` peeks
each arriving frame's flow key and hands whole runs to per-shard
workers; every flow-keyed frame is *injected* into that shard's
fabric-owned :class:`~repro.observe.ledger.DropLedger` at dispatch and
*closed* only by the worker's fate — delivered-with-payload or an exact
drop category — so the fabric's books are end-to-end exact.

Workers are in-process :class:`~repro.shard.worker.ShardWorker`
objects, each a whole kernel on its own virtual clock, fed one after
another in shard order.  The fabric is fully deterministic: it models
flow-hash dispatch and merged books, not parallel speedup.

Failover: a worker removed by :meth:`kill_shard` is detected at its
next dispatch; its outstanding serials are ledgered ``shard_failover``
(never silently lost, never re-delivered — exactly-once is preserved by
*accounting* for the loss, not by hiding it), and every flow it carried
is re-pinned onto live shards.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.flowcache import flow_key_frame
from ..observe.ledger import DropLedger
from .books import FabricBooks, ShardBooks
from .dispatch import FlowDispatcher, shard_of
from .worker import SHARD_FAILOVER, Fate, ShardSpec, ShardWorker

__all__ = ["ShardedKernel"]


class ShardedKernel:
    """N Scout kernels, one flow-hash RX boundary, merged books."""

    def __init__(self, shards: int = 2,
                 ports: Sequence[int] = (6100,),
                 batch: int = 8, inq_len: int = 64, outq_len: int = 64,
                 seed: int = 0, specialize: Optional[bool] = None,
                 control_plane: bool = False):
        self.shards = shards
        self.dispatcher = FlowDispatcher(shards)
        #: Fabric-owned per-shard ledgers, local serials; merged books
        #: namespace them ``(shard_id, serial)``.
        self.ledgers: Dict[int, DropLedger] = {
            shard: DropLedger() for shard in range(shards)}
        self._serials: Dict[int, int] = {shard: 0 for shard in range(shards)}
        #: Flow key of every open serial, so delivered payloads can be
        #: appended to the right per-flow stream at settle time.
        self._serial_flow: Dict[Tuple[int, int], bytes] = {}
        #: Delivered payload bytes per flow key, in delivery order — the
        #: differential-parity observable (byte-identical across shard
        #: counts for the same seeded workload).
        self.flow_streams: Dict[bytes, List[bytes]] = {}
        #: Live workers by shard; :meth:`kill_shard` removes one.
        self.workers: Dict[int, ShardWorker] = {
            shard: ShardWorker(ShardSpec(
                shard, seed=seed + shard, ports=ports, batch=batch,
                inq_len=inq_len, outq_len=outq_len,
                specialize=specialize, control_plane=control_plane))
            for shard in range(shards)}
        self._finished: Optional[FabricBooks] = None

    # -- ingest ---------------------------------------------------------------

    def offer(self, frames: Sequence[bytes],
              metas: Optional[Sequence[Optional[dict]]] = None) -> List[Fate]:
        """Dispatch one frame run across the fabric and collect fates.

        Flow-keyed frames get a shard-local serial (injected into that
        shard's ledger) plus their flow key stamped into per-frame meta;
        the metas survive classification and come back on every fate.
        Non-flow frames (ARP, ICMP, fragments) are forwarded unledgered —
        the exactly-once books cover classified flow traffic.
        """
        if self._finished is not None:
            raise RuntimeError("fabric already finished")
        runs = self.dispatcher.dispatch(frames, metas)
        all_fates: List[Fate] = []
        for shard in sorted(runs):
            shard_frames, shard_metas = runs[shard]
            serials: List[int] = []
            out_metas: List[Optional[dict]] = []
            for frame, meta in zip(shard_frames, shard_metas):
                key = flow_key_frame(bytes(frame))
                if key is None:
                    out_metas.append(dict(meta) if meta else None)
                    continue
                serial = self._serials[shard]
                self._serials[shard] = serial + 1
                self.ledgers[shard].inject(serial)
                self._serial_flow[(shard, serial)] = key
                serials.append(serial)
                stamped = dict(meta) if meta else {}
                stamped["shard_serial"] = serial
                stamped["flow"] = key
                out_metas.append(stamped)
            worker = self.workers.get(shard)
            if worker is None:  # killed
                fates = self._failover(shard, serials)
            else:
                fates = worker.feed(shard_frames, out_metas)
            all_fates.extend(self._settle(shard, fates))
        return all_fates

    def _settle(self, shard: int, fates: List[Fate]) -> List[Fate]:
        ledger = self.ledgers[shard]
        for serial, category, payload in fates:
            ledger.account(serial, category)
            if payload is not None:
                flow = self._serial_flow.get((shard, serial))
                if flow is not None:
                    self.flow_streams.setdefault(flow, []).append(payload)
        return fates

    # -- failover --------------------------------------------------------------

    def _failover(self, shard: int, outstanding: List[int]) -> List[Fate]:
        """Handle a dead worker: re-pin its flows, fate its serials.

        Returns ``shard_failover`` fates for every outstanding serial; the
        caller settles them through the same path as real fates, so the
        ledger sees exactly one terminal state per serial either way.
        """
        orphaned_flows = self.dispatcher.mark_dead(shard)
        for key in sorted(orphaned_flows):
            self.dispatcher.shard_for_key(key)  # eager re-pin
        return [(serial, SHARD_FAILOVER, None) for serial in outstanding]

    def kill_shard(self, shard: int) -> None:
        """Chaos hook: make a worker vanish mid-run.

        Drops the worker object; the shard's next dispatch takes the
        failover path.
        """
        self.workers.pop(shard, None)

    # -- rebalance -------------------------------------------------------------

    def rebalance(self, key: bytes, to_shard: int) -> None:
        """Move one flow to another shard: drain, re-pin, invalidate.

        The worker-side flow cache entry on the old shard is invalidated
        so a later return of the flow re-classifies from scratch; the
        dispatcher pin makes the move durable.  Safe between ``offer``
        calls — each call runs its shards to quiescence, so there is no
        in-flight traffic to strand.
        """
        if self._finished is not None:
            raise RuntimeError("fabric already finished")
        old = self.dispatcher.pins.get(key)
        if old is None:
            old = shard_of(key, self.shards)
        # Pin first: a rejected target must leave the old shard's cache
        # entry (and the pin) untouched.
        self.dispatcher.repin(key, to_shard)
        if old != to_shard:
            worker = self.workers.get(old)
            if worker is not None:
                worker.invalidate_flow(key)

    # -- closing the books -----------------------------------------------------

    def finish(self) -> FabricBooks:
        """Collect every live worker's books, merge, reconcile."""
        if self._finished is not None:
            return self._finished
        books: Dict[int, ShardBooks] = {
            shard: worker.books()
            for shard, worker in self.workers.items()
            if shard not in self.dispatcher.dead}
        # Every ledger participates in the merge — a dead shard's
        # pre-death deliveries and its failover serials are real history.
        # Per-shard kernel-sum reconciliation only runs where books
        # exist (a dead worker cannot testify).
        self._finished = FabricBooks(books, dict(self.ledgers))
        return self._finished

    def __repr__(self) -> str:
        return (f"<ShardedKernel shards={self.shards} "
                f"dead={sorted(self.dispatcher.dead)}>")

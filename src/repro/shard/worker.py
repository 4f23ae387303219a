"""One shard of the fabric: a whole Scout kernel fed whole frame runs.

A shard is not a thread inside a shared kernel — it is a complete
:class:`~repro.kernel.ScoutKernel` (own :class:`~repro.sim.SimWorld`,
own scheduler, own flow cache, own admission state) that receives whole
frame runs from the dispatcher and answers with per-serial *fates*:
``delivered`` with the payload bytes, or the exact drop category the
kernel's ``drop_hook`` heard, wherever the frame died.  Because every
shard runs its own virtual clock, shards are deterministic in isolation,
which is what lets the differential suite compare 1-, 2- and 4-shard
runs byte for byte.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..admission.control import BackpressureShedder
from ..core.stage import BWD
from ..faults.watchdog import PathWatchdog
from ..kernel.scout import ScoutKernel
from ..net.addresses import EthAddr, IpAddr
from ..net.segment import EtherSegment
from ..observe.ledger import DELIVERED
from ..sim.world import SimWorld

__all__ = ["ShardWorker", "SHARD_FAILOVER"]

#: Ledger category for serials orphaned by a dead worker.
SHARD_FAILOVER = "shard_failover"

#: Fate tuple: ``(serial, category, payload-or-None)``.
Fate = Tuple[int, str, Optional[bytes]]

#: Every shard replicates the *same* addresses: the fabric is one logical
#: Scout machine, so a frame must validate (ETH dst, IP dst, UDP port)
#: identically on whichever shard the dispatcher picks — that
#: replication is what makes 1-shard and N-shard runs byte-comparable
#: per flow.
LOCAL_MAC, LOCAL_IP = "02:00:00:00:00:01", "10.0.0.1"
REMOTE_MAC, REMOTE_IP = "02:00:00:00:00:02", "10.0.0.2"


class ShardWorker:
    """A full Scout kernel serving dispatched frame runs for one shard."""

    #: Bounded-slice width used when the control plane's periodic timers
    #: keep the engine from ever going idle.
    RUN_SLICE_US = 50_000.0

    def __init__(self, shard_id: int, seed: int, ports: Sequence[int],
                 batch: int, inq_len: int, outq_len: int,
                 specialize: Optional[bool], control_plane: bool):
        self.shard_id = shard_id
        self.world = SimWorld(seed=seed)
        self.segment = EtherSegment(self.world.engine, rng=self.world.rng)
        self.kernel = ScoutKernel(
            self.world, self.segment, local_mac=LOCAL_MAC, local_ip=LOCAL_IP,
            udp_sink=True, display=False, specialize=specialize)
        self.kernel.arp.add_entry(IpAddr(REMOTE_IP), EthAddr(REMOTE_MAC))
        self._drops: List[Tuple[int, str]] = []
        self.kernel.drop_hook = self._on_drop
        self._delivered_cursor = 0
        #: ``start_udp_sink`` arguments of every sink, rebuilt ones too.
        self._sink = dict(remote=(REMOTE_IP, 7000), batch=batch,
                          inq_len=inq_len, outq_len=outq_len,
                          specialize=specialize)
        for port in ports:
            self.kernel.start_udp_sink(port, **self._sink)
        # -- shard-local control plane ------------------------------------
        # The shedder observes the sink input queues (its ``shedding``
        # flag is the watchdog's overload discriminator); it does not
        # gate arrivals, so the shard's delivery behaviour stays
        # bit-identical to an unsharded kernel's.  Watchdogs repair a
        # wedged sink path by rebuilding it on the same port.
        self.shedder = BackpressureShedder()
        self.watchdogs: Dict[int, PathWatchdog] = {}
        for port, path in self.kernel.sink_paths.items():
            self.shedder.watch(path.input_queue(BWD))
        if control_plane:
            for port in ports:
                self.watchdogs[port] = PathWatchdog(
                    self.world.engine, self.kernel.sink_paths[port],
                    rebuild=self._make_rebuild(port),
                    overload_check=lambda: self.shedder.shedding,
                ).start()

    # -- kernel hooks ----------------------------------------------------------

    def _on_drop(self, obj, category: str) -> None:
        meta = getattr(obj, "meta", None)
        serial = meta.get("shard_serial") if meta else None
        if serial is not None:
            self._drops.append((serial, category))

    def _make_rebuild(self, port: int):
        def rebuild():
            # The watchdog's delete already freed the port (the sink's
            # delete hook); the replacement takes it and the watchdog
            # adopts it.
            path = self.kernel.start_udp_sink(port, **self._sink)
            self.shedder.watch(path.input_queue(BWD))
            return path
        return rebuild

    # -- the dispatcher's request side ----------------------------------------

    def feed(self, frames: Sequence[bytes],
             metas: Optional[Sequence[Optional[dict]]] = None) -> List[Fate]:
        """Ingest one dispatched run, run to quiescence, return fates.

        Every frame carrying a ``shard_serial`` is answered exactly once:
        either ``(serial, "delivered", payload)`` from the TEST sink or
        ``(serial, category, None)`` from the kernel's drop hook.  The
        shedder samples occupancy once per run (admission-observational,
        never gating).
        """
        self.kernel.rx_burst(list(frames), metas=list(metas) if metas else None)
        self.shedder.admit()
        self._run_to_quiescence()
        return self._collect_fates()

    def _run_to_quiescence(self) -> None:
        if not self.watchdogs:
            self.world.run_until_idle()
            return
        # Watchdog heartbeats re-arm forever, so the engine never goes
        # idle; run bounded slices until the sinks drain instead.
        for _ in range(64):
            self.world.run_for(self.RUN_SLICE_US)
            if all(len(path.input_queue(BWD)) == 0
                   for path in self.kernel.sink_paths.values()):
                return

    def _collect_fates(self) -> List[Fate]:
        fates: List[Fate] = []
        received = self.kernel.test.received
        for msg in received[self._delivered_cursor:]:
            serial = msg.meta.get("shard_serial")
            if serial is not None:
                fates.append((serial, DELIVERED, msg.to_bytes()))
        self._delivered_cursor = len(received)
        fates.extend((serial, category, None)
                     for serial, category in self._drops)
        self._drops.clear()
        return fates

    # -- control-plane verbs ---------------------------------------------------

    def invalidate_flow(self, key: bytes) -> bool:
        """Drop one flow's cached classification (rebalance drain step)."""
        return self.kernel.flow_cache.invalidate_key(key)

    def control_state(self) -> Dict[str, Any]:
        return {
            "shedding": self.shedder.shedding,
            "shed_transitions": self.shedder.transitions,
            "stalls_detected": sum(w.stalls_detected
                                   for w in self.watchdogs.values()),
            "rebuilds": sum(w.rebuilds for w in self.watchdogs.values()),
            "overload_deferrals": sum(w.overload_deferrals
                                      for w in self.watchdogs.values()),
        }

    def __repr__(self) -> str:
        return (f"<ShardWorker shard={self.shard_id} "
                f"t={self.world.now:.0f}us>")

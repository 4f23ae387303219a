"""One shard of the fabric: a whole Scout kernel fed whole frame runs.

A shard is not a thread inside a shared kernel — it is a complete
:class:`~repro.kernel.ScoutKernel` (own :class:`~repro.sim.SimWorld`,
own scheduler, own flow cache, own admission state) that receives whole
frame runs from the dispatcher and answers with per-serial *fates*:
``delivered`` with the payload bytes, or the exact drop category its
admission/queues assigned.  Because every shard runs its own virtual
clock, shards are deterministic in isolation, which is what lets the
differential suite compare 1-, 2- and 4-shard runs byte for byte.
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
from ..observe.metrics import MetricsRegistry
from ..sim.world import SimWorld
from .books import ShardBooks

__all__ = ["ShardSpec", "ShardWorker", "SHARD_FAILOVER"]

#: Ledger category for serials orphaned by a dead worker.
SHARD_FAILOVER = "shard_failover"

#: Fate tuple: ``(serial, category, payload-or-None)``.
Fate = Tuple[int, str, Optional[bytes]]


class ShardSpec:
    """Recipe for building one shard's kernel.

    Every shard replicates the *same* local addresses: the fabric is one
    logical Scout machine, so a frame must validate (ETH dst, IP dst,
    UDP port) identically on whichever shard the dispatcher picks —
    that address-replication is what makes 1-shard and N-shard runs
    byte-comparable per flow.
    """

    __slots__ = ("shard_id", "seed", "ports", "batch", "inq_len",
                 "outq_len", "specialize", "local_mac", "local_ip",
                 "remote_mac", "remote_ip", "control_plane")

    def __init__(self, shard_id: int, seed: int = 0,
                 ports: Sequence[int] = (6100,),
                 batch: int = 8, inq_len: int = 64, outq_len: int = 64,
                 specialize: Optional[bool] = None,
                 local_mac: str = "02:00:00:00:00:01",
                 local_ip: str = "10.0.0.1",
                 remote_mac: str = "02:00:00:00:00:02",
                 remote_ip: str = "10.0.0.2",
                 control_plane: bool = False):
        self.shard_id = shard_id
        self.seed = seed
        self.ports = tuple(ports)
        self.batch = batch
        self.inq_len = inq_len
        self.outq_len = outq_len
        self.specialize = specialize
        self.local_mac = local_mac
        self.local_ip = local_ip
        self.remote_mac = remote_mac
        self.remote_ip = remote_ip
        self.control_plane = control_plane

    def __repr__(self) -> str:
        return (f"<ShardSpec shard={self.shard_id} ports={self.ports} "
                f"batch={self.batch}>")


class ShardWorker:
    """A full Scout kernel serving dispatched frame runs for one shard."""

    #: Bounded-slice width used when the control plane's periodic timers
    #: keep the engine from ever going idle.
    RUN_SLICE_US = 50_000.0

    def __init__(self, spec: ShardSpec):
        self.spec = spec
        self.shard_id = spec.shard_id
        self.world = SimWorld(seed=spec.seed)
        self.segment = EtherSegment(self.world.engine, rng=self.world.rng)
        self.kernel = ScoutKernel(
            self.world, self.segment,
            local_mac=spec.local_mac, local_ip=spec.local_ip,
            udp_sink=True, display=False, specialize=spec.specialize)
        self.kernel.arp.add_entry(IpAddr(spec.remote_ip),
                                  EthAddr(spec.remote_mac))
        self.metrics = MetricsRegistry()
        self._m_frames = self.metrics.counter(
            "shard_frames_in", shard=self.shard_id)
        self._m_delivered = self.metrics.counter(
            "shard_delivered", shard=self.shard_id)
        self._m_dropped = self.metrics.counter(
            "shard_dropped", shard=self.shard_id)
        self._m_batches = self.metrics.histogram(
            "shard_batch_frames", bounds=(1, 8, 32, 128, 512),
            shard=self.shard_id)
        self._m_inq_depth = self.metrics.gauge(
            "shard_inq_high_watermark", shard=self.shard_id)
        self._drops: List[Tuple[Optional[int], str]] = []
        self.kernel.drop_hook = self._on_drop
        self._delivered_cursor = 0
        for port in spec.ports:
            self.kernel.start_udp_sink(
                port, remote=(spec.remote_ip, 7000), batch=spec.batch,
                inq_len=spec.inq_len, outq_len=spec.outq_len,
                specialize=spec.specialize)
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
        if spec.control_plane:
            for port in spec.ports:
                self.watchdogs[port] = PathWatchdog(
                    self.world.engine, self.kernel.sink_paths[port],
                    rebuild=self._make_rebuild(port),
                    flow_cache=self.kernel.flow_cache,
                    overload_check=lambda: self.shedder.shedding,
                ).start()

    # -- kernel hooks ----------------------------------------------------------

    def _on_drop(self, msg, category: str) -> None:
        self._drops.append((msg.meta.get("shard_serial"), category))

    def _make_rebuild(self, port: int):
        def rebuild():
            # The watchdog deleted nothing yet: retire the wedged path's
            # port binding, then recreate the sink so the replacement
            # owns the port.  The watchdog adopts the returned path.
            if port in self.kernel.sink_paths:
                self.kernel.stop_udp_sink(port)
            path = self.kernel.start_udp_sink(
                port, remote=(self.spec.remote_ip, 7000),
                batch=self.spec.batch, inq_len=self.spec.inq_len,
                outq_len=self.spec.outq_len,
                specialize=self.spec.specialize)
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
        self._m_frames.inc(len(frames))
        self._m_batches.observe(len(frames))
        self.kernel.rx_burst(list(frames), metas=list(metas) if metas else None)
        self.shedder.admit()
        self._run_to_quiescence()
        depth = max((len(p.input_queue(BWD))
                     for p in self.kernel.sink_paths.values()), default=0)
        self._m_inq_depth.set(depth)
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
                self._m_delivered.inc()
        self._delivered_cursor = len(received)
        for serial, category in self._drops:
            if serial is not None:
                fates.append((serial, category, None))
                self._m_dropped.inc()
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

    # -- closing the books -----------------------------------------------------

    def books(self) -> ShardBooks:
        kernel = self.kernel
        account = {
            "delivered": len(kernel.test.received),
            "delivered_bytes": kernel.test.bytes_received,
            "drops": kernel.drop_ledger(),
        }
        return ShardBooks(self.shard_id, self.metrics, account,
                          kernel.stats(), control=self.control_state())

    def __repr__(self) -> str:
        return (f"<ShardWorker shard={self.shard_id} "
                f"t={self.world.now:.0f}us>")


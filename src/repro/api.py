"""The stable public facade: ``import repro.api`` and stop there.

Everything an application, example, or experiment script needs lives in
this module's ``__all__``: the :class:`Scout` kernel entry, the fluent
:class:`PathBuilder` (replacing hand-built attribute dicts), the
classifier :func:`classify`, path creation, multipath groups and
pools, the experiment testbed, and the names the bundled examples use.
The deep modules (``repro.core``, ``repro.net``, ...) remain importable —
they are the implementation surface and may reorganize between releases;
this facade is the surface that holds still.
"""

from __future__ import annotations

import asyncio
from typing import Any, Mapping, Optional, Tuple

from . import params
from .admission import (
    BackpressureShedder,
    CpuAdmission,
    FrameCostModel,
    MemoryAdmission,
)
from .core import (
    BWD,
    BWD_IN,
    BWD_OUT,
    FWD,
    FWD_IN,
    FWD_OUT,
    PA_BATCH,
    PA_FRAME_RATE,
    PA_INQ_LEN,
    PA_MEM_BUDGET,
    PA_NET_PARTICIPANTS,
    PA_OUTQ_LEN,
    PA_PATHNAME,
    PA_SCHED_POLICY,
    PA_SCHED_PRIORITY,
    PA_SPECIALIZE,
    PA_TRACE,
    AdmissionError,
    Attrs,
    ClassificationError,
    ClassifierStats,
    FlowCache,
    flow_key_frame,
    Msg,
    Path,
    PathQueue,
    RouterGraph,
    ScoutError,
    build_graph,
    classify,
    path_create,
    path_delete,
)
from .core.attributes import as_attrs
from .core.path_create import AdmissionHook
from .display import DisplayRouter
from .experiments import Testbed, frames_budget, run_edf_rr
from .faults import (
    AdversaryInjector,
    AdversarySpec,
    ArrivalEnvelope,
    DegradationGovernor,
    DropLedger,
    FaultyLink,
    PathWatchdog,
    StabilityVerdict,
    StageFault,
    StageFaultInjector,
    VerdictEngine,
    profile,
)
from .fs import ScsiRouter, UfsRouter, VfsRouter
from .http import HttpRouter
from .kernel import LinuxKernel, RouterKernel, ScoutKernel
from .mpeg import CANYON, FLOWER, NEPTUNE, PAPER_CLIPS, synthesize_clip
from .multipath import PathGroup, PathPool
from .shard import FabricBooks, ShardedKernel
from .net import (
    IPPROTO_TCP,
    IPPROTO_UDP,
    PA_LOCAL_PORT,
    ArpRouter,
    EthAddr,
    EthRouter,
    EtherSegment,
    ForwardRouter,
    IpAddr,
    IpHeader,
    IpRouter,
    Route,
    RouteTable,
    TcpHeader,
    TcpRouter,
    UdpHeader,
    UdpRouter,
    build_udp_frame,
    parse_frame,
)
from .topo import HostNode, Inventory, ProvisionedPath, Topology
from .net.sockdev import SocketNetDevice
from .observe import Observatory, StarvationDetector
from .observe.wallclock import WallClockBridge
from .sim import YIELD, Dequeue, SimWorld
from .sim.world import POLICY_EDF, POLICY_RR


class PathBuilder:
    """Fluent path construction: invariants in, established path out.

    Replaces hand-built :class:`Attrs` dicts::

        path = (PathBuilder(graph.router("TEST"))
                .invariant(PA_NET_PARTICIPANTS, ("10.0.0.2", 7000))
                .invariant(PA_LOCAL_PORT, 6100)
                .trace(observatory)
                .build())

    Each call returns the builder, so chains read as the attribute set
    they produce; :meth:`build` runs the ordinary four-phase
    :func:`path_create` with whatever transforms/admission hooks were
    attached.  A builder is single-shot per :meth:`build` call but may be
    reused — later builds see the same accumulated invariants.
    """

    def __init__(self, router: Any, transforms: Any = None,
                 admission: Optional[AdmissionHook] = None):
        self._router = router
        self._attrs = Attrs()
        self._transforms = transforms
        self._admission = admission

    def invariant(self, name: str, value: Any = True) -> "PathBuilder":
        """Add one invariant attribute (``PA_*`` name -> value)."""
        self._attrs[name] = value
        return self

    def invariants(self, mapping: Optional[Mapping[str, Any]] = None,
                   **named: Any) -> "PathBuilder":
        """Add several invariants at once (a mapping and/or keywords)."""
        if mapping is not None:
            for name, value in as_attrs(mapping).items():
                self._attrs[name] = value
        for name, value in named.items():
            self._attrs[name] = value
        return self

    def participants(self, host: Any, port: int) -> "PathBuilder":
        """Shorthand for the ``PA_NET_PARTICIPANTS`` invariant."""
        return self.invariant(PA_NET_PARTICIPANTS, (str(host), int(port)))

    def local_port(self, port: int) -> "PathBuilder":
        return self.invariant(PA_LOCAL_PORT, int(port))

    def trace(self, observatory: Any = True) -> "PathBuilder":
        """Arm per-path observability (``PA_TRACE``); pass the
        :class:`Observatory` to use, or ``True`` to let the kernel
        substitute its own."""
        return self.invariant(PA_TRACE, observatory)

    def batch(self, limit: int) -> "PathBuilder":
        """Let the path's thread drain up to *limit* messages per
        scheduler dispatch (``PA_BATCH``, DESIGN.md §13)."""
        return self.invariant(PA_BATCH, int(limit))

    def specialize(self, enabled: bool = True) -> "PathBuilder":
        """Pin this path's execution tier (``PA_SPECIALIZE``, DESIGN.md
        §11): ``True`` lets path creation ``exec``-generate one fused
        function per chain direction, ``False`` keeps the path on the
        reference walk.  Unset, the default (on) decides."""
        return self.invariant(PA_SPECIALIZE, bool(enabled))

    def admission(self, hook: Optional[AdmissionHook]) -> "PathBuilder":
        """Gate :meth:`build` through an admission hook (or ``None``)."""
        self._admission = hook
        return self

    def transforms(self, registry: Any) -> "PathBuilder":
        """Apply *registry*'s transformation rules at build time."""
        self._transforms = registry
        return self

    def attrs(self) -> Attrs:
        """The invariant set accumulated so far (live, not a copy)."""
        return self._attrs

    def build(self) -> Path:
        """Run four-phase path creation and return the established path."""
        return path_create(self._router, self._attrs,
                           transforms=self._transforms,
                           admission=self._admission)

    def __repr__(self) -> str:
        return (f"<PathBuilder {getattr(self._router, 'name', self._router)!r} "
                f"attrs={len(self._attrs)}>")


#: Backends the facade resolves, each with the executor name it implies
#: (DESIGN.md §18).  One :class:`~repro.sim.sched.Scheduler` runs the
#: path threads on every backend; the name only says who pumps it:
#: ``run()`` in virtual time, or ``serve()`` on an asyncio loop.
_IMPLIED_EXECUTOR = {"sim": "sim", "socket": "asyncio"}
BACKENDS = tuple(_IMPLIED_EXECUTOR)
EXECUTORS = tuple(_IMPLIED_EXECUTOR.values())

#: The one construction mode that is not a backend's own name.
_MODE_FABRIC = "fabric"


def _resolve_backend(backend: str, executor: Optional[str],
                     shards: Optional[int]) -> str:
    """The one decision point for every Scout construction shape.

    Validates the ``backend`` × ``shards`` combination and returns the
    construction mode (``'fabric'``, or the backend's name); every
    rejection is a :class:`ScoutError` that names the offending knob and
    the fix.  ``executor`` is not an axis: it is accepted only as the
    value *backend* already implies.
    """
    if backend not in BACKENDS:
        raise ScoutError(
            f"unknown backend {backend!r}: choose 'sim' (simulated "
            f"device, the tier-1 default) or 'socket' (real UDP "
            f"loopback sockets)")
    implied = _IMPLIED_EXECUTOR[backend]
    if executor is not None and executor != implied:
        if executor not in EXECUTORS:
            raise ScoutError(
                f"unknown executor {executor!r}: the executor follows "
                f"from the backend, so drop executor= and choose "
                f"backend='sim' or backend='socket'")
        raise ScoutError(
            f"backend={backend!r} requires executor={implied!r} (got "
            f"{executor!r}): the executor follows from the backend, so "
            f"drop executor= and choose backend='sim' (virtual time) or "
            f"backend='socket' (real packets, under 'async with')")
    if shards is not None and shards < 1:
        raise ScoutError(f"shards must be >= 1, got {shards}")
    if shards is not None and shards > 1:
        if backend != "sim":
            raise ScoutError(
                f"Scout(shards={shards}) is the deterministic fabric: "
                f"it requires backend='sim' (got backend={backend!r}); "
                f"run one wall-clock kernel per process instead")
        return _MODE_FABRIC
    return backend


class Scout:
    """One booted Scout machine, on virtual or wall-clock time.

    The three-line entry point the facade promises::

        with Scout(seed=7) as scout:
            scout.kernel.start_video(NEPTUNE, ("10.0.0.2", 7000))
            scout.run(5.0)

    Every single-kernel form wraps a :class:`~repro.sim.SimWorld` and a
    :class:`~repro.kernel.ScoutKernel`; the default adds a simulated
    :class:`~repro.net.EtherSegment`, the deterministic tier-1
    configuration.  One knob selects the wall-clock edge (DESIGN.md §18):

    ``backend='socket'``
        Frames arrive from a real UDP socket
        (:class:`~repro.net.sockdev.SocketNetDevice`) instead of the
        simulated segment, and :meth:`serve` pumps the same
        deterministic scheduler from an asyncio loop: priorities, EDF
        wakeups and timers mean what they mean in virtual time, which
        advances by charged work only (read it against real time via
        :meth:`wallclock`)::

            async with Scout(backend="socket") as s:
                s.kernel.start_udp_sink(6100, ("10.0.0.2", 7000))
                s.add_peer("10.0.0.2", "02:00:00:00:00:02", sender_addr)
                await s.serve(seconds=1.0)

    ``shards=N`` (N > 1) selects the deterministic fabric of
    DESIGN.md §17; it does not compose with the socket backend.  All
    combinations resolve through :func:`_resolve_backend`, which rejects
    unsupported shapes with a :class:`ScoutError` naming the fix.
    ``executor=`` survives only as the value the backend implies
    (``'sim'`` / ``'asyncio'``); anything else is rejected.
    Keyword arguments flow through to the kernel (admission hooks,
    flow-cache capacity, display mode, ...).  For multi-host simulated
    scenarios use :class:`Testbed`.
    """

    def __init__(self, seed: int = 0,
                 bandwidth_mbps: float = params.ETH_BANDWIDTH_MBPS,
                 latency_us: float = params.ETH_LINK_LATENCY_US,
                 shards: Optional[int] = None,
                 backend: str = "sim",
                 executor: Optional[str] = None,
                 host: str = "127.0.0.1",
                 port: int = 0,
                 rx_ring: int = 512,
                 **kernel_kwargs: Any):
        mode = _resolve_backend(backend, executor, shards)
        self.backend = backend
        self.executor = _IMPLIED_EXECUTOR[backend]
        self.fabric: Optional[Any] = None
        self.world = None
        self.segment = None
        self.kernel = None
        self.device: Optional[SocketNetDevice] = None
        self.bridge: Optional[WallClockBridge] = None
        self._books = None
        self._closed = False
        if mode == _MODE_FABRIC:
            # Sharded machine: N kernels behind one flow-hash RX
            # boundary (DESIGN.md §17).  Keyword arguments flow to
            # :class:`~repro.shard.ShardedKernel` (ports=, batch=,
            # inq_len=, ...); drive it with :meth:`offer` and close with
            # :meth:`merged_books`.
            self.fabric = ShardedKernel(shards=shards, seed=seed,
                                        **kernel_kwargs)
            return
        self.world = SimWorld(seed=seed)
        if mode == "socket":
            mac = kernel_kwargs.get("local_mac", "02:00:00:00:00:01")
            self.device = SocketNetDevice(mac, host=host, port=port,
                                          rx_ring=rx_ring)
            kernel_kwargs.setdefault("udp_sink", True)
            # The vsync loop is a virtual-time timer, and serve() only
            # advances virtual time by charged work; wall-clock kernels
            # run headless unless the caller insists.
            kernel_kwargs.setdefault("display", False)
            self.kernel = ScoutKernel(self.world, None, device=self.device,
                                      **kernel_kwargs)
            self.device.bind_metrics(self.kernel.observatory.metrics)
            self.bridge = WallClockBridge(self.world.cpu)
            self.bridge.bind_metrics(self.kernel.observatory.metrics)
        else:
            self.segment = EtherSegment(self.world.engine,
                                        bandwidth_mbps=bandwidth_mbps,
                                        latency_us=latency_us,
                                        rng=self.world.rng)
            self.kernel = ScoutKernel(self.world, self.segment,
                                      **kernel_kwargs)

    @property
    def now(self) -> float:
        """Current virtual time in microseconds."""
        self._require_single_kernel("now")
        return self.world.now

    def run(self, seconds: float) -> None:
        """Advance virtual time by *seconds* (simulated backend)."""
        self._require_single_kernel("run")
        if self.device is not None:
            raise ScoutError(
                "run() jumps virtual time forward, which on "
                "backend='socket' advances by charged work only: use "
                "'await serve(...)' / 'await settle()' inside "
                "'async with Scout(backend='socket')'")
        self.world.run_for(seconds * 1_000_000.0)

    def _require_single_kernel(self, what: str) -> None:
        if self.fabric is not None:
            raise ScoutError(
                f"Scout(shards=N) is a fabric: {what} belongs to the "
                f"single-kernel form; use offer()/merged_books() or the "
                f"fabric attribute")

    def _require_socket(self, what: str) -> None:
        self._require_single_kernel(what)
        if self.device is None:
            raise ScoutError(
                f"{what} needs backend='socket': the simulated backend "
                f"is driven synchronously via run()")

    # -- wall-clock lifecycle ---------------------------------------------------

    async def start(self) -> None:
        """Open the device and start the wall-clock bridge (idempotent)."""
        self._require_socket("start")
        await self.device.open()
        if not self.bridge.running():
            self.bridge.start()

    async def serve(self, seconds: Optional[float] = None,
                    batch: int = 64) -> None:
        """Pump the device until *seconds* elapse (or, with ``None``,
        until the device is closed).

        Each burst from the device's receive ring goes to
        ``kernel.rx_burst`` (the same interrupt-time classify/admit
        boundary the simulated device feeds) and then the scheduler
        runs until every path thread is blocked again
        (:meth:`SimWorld.run_ready <repro.sim.SimWorld.run_ready>`).  A
        thread body that raises fails ``serve()`` with that error.
        """
        self._require_socket("serve")
        await self.start()
        loop = asyncio.get_running_loop()
        deadline = None if seconds is None else loop.time() + seconds
        while self.device.is_open or self.device.pending():
            timeout = None if deadline is None else deadline - loop.time()
            if timeout is not None and timeout <= 0:
                break
            # The ring refills only on loop turns, so this await parks at
            # least once per rx_ring frames: the pump cannot starve the
            # loop and needs no sleep(0) of its own.
            frames = await self.device.next_burst(limit=batch,
                                                  timeout=timeout)
            if frames:
                self.kernel.rx_burst(frames)
                self.world.run_ready()

    async def settle(self) -> None:
        """Run the scheduler until every path thread is blocked."""
        self._require_socket("settle")
        self.world.run_ready()

    async def aclose(self) -> None:
        """Close the device (idempotent)."""
        self._require_socket("aclose")
        self.close()

    async def __aenter__(self) -> "Scout":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    # -- sync lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release whatever this Scout holds (idempotent).

        Fabric form: stops the workers and caches the reconciled books
        for :meth:`merged_books`.  Simulated single-kernel form: a
        definite end for ``with Scout(...)`` scripts.  The socket
        backend closes its device (``async with`` does the same).
        """
        if self._closed:
            return
        self._closed = True
        if self.fabric is not None:
            self._books = self.fabric.finish()
        if self.device is not None:
            self.device.close()

    def __enter__(self) -> "Scout":
        if self.device is not None:
            raise ScoutError(
                "backend='socket' has an async lifecycle: use "
                "'async with Scout(backend='socket') as s'")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- wall-clock bookkeeping -------------------------------------------------

    def wallclock(self) -> dict:
        """One :class:`~repro.observe.wallclock.WallClockBridge`
        snapshot: real seconds vs virtual CPU seconds charged."""
        self._require_socket("wallclock")
        return self.bridge.snapshot()

    def add_peer(self, ip: Any, mac: Any,
                 address: Optional[Tuple[str, int]] = None) -> None:
        """Teach the kernel a neighbour: ARP entry (IP -> MAC) plus,
        on the socket backend, the MAC -> UDP address mapping."""
        self._require_single_kernel("add_peer")
        self.kernel.arp.add_entry(IpAddr(ip), EthAddr(mac))
        if address is not None:
            if self.device is None:
                raise ScoutError(
                    "add_peer(address=...) maps a MAC to a UDP "
                    "address, which only backend='socket' uses")
            self.device.add_peer(mac, address)

    # -- sharded form ----------------------------------------------------------

    def offer(self, frames, metas=None):
        """Feed one frame run through the shard fabric's RX boundary."""
        if self.fabric is None:
            raise ScoutError("offer() needs Scout(shards=N)")
        return self.fabric.offer(frames, metas)

    def merged_books(self):
        """Stop the fabric's workers and return the reconciled
        :class:`~repro.shard.FabricBooks`."""
        if self.fabric is None:
            raise ScoutError("merged_books() needs Scout(shards=N)")
        if self._books is None:
            self._closed = True
            self._books = self.fabric.finish()
        return self._books

    def path(self, router: Any) -> PathBuilder:
        """A :class:`PathBuilder` rooted at *router*, pre-wired with the
        kernel's transformation rules and admission hook."""
        self._require_single_kernel("path")
        return PathBuilder(router, transforms=self.kernel.transforms,
                           admission=self.kernel.admission)

    def stats(self) -> dict:
        self._require_single_kernel("stats")
        return self.kernel.stats()

    def __repr__(self) -> str:
        if self.fabric is not None:
            return f"<Scout fabric {self.fabric!r}>"
        return (f"<Scout {self.kernel.ip.addr} backend={self.backend} "
                f"t={self.world.now:.0f}us>")


__all__ = [
    # entry points
    "Scout", "PathBuilder", "Testbed", "ScoutKernel", "LinuxKernel",
    "SimWorld", "EtherSegment", "Observatory",
    # wall-clock edge (backend selection, DESIGN.md §18)
    "BACKENDS", "EXECUTORS", "SocketNetDevice", "WallClockBridge",
    # multi-hop forwarding & the discovery control plane
    "Topology", "ProvisionedPath", "HostNode", "Inventory",
    "RouterKernel", "ForwardRouter", "Route", "RouteTable",
    # path architecture
    "path_create", "path_delete", "build_graph", "RouterGraph",
    "Attrs", "Msg", "Path", "PathQueue", "FlowCache",
    "FWD", "BWD", "FWD_IN", "FWD_OUT", "BWD_IN", "BWD_OUT",
    # classification
    "classify", "ClassifierStats",
    # multipath
    "PathGroup", "PathPool",
    # shard fabric
    "ShardedKernel", "FabricBooks", "flow_key_frame",
    # attributes
    "PA_NET_PARTICIPANTS", "PA_LOCAL_PORT", "PA_PATHNAME", "PA_FRAME_RATE",
    "PA_SCHED_POLICY", "PA_SCHED_PRIORITY", "PA_INQ_LEN", "PA_OUTQ_LEN",
    "PA_MEM_BUDGET", "PA_TRACE", "PA_BATCH", "PA_SPECIALIZE",
    # scheduling policies
    "POLICY_RR", "POLICY_EDF",
    # path-thread operations
    "Dequeue", "YIELD",
    # admission
    "CpuAdmission", "MemoryAdmission", "FrameCostModel",
    "BackpressureShedder",
    # routers & net helpers the examples build graphs from
    "EthRouter", "ArpRouter", "IpRouter", "UdpRouter", "TcpRouter",
    "HttpRouter", "VfsRouter", "UfsRouter", "ScsiRouter", "DisplayRouter",
    "EthAddr", "IpAddr", "IpHeader", "UdpHeader", "TcpHeader",
    "IPPROTO_UDP", "IPPROTO_TCP", "build_udp_frame", "parse_frame",
    # clips & experiments
    "NEPTUNE", "CANYON", "FLOWER", "PAPER_CLIPS", "synthesize_clip",
    "run_edf_rr", "frames_budget",
    # faults / self-healing
    "PathWatchdog", "DegradationGovernor", "FaultyLink",
    "StageFault", "StageFaultInjector", "profile",
    # adversarial traffic & stability verdicts
    "AdversarySpec", "AdversaryInjector", "ArrivalEnvelope",
    "DropLedger", "StabilityVerdict", "VerdictEngine",
    "StarvationDetector",
    # errors
    "ScoutError", "AdmissionError", "ClassificationError",
    # tunables
    "params",
]


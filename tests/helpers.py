"""Shared test fixtures: tiny routers exercising the path architecture.

These are deliberately minimal "protocol" routers: each one tags messages
with its name so tests can assert traversal order, and the chain ends by
depositing the message on the path's output queue for the direction
traveled — the job the paper assigns to extreme stages.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core import (
    Attrs,
    DemuxResult,
    Msg,
    NextHop,
    Router,
    Stage,
    forward,
    turn_around,
)
from repro.sim import SimWorld


class TraceStage(Stage):
    """A stage whose deliver functions record traversal and forward."""

    def __init__(self, router, enter_service=None, exit_service=None,
                 absorb=False, bounce=False):
        super().__init__(router, enter_service, exit_service)
        self.absorb = absorb
        self.bounce = bounce
        self.established_with = None
        self.destroyed = False
        for direction in (0, 1):
            self.set_deliver(direction, self._make_deliver(direction))

    def _make_deliver(self, direction):
        def deliver(iface, msg, d, **kwargs):
            msg.meta.setdefault("trace", []).append((self.router.name, d))
            if self.bounce and not msg.meta.get("bounced"):
                msg.meta["bounced"] = True
                return turn_around(iface, msg, d, **kwargs)
            if self.absorb:
                msg.meta["absorbed_at"] = self.router.name
                return None
            if iface.next is None:
                self.path.output_queue(d).enqueue(msg)
                return None
            return forward(iface, msg, d, **kwargs)
        return deliver

    def establish(self, attrs: Attrs) -> None:
        self.established_with = attrs.snapshot()

    def destroy(self) -> None:
        self.destroyed = True


class ChainRouter(Router):
    """A router that always routes to the peer on its ``down`` service.

    Building a chain ``A.down -> B.up``, ``B.down -> C.up`` lets
    ``path_create`` walk A, B, C and stop at C (no ``down`` connection).
    """

    SERVICES = ("up:net", "<down:net")

    def __init__(self, name: str, absorb: bool = False, bounce: bool = False):
        super().__init__(name)
        self.absorb = absorb
        self.bounce = bounce
        self.stages_created = 0
        self.init_count = 0
        self.init_seq: Optional[int] = None

    def init(self) -> None:
        super().init()
        self.init_count += 1
        ChainRouter._init_counter = getattr(ChainRouter, "_init_counter", 0) + 1
        self.init_seq = ChainRouter._init_counter

    def create_stage(self, enter_service: int, attrs: Attrs
                     ) -> Tuple[Optional[Stage], Optional[NextHop]]:
        self.stages_created += 1
        enter = self.services[enter_service] if enter_service >= 0 else None
        down = self.service("down")
        if down.links:
            peer_router, peer_service = down.links[0].peer_of(down)
            stage = TraceStage(self, enter, down,
                               absorb=self.absorb, bounce=self.bounce)
            return stage, NextHop(peer_router, peer_service, attrs)
        stage = TraceStage(self, enter, None,
                           absorb=self.absorb, bounce=self.bounce)
        return stage, None

    def demux(self, msg: Msg, service, offset: int = 0) -> DemuxResult:
        """Classify on a one-byte tag: first byte names the router that can
        decide; everyone else forwards down."""
        tag = msg.peek(1, at=offset) if len(msg) > offset else b""
        if tag == self.name[:1].encode():
            path = getattr(self, "bound_path", None)
            if path is not None:
                return DemuxResult.found(path)
            return DemuxResult.drop(f"{self.name}: no bound path")
        down = self.service("down")
        if down.links:
            peer_router, peer_service = down.links[0].peer_of(down)
            return DemuxResult.refine(peer_router, peer_service, consumed=1)
        return DemuxResult.drop(f"{self.name}: tag {tag!r} unknown")


def make_chain(*names: str, **routers_kwargs) -> Tuple["RouterGraphLike", list]:
    """Build a linear graph of :class:`ChainRouter` and boot it."""
    from repro.core import RouterGraph

    graph = RouterGraph()
    routers = [graph.add(ChainRouter(name, **routers_kwargs.get(name, {})))
               for name in names]
    for upper, lower in zip(routers, routers[1:]):
        graph.connect(f"{upper.name}.down", f"{lower.name}.up")
    graph.boot()
    return graph, routers


def record_spawns(monkeypatch) -> list:
    """The list every thread any :class:`SimWorld` spawns from now on
    lands in, the ones a kernel starts while it boots included (the
    scheduler keeps no roster, so a test that asks "is every path thread
    still alive" keeps its own)."""
    spawned = []
    spawn = SimWorld.spawn

    def recording_spawn(world, *args, **kwargs):
        thread = spawn(world, *args, **kwargs)
        spawned.append(thread)
        return thread

    monkeypatch.setattr(SimWorld, "spawn", recording_spawn)
    return spawned

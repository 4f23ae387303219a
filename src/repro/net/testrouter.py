"""The TEST router of Figure 7: a message source/sink atop the stack.

Used by the path-structure tests and the Section 3.6 microbenchmark: "a
path to transmit and receive UDP packets consists of six stages" — TEST,
UDP, IP, ETH contribute interior stages and the two extreme ends close the
count.  TEST's receive side records what arrived and deposits it on the
path's output queue for the kernel (or test) to observe.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.attributes import Attrs
from ..core.graph import register_router
from ..core.message import Msg
from ..core.router import DemuxResult, NextHop, Router, Service
from ..core.specialize import StageFragment, register_specializer
from ..core.stage import BWD, FWD, Stage, forward
from .common import charge


class TestStage(Stage):
    """TEST's contribution: source on FWD, sink on BWD."""

    def __init__(self, router: "TestRouter", enter_service, exit_service):
        super().__init__(router, enter_service, exit_service)
        self.set_deliver(FWD, self._send)
        self.set_deliver(BWD, self._sink)

    def _send(self, iface, msg: Msg, direction: int, **kwargs):
        charge(msg, 1.0)
        return forward(iface, msg, direction, **kwargs)

    def _sink(self, iface, msg: Msg, direction: int, **kwargs):
        router: TestRouter = self.router  # type: ignore[assignment]
        charge(msg, 1.0)
        router.received.append(msg)
        router.bytes_received += len(msg)
        if not self.path.output_queue(direction).try_enqueue(msg):
            router.sink_overflows += 1
        return None


def _specialize_test_sink(stage: TestStage, iface, direction: int,
                          terminal: bool) -> Optional[StageFragment]:
    """Fuse :meth:`TestStage._sink`: charge, record, per-message enqueue.

    Only valid as the chain's last entry — the sink absorbs everything.
    ``try_enqueue`` stays a per-message call (its drop accounting and
    queue listeners — scheduler wakeups, watchdog liveness — must fire
    exactly as the scalar sink would make them fire).
    """
    if direction != BWD or not terminal:
        return None
    if not stage.has_pristine_deliver(BWD, TestStage._sink):
        return None
    if stage.path is None:
        return None
    router = stage.router
    # Path queues are created once in Path.__init__ and never replaced,
    # so the bound enqueue method is safe to bake in.
    outq = stage.path.output_queue(direction)

    def body(ctx):
        tr = ctx.bind(router, "test_router")
        enq = ctx.bind(outq.try_enqueue, "enqueue")
        return ["meta['cost_us'] = c",
                "%s.received.append(m)" % tr,
                "%s.bytes_received += len(m)" % tr,
                "if not %s(m):" % enq,
                "    %s.sink_overflows += 1" % tr]

    def cost_expr(ctx):
        return "1.0"

    return StageFragment(cost_expr=cost_expr, body=body, terminal=True)


register_specializer(TestStage, _specialize_test_sink)


@register_router("TestRouter")
class TestRouter(Router):
    """A top-of-stack message source/sink."""

    SERVICES = ("<down:net",)

    def __init__(self, name: str):
        super().__init__(name)
        self.received: List[Msg] = []
        self.bytes_received = 0
        self.sink_overflows = 0

    def create_stage(self, enter_service: int, attrs: Attrs
                     ) -> Tuple[Optional[Stage], Optional[NextHop]]:
        enter = self.services[enter_service] if enter_service >= 0 else None
        down = self.service("down")
        if len(down.links) != 1:
            stage = TestStage(self, enter, None)
            return stage, None
        peer_router, peer_service = down.links[0].peer_of(down)
        stage = TestStage(self, enter, down)
        return stage, NextHop(peer_router, peer_service, attrs)

    def demux(self, msg: Msg, service: Optional[Service],
              offset: int = 0) -> DemuxResult:
        path = getattr(self, "bound_path", None)
        if path is None:
            return DemuxResult.drop(f"{self.name}: no bound path")
        return DemuxResult.found(path)

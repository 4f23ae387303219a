"""Stages: a path's fixed routing decisions.

Section 3.2: "Scout paths consist of a sequence of stages.  Each router
that is crossed by a path creates one such stage.  Since a path enters a
router at one service and leaves it through another, a stage effectively
connects a pair of services.  That is, it represents a fixed routing
decision."

A stage owns up to two interfaces (the paper's ``Iface end[2]``): one that
processes messages traveling in the forward direction and one for the
backward direction.  Extreme-end stages own only the interface for the
direction that actually enters the path there ("these extreme stages are,
strictly speaking, not part of the path but they are used to connect to
the routers that manage the path queues").
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TYPE_CHECKING

from .attributes import Attrs
from .interfaces import Iface, NetIface

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance for hints only
    from .path import Path
    from .router import Router, Service

#: Direction constants (Section 2.4.1): FWD is the direction in which the
#: path was created, BWD the reverse.
FWD, BWD = 0, 1

DIRECTION_NAMES = ("FWD", "BWD")


def opposite(direction: int) -> int:
    """Return the other direction."""
    return 1 - direction


class Stage:
    """One router's contribution to a path (the paper's ``struct Stage``).

    Parameters
    ----------
    router:
        The router that created this stage.
    enter_service, exit_service:
        The services through which the path enters and leaves the router
        (either may be ``None`` at the extreme ends of the path).
    iface_factory:
        Interface class instantiated for each direction (default
        :class:`NetIface`).
    """

    #: Modeled C footprint (Section 3.6: stages are "on the order of 150
    #: bytes ... including all the interfaces"): two interface pointers,
    #: path and router pointers, two function pointers, the service-pair
    #: record, and per-stage scratch state.
    MODELED_BYTES = 2 * 8 + 2 * 8 + 2 * 8 + 2 * 8 + 40

    def __init__(self, router: "Router",
                 enter_service: Optional["Service"] = None,
                 exit_service: Optional["Service"] = None,
                 iface_factory: Callable[..., Iface] = NetIface):
        self.router = router
        self.path: Optional["Path"] = None
        self.enter_service = enter_service
        self.exit_service = exit_service
        self.end = [iface_factory(stage=self), iface_factory(stage=self)]
        #: Arbitrary per-stage state (reassembly buffers, sequence numbers).
        self.state: dict = {}

    # -- hooks ----------------------------------------------------------------

    def establish(self, attrs: Attrs) -> None:
        """Initialization that depends on the existence of the entire path.

        Called once the whole path object exists, in stage-creation order
        (phase 3 of path creation).  Default: nothing.
        """

    def destroy(self) -> None:
        """Tear down per-stage resources when the path is deleted."""

    # -- deliver plumbing ---------------------------------------------------------

    def set_deliver(self, direction: int, fn: Callable[..., Any]) -> None:
        """Install the processing function for *direction*.

        This is the mutable function pointer that path transformations
        overwrite: "if a path contains a sequence of interfaces for which
        there is optimized code available, then the function pointers in
        the interfaces can be updated to point to this optimized code."

        Overwriting a pointer invalidates any function generated for the
        chain, so the owning path's generation counter is bumped and the
        next traversal re-specializes transparently (the deopt protocol,
        DESIGN.md §11).
        """
        self.end[direction].deliver = fn
        if self.path is not None:
            self.path.chain_generation += 1

    def deliver_fn(self, direction: int) -> Optional[Callable[..., Any]]:
        return getattr(self.end[direction], "deliver", None)

    def has_pristine_deliver(self, direction: int,
                             func: Callable[..., Any]) -> bool:
        """True when the installed deliver function for *direction* is the
        un-interposed bound method whose underlying function is *func*.

        This is the recognition test the specializer runs before fusing
        a stage's body into generated code: any wrapper or replacement —
        probes, fault injectors, transformations — fails it, so the
        fused function can only ever contain semantics that are actually
        installed.  Interposition *after* generation is caught
        separately by the ``chain_generation`` bump the setters perform.
        """
        installed = self.deliver_fn(direction)
        return getattr(installed, "__func__", None) is func

    def wrap_deliver(self, direction: int,
                     wrapper: Callable[[Callable[..., Any]],
                                       Callable[..., Any]]) -> bool:
        """Wrap the installed deliver function for *direction*.

        The profiling probes use this to interpose spans around stage
        processing without knowing anything about interface internals.
        Returns False (and does nothing) when no deliver function is
        installed for that direction — e.g. the unused side of an extreme
        stage.
        """
        inner = self.deliver_fn(direction)
        if inner is None:
            return False
        self.end[direction].deliver = wrapper(inner)
        if self.path is not None:
            self.path.chain_generation += 1
        return True

    # -- accounting -----------------------------------------------------------------

    def note_drop(self, msg: Any, reason: str, category: str = "drop") -> None:
        """Uniform discard bookkeeping for stage deliver functions: stamps
        ``msg.meta["drop_reason"]`` and, when the stage belongs to a live
        path, bumps the path's per-category drop counters."""
        if self.path is not None:
            self.path.note_drop(msg, reason, category)
        else:
            meta = getattr(msg, "meta", None)
            if meta is not None:
                meta["drop_reason"] = reason

    def modeled_size(self) -> int:
        """Modeled byte footprint of this stage including its interfaces."""
        total = self.MODELED_BYTES
        for iface in self.end:
            if iface is not None:
                total += type(iface).modeled_size()
        return total

    def __repr__(self) -> str:
        enter = self.enter_service.name if self.enter_service else "-"
        leave = self.exit_service.name if self.exit_service else "-"
        return f"<Stage {self.router.name} {enter}->{leave}>"


def forward(iface: Iface, msg: Any, direction: int,
            **kwargs: Any) -> Any:
    """Forward *msg* from *iface* to the next interface in its direction.

    When there is no next interface the message has reached the path's
    end; the caller (normally an extreme stage's deliver function) is
    responsible for enqueueing it, so reaching this case from an interior
    stage is a wiring bug and raised as such.
    """
    nxt = iface.next
    if nxt is None:
        raise RuntimeError(
            f"{iface!r} has no next interface; interior stages must be "
            f"chained before delivery")
    return nxt.deliver(nxt, msg, direction, **kwargs)


def turn_around(iface: Iface, msg: Any, direction: int,
                **kwargs: Any) -> Any:
    """Send *msg* back in the opposite direction (Section 2.4.1).

    Follows the interface's ``back`` pointer — "the next interface in the
    opposite direction" — so processing resumes at the neighbouring stage
    on the side the message came from, now traveling the other way.
    """
    back = iface.back
    if back is None:
        raise RuntimeError(f"{iface!r} has no back interface; cannot turn around")
    return back.deliver(back, msg, opposite(direction), **kwargs)

"""Path attributes: the invariants that drive path creation.

Section 3.3 of the paper: "A path is created by invoking pathCreate on a
router r.  The kind of path to be created is described by the set of
attributes a.  These attributes are arbitrary name/value pairs that specify
the invariants that hold true for the path being created."

Attributes serve three distinct roles in Scout, all supported here:

1. **Invariants at creation time** — e.g. ``PA_NET_PARTICIPANTS`` names the
   remote address a path talks to, which lets IP freeze its routing
   decision.
2. **Routing forcing / hints** — ``PA_PATHNAME`` forces specific routing
   decisions when no other information is available (the SHELL router uses
   it to steer DISPLAY toward MPEG).
3. **Anonymous shared state on a live path** — "attributes allow to attach
   arbitrary state to a particular path ... this enables stages to exchange
   and share information anonymously" (Section 3.2).  The measured
   average packet processing time in Section 4.2 is such an attribute.

The well-known attribute names used by the demonstration application are
exported as module constants so routers agree on spelling.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

#: Remote network participant, value is an ``(ip_addr, udp_port)`` tuple.
PA_NET_PARTICIPANTS = "PA_NET_PARTICIPANTS"

#: Forced routing string, e.g. ``"MPEG"`` (Section 4.1).
PA_PATHNAME = "PA_PATHNAME"

#: Protocol id of the next-higher networking protocol (Section 4.1).
PA_PROTID = "PA_PROTID"

#: Scheduling policy requested for threads executing this path.
PA_SCHED_POLICY = "PA_SCHED_POLICY"

#: Scheduling priority (for round-robin) requested for this path.
PA_SCHED_PRIORITY = "PA_SCHED_PRIORITY"

#: Target playback rate in frames/second for video paths.
PA_FRAME_RATE = "PA_FRAME_RATE"

#: Requested input queue capacity (messages).
PA_INQ_LEN = "PA_INQ_LEN"

#: Requested output queue capacity (messages/frames).
PA_OUTQ_LEN = "PA_OUTQ_LEN"

#: Memory budget granted by admission control, in bytes.
PA_MEM_BUDGET = "PA_MEM_BUDGET"

#: Running estimate of per-packet processing time, maintained by a
#: transformation-rule-installed probe (Section 4.2).
PA_AVG_PROC_TIME = "PA_AVG_PROC_TIME"

#: Running estimate of the network round-trip time, measured by MFLOW.
PA_AVG_RTT = "PA_AVG_RTT"

#: Observability invariant: request tracing + metrics for this path.
#: The value is an object with an ``instrument(path)`` hook (normally an
#: :class:`~repro.observe.Observatory`); path creation invokes it after
#: transformation rules run, so instrumentation wraps the final
#: (possibly optimized) deliver functions.  Kernels accept ``True`` as a
#: convenience and substitute their own observatory before creating the
#: path.
PA_TRACE = "PA_TRACE"

#: Batch limit for the path's thread (messages per scheduler dispatch).
#: 1 (the default) keeps the paper's one-message-per-wakeup behaviour;
#: N > 1 lets the thread drain up to N queued messages per dispatch via
#: the batched execution machinery of DESIGN.md §13.
PA_BATCH = "PA_BATCH"

#: Execution tier for this path (DESIGN.md §11).  ``True``/``False``
#: overrides the ``path_create(specialize=...)`` argument, which
#: overrides the default (on).  Specialized paths ``exec``-generate one
#: fused function per direction; ``False`` pins the reference walk;
#: observed (``PA_TRACE``) paths never specialize.
PA_SPECIALIZE = "PA_SPECIALIZE"


class Attrs:
    """An ordered set of name/value attribute pairs.

    ``Attrs`` behaves like a mapping but adds the operations path creation
    needs: non-destructive extension (routers pass a *possibly modified*
    set of attributes down the chain without disturbing their caller's
    view) and snapshots for auditing which invariants a path was created
    with.
    """

    __slots__ = ("_items",)

    def __init__(self, initial: Optional[Mapping[str, Any]] = None, **kwargs: Any):
        self._items: Dict[str, Any] = {}
        if initial is not None:
            self._items.update(initial)
        self._items.update(kwargs)

    # -- mapping protocol -------------------------------------------------

    def __getitem__(self, name: str) -> Any:
        return self._items[name]

    def __setitem__(self, name: str, value: Any) -> None:
        if not isinstance(name, str) or not name:
            raise TypeError("attribute names must be non-empty strings")
        self._items[name] = value

    def __delitem__(self, name: str) -> None:
        del self._items[name]

    def __contains__(self, name: object) -> bool:
        return name in self._items

    def __iter__(self) -> Iterator[str]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def get(self, name: str, default: Any = None) -> Any:
        """Return the value for *name*, or *default* when absent."""
        return self._items.get(name, default)

    def items(self) -> Iterator[Tuple[str, Any]]:
        """Iterate over ``(name, value)`` pairs in insertion order."""
        return iter(self._items.items())

    def keys(self):
        return self._items.keys()

    def values(self):
        return self._items.values()

    # -- path-creation helpers --------------------------------------------

    def set(self, name: str, value: Any) -> "Attrs":
        """Set *name* in place and return ``self`` (for chaining)."""
        self[name] = value
        return self

    def extended(self, **kwargs: Any) -> "Attrs":
        """Return a copy of this set with *kwargs* added or overridden.

        This is the operation a router uses to pass "the (possibly
        modified) set of attributes" to the next router without mutating
        its caller's invariants — e.g. TCP resetting ``PA_PROTID`` to 6
        before forwarding path creation to IP.
        """
        child = Attrs(self._items)
        child._items.update(kwargs)
        return child

    def without(self, *names: str) -> "Attrs":
        """Return a copy with *names* removed (missing names are ignored)."""
        child = Attrs(self._items)
        for name in names:
            child._items.pop(name, None)
        return child

    def merge(self, other: Optional[Mapping[str, Any]]) -> "Attrs":
        """Return a copy with *other*'s pairs layered on top of this set."""
        child = Attrs(self._items)
        if other is not None:
            child._items.update(other)
        return child

    def snapshot(self) -> Dict[str, Any]:
        """Return a plain-dict copy of the current pairs."""
        return dict(self._items)

    def require(self, name: str) -> Any:
        """Return the value for *name*, raising ``KeyError`` with a
        routing-friendly message when the invariant is missing."""
        try:
            return self._items[name]
        except KeyError:
            raise KeyError(
                f"path attribute {name!r} is required but was not supplied"
            ) from None

    # -- comparison & debugging -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Attrs):
            return self._items == other._items
        if isinstance(other, Mapping):
            return self._items == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}" for k, v in self._items.items())
        return f"Attrs({body})"


def as_attrs(value: Optional[Mapping[str, Any]]) -> Attrs:
    """Coerce *value* (``None``, mapping, or ``Attrs``) into an ``Attrs``."""
    if value is None:
        return Attrs()
    if isinstance(value, Attrs):
        return value
    return Attrs(value)

"""Packet classification: mapping data to the path that processes it.

Section 3.5: "each Scout router provides a demux operation that maps the
data into a path that can be used to process that data ... Any given
router typically implements only a small portion of the entire
classification process.  If a router cannot make a unique classification
decision, it may ask the next router to refine that decision.  This
continues until either a unique path is found or until it is determined
that no appropriate path exists.  In the latter case the offending data is
simply discarded."

The Scout classifier's requirements (both honored here):

* **efficient enough for peak loads** — the chain is a handful of
  dictionary probes over peeked header bytes, and established flows skip
  it entirely via the :class:`~repro.core.flowcache.FlowCache` consulted
  before the first demux (``benchmarks/e2e`` times both:
  ``probe.core.classify.hit_ns`` and ``probe.core.classify.miss_ns``);
* **relaxed (best-effort) accuracy** — a router may return a path that is
  merely "good enough" (e.g. the short/fat reassembly path for IP
  fragments); the IP router later *reruns* the classifier on the
  reassembled datagram to find the next path.
"""

from __future__ import annotations

from typing import Optional

from .errors import ClassificationError
from .flowcache import FLOW_KEY_BYTES, flow_key_frame
from .message import Msg
from .path import DELETED, Path
from .router import DemuxResult, Router, Service

#: Refinement-hop cap: a demux cycle is a router bug, not a data property.
MAX_REFINEMENTS = 32

def _group_dispatch(group, msg: Msg,
                    stats: Optional[ClassifierStats]) -> Optional[Path]:
    """The group's selection policy picks the member serving *msg*;
    ``None``, recorded as a discard, when no member is live."""
    member = group.dispatch(msg)
    if member is None:
        msg.meta["drop_reason"] = (
            f"path group #{group.gid} has no live member")
        group.note_dispatch_failure()
        if stats is not None:
            stats.dropped += 1
    return member


class ClassifierStats:
    """Counters for classification outcomes, used by experiments."""

    __slots__ = ("classified", "dropped", "refinements", "cache_hits")

    def __init__(self) -> None:
        self.classified = 0
        self.dropped = 0
        self.refinements = 0
        self.cache_hits = 0


def classify(router: Router, msg: Msg, service: Optional[Service] = None,
             stats: Optional[ClassifierStats] = None,
             cache=None) -> Optional[Path]:
    """Run the incremental demux chain starting at *router*.

    Returns the path to use, or ``None`` when no appropriate path exists
    (the data is to be discarded; the reason is recorded in
    ``msg.meta["drop_reason"]`` for observability).

    When a *cache* (:class:`~repro.core.flowcache.FlowCache`) is
    supplied it is consulted before the refinement chain — an established
    flow classifies in one probe — and successful chain classifications
    populate it.  The message is keyed once, for both, by
    :func:`~repro.core.flowcache.flow_key_frame` over its first 42
    bytes.  The cache itself guarantees it never returns a path that is
    not ESTABLISHED.  A burst of arrivals is this call once per message,
    in arrival order (see ``PathRuntime.rx_burst``): the first message of
    a new flow inserts the entry the flow's later messages hit.

    **Multipath dispatch happens here, at the demux boundary.**  When the
    classified path belongs to a :class:`~repro.multipath.PathGroup`, the
    group's selection policy picks the member that actually processes the
    message.  A *sticky* policy pins the flow by inserting the selected
    member into the cache (subsequent packets hit the pin directly, until
    the policy asks for a re-spread and :meth:`PathGroup.purge_pins`
    drops them); a non-sticky policy caches the demuxed anchor instead,
    so every packet still classifies in one probe but is re-dispatched
    through the policy.

    The chain runs at interrupt time in Scout; callers that model CPU cost
    account for it separately (see :mod:`repro.sim.cpu`).
    """
    key = None
    if cache is not None and len(msg) >= FLOW_KEY_BYTES:
        key = flow_key_frame(msg.peek(FLOW_KEY_BYTES))
    if key is not None:
        path = cache.lookup(key, msg)
        if path is not None and path.group is not None:
            group = path.group
            if not group.policy.sticky:
                # A cached group anchor: the policy re-dispatches every
                # message.
                path = _group_dispatch(group, msg, stats)
                if path is None:
                    return None
            elif group.take_respread():
                # The policy dropped its pins: re-walk the chain so the
                # flow is re-placed.
                path = None
        if path is not None:
            if stats is not None:
                stats.classified += 1
                stats.cache_hits += 1
            observer = path.observer
            if observer is not None:
                observer.on_demux(msg, 1)
            return path
    offset = 0
    current: Router = router
    current_service = service
    hops = 1
    for _ in range(MAX_REFINEMENTS):
        result: DemuxResult = current.demux(msg, current_service, offset)
        if result.path is not None:
            chosen = result.path
            group = getattr(chosen, "group", None)
            if group is not None:
                # Demux landed on a group member (typically the anchor
                # holding the port/flow binding): the selection policy
                # decides which member actually serves the message.
                member = _group_dispatch(group, msg, stats)
                if member is None:
                    return None
                if key is not None:
                    # Sticky policies pin the flow to the chosen member;
                    # others cache the demux anchor so later packets hit
                    # in one probe but are still re-dispatched above.
                    cache.insert(key, msg, member if group.policy.sticky
                                 else chosen)
                chosen = member
            elif getattr(chosen, "state", None) == DELETED:
                # Liveness guard: a demux map entry can outlive its path
                # (e.g. across a watchdog rebuild).  A dead path is no
                # path — treat it as a refinement miss and discard.
                msg.meta["drop_reason"] = (
                    f"{current.name}: stale demux entry for deleted "
                    f"path #{chosen.pid}")
                if stats is not None:
                    stats.dropped += 1
                return None
            if stats is not None:
                stats.classified += 1
            observer = getattr(chosen, "observer", None)
            if observer is not None:
                observer.on_demux(msg, hops)
            if key is not None and group is None:
                cache.insert(key, msg, chosen)
            return chosen
        if result.forward is not None:
            offset += result.consumed
            current, current_service = result.forward
            hops += 1
            if stats is not None:
                stats.refinements += 1
            continue
        msg.meta["drop_reason"] = result.reason or f"{current.name}: no path"
        if stats is not None:
            stats.dropped += 1
        return None
    raise ClassificationError(
        f"classification did not converge after {MAX_REFINEMENTS} "
        f"refinements (last router: {current.name})")

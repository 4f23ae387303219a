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

from typing import NamedTuple, Optional

from .errors import ClassificationError
from .message import Msg
from .path import DELETED, Path
from .router import DemuxResult, Router, Service

#: Refinement-hop cap: a demux cycle is a router bug, not a data property.
MAX_REFINEMENTS = 32

#: Decision sources recorded in :class:`ClassifyResult`.
SOURCE_DEMUX = "demux"              # the refinement chain decided
SOURCE_CACHE = "cache"              # a flow-cache probe decided (incl. sticky pins)
SOURCE_GROUP = "group-redispatch"   # a cached group anchor was re-dispatched


class ClassifyResult(NamedTuple):
    """The outcome of one classification decision.

    ``path`` is ``None`` for a discard (the reason is in
    ``msg.meta["drop_reason"]``).  ``source`` says who decided:
    :data:`SOURCE_DEMUX` (the refinement chain ran), :data:`SOURCE_CACHE`
    (a flow-cache probe, including sticky group pins), or
    :data:`SOURCE_GROUP` (a cached group anchor whose selection policy
    re-dispatched the message).

    Being a ``NamedTuple``, it unpacks like a plain pair:
    ``path, source = classify_ex(...)``.
    """

    path: Optional[Path]
    source: str = SOURCE_DEMUX


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


def classify_ex(router: Router, msg: Msg, service: Optional[Service] = None,
                stats: Optional[ClassifierStats] = None,
                cache=None) -> ClassifyResult:
    """Run the incremental demux chain starting at *router*.

    This is the canonical classifier; :func:`classify` and
    :func:`classify_or_raise` are path-only shims over it.  Returns a
    :class:`ClassifyResult` whose ``path`` is ``None`` when no
    appropriate path exists (the data is to be discarded; the reason is
    recorded in ``msg.meta["drop_reason"]`` for observability).

    When a *cache* (:class:`~repro.core.flowcache.FlowCache`) is
    supplied it is consulted before the refinement chain — an established
    flow classifies in one probe — and successful chain classifications
    populate it.  The message is keyed once, for both.  The cache itself
    guarantees it never returns a path that is not ESTABLISHED.  A burst
    of arrivals is this call once per message, in arrival order (see
    ``PathRuntime.rx_burst``): the first message of a new flow inserts
    the entry the flow's later messages hit.

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
    key = cache.key_of(msg) if cache is not None else None
    if key is not None:
        path = cache.lookup_key(key, msg)
        source = SOURCE_CACHE
        if path is not None and path.group is not None:
            group = path.group
            if not group.policy.sticky:
                # A cached group anchor: the policy re-dispatches every
                # message.
                source = SOURCE_GROUP
                path = _group_dispatch(group, msg, stats)
                if path is None:
                    return ClassifyResult(None, SOURCE_GROUP)
            elif group.take_respread():
                # The policy dropped its pins: re-walk the chain so the
                # flow is re-placed.
                path = None
        if path is not None:
            if stats is not None:
                stats.classified += 1
                stats.cache_hits += 1
            msg.meta["path"] = path
            observer = path.observer
            if observer is not None:
                observer.on_demux(msg, 1)
            return ClassifyResult(path, source)
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
                    return ClassifyResult(None, SOURCE_DEMUX)
                if key is not None:
                    # Sticky policies pin the flow to the chosen member;
                    # others cache the demux anchor so later packets hit
                    # in one probe but are still re-dispatched above.
                    cache.insert_key(key, msg, member if group.policy.sticky
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
                return ClassifyResult(None, SOURCE_DEMUX)
            if stats is not None:
                stats.classified += 1
            msg.meta["path"] = chosen
            observer = getattr(chosen, "observer", None)
            if observer is not None:
                observer.on_demux(msg, hops)
            if key is not None and group is None:
                cache.insert_key(key, msg, chosen)
            return ClassifyResult(chosen, SOURCE_DEMUX)
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
        return ClassifyResult(None, SOURCE_DEMUX)
    raise ClassificationError(
        f"classification did not converge after {MAX_REFINEMENTS} "
        f"refinements (last router: {current.name})")


def classify(router: Router, msg: Msg, service: Optional[Service] = None,
             stats: Optional[ClassifierStats] = None,
             cache=None) -> Optional[Path]:
    """Path-only shim over :func:`classify_ex` (the historical surface).

    Returns the path to use, or ``None`` when no appropriate path exists
    (the data is to be discarded; the reason is recorded in
    ``msg.meta["drop_reason"]``).  Callers that care *how* the decision
    was made — demux chain, flow-cache probe, or group re-dispatch — use
    :func:`classify_ex` and read :class:`ClassifyResult`.
    """
    return classify_ex(router, msg, service, stats, cache).path


def classify_or_raise(router: Router, msg: Msg,
                      service: Optional[Service] = None) -> Path:
    """Like :func:`classify` but raises on discard, for callers that treat
    unclassifiable data as an error (tests, mostly)."""
    path = classify(router, msg, service)
    if path is None:
        raise ClassificationError(msg.meta.get("drop_reason", "no path"))
    return path

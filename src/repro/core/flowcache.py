"""The demux flow cache: O(1) classification for established flows.

Section 3.5 requires the classifier to be "efficient enough that it can
be used even under the highest loads".  The incremental demux chain is a
handful of dictionary probes, but it is *per-router* work: every arriving
frame walks ETH -> IP -> UDP -> ... even when thousands of identical
frames belong to the same long-lived video flow.  The flow cache collapses
the common case to a single dictionary probe keyed on the exact header
bytes that determine the routing decision — the "flow caching" fast path
surveyed for programmable routers (see PAPERS.md).

Correctness rules (enforced here, exercised by the chaos test):

* the cache **never** returns a path whose state is not ESTABLISHED: a
  stale entry (the path was deleted behind the cache's back) is treated
  as a miss and evicted on the spot;
* inserting a path registers the cache with the path, so
  :meth:`~repro.core.path.Path.delete` invalidates every key pointing at
  it *synchronously* — a watchdog rebuild or ``stop_video`` can never
  leave a dangling entry;
* capacity is bounded; insertion beyond capacity evicts the
  least-recently-used entry (lookups refresh recency).

The cache is policy-free about what constitutes a flow: the owner supplies
``key_of(msg) -> Optional[bytes]`` (return ``None`` for ineligible
traffic, which bypasses the cache entirely) and an optional
``annotate(msg, key)`` hook that reproduces whatever ``msg.meta``
annotations the demux chain would have stashed (the SHELL's reply path
reads ``meta["ip_src"]``, so a cache hit must not lose it).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Set

from .path import ESTABLISHED, Path

#: Frame layout offsets for :func:`flow_key` (ETH 14 + IP 20 +
#: UDP 8 — the minimum frame that can carry a keyable flow).
_FLOW_KEY_BYTES = 42
_ETHERTYPE_IPV4 = b"\x08\x00"
_IPPROTO_UDP = 17

#: The validated-fast-receive ``msg.meta`` stamps (DESIGN.md §13) an
#: ``annotate`` hook installs on a flow-cache hit.  A stamp asserts the
#: corresponding layer's checks already passed during classification, so
#: the stage may skip validation; the specialized execution tier
#: (DESIGN.md §15) additionally requires *all* of them per message before
#: running a fused ETH/IP/UDP body.  Kernel and benchmarks share this
#: tuple so the stamp names can never drift apart.
VALIDATED_STAMPS = ("eth_validated", "ip_validated", "udp_validated")


def flow_key(msg: Any) -> Optional[bytes]:
    """Exact-match flow key for non-fragmented IPv4/UDP frames.

    The key covers every header byte the demux chain's routing decision
    depends on — eth dst, IP protocol, IP source/destination, UDP ports —
    and deliberately excludes the bytes that vary per packet of the same
    flow (total length, ident, TTL, checksums, UDP length).  Anything
    else (ARP, ICMP, TCP, fragments, IP options) returns ``None`` and
    takes the full refinement chain, so correctness never depends on the
    cache understanding a protocol.

    This is the single source of truth for "what is a flow": the
    :class:`FlowCache` keys its entries on it, and the shard fabric's
    dispatcher (:mod:`repro.shard.dispatch`) hashes exactly the same
    bytes to pin a flow to a shard — so a flow-cache entry and a shard
    pinning can never disagree about flow identity.
    """
    if len(msg) < _FLOW_KEY_BYTES:
        return None
    head = msg.peek(_FLOW_KEY_BYTES)
    if head[12:14] != _ETHERTYPE_IPV4:
        return None
    if head[14] != 0x45:  # IPv4 with no options (IHL == 5)
        return None
    if head[23] != _IPPROTO_UDP:
        return None
    if (head[20] & 0x3F) or head[21]:  # MF flag or nonzero fragment offset
        return None
    return head[0:6] + head[23:24] + head[26:38]


def flow_key_frame(frame: bytes) -> Optional[bytes]:
    """:func:`flow_key` over raw wire bytes (no :class:`Msg` wrapper).

    The shard dispatcher classifies at the RX boundary, before any
    ``Msg`` exists; slicing the frame directly keeps that peek free of
    per-frame object construction.  Returns exactly what
    :func:`flow_key` would return for ``Msg(frame)``.
    """
    if len(frame) < _FLOW_KEY_BYTES:
        return None
    if frame[12:14] != _ETHERTYPE_IPV4:
        return None
    if frame[14] != 0x45:
        return None
    if frame[23] != _IPPROTO_UDP:
        return None
    if (frame[20] & 0x3F) or frame[21]:
        return None
    return frame[0:6] + frame[23:24] + frame[26:38]


class FlowCache:
    """Bounded LRU map from flow keys to established paths.

    Parameters
    ----------
    capacity:
        Maximum number of cached flows; the least recently used entry is
        evicted to admit a new one.
    key_of:
        ``key_of(msg) -> Optional[bytes]``; ``None`` marks the message
        ineligible (the lookup is a miss and the classification result is
        not inserted).  Defaults to :func:`flow_key`.
    annotate:
        Optional ``annotate(msg, key)`` run on every hit to reproduce the
        ``msg.meta`` annotations the skipped demux chain would have made.
    """

    def __init__(self, capacity: int = 128,
                 key_of: Optional[Callable[[Any], Optional[bytes]]] = None,
                 annotate: Optional[Callable[[Any, bytes], None]] = None):
        if capacity < 1:
            raise ValueError("flow cache capacity must be positive")
        self.capacity = capacity
        self.key_of = key_of if key_of is not None else flow_key
        self.annotate = annotate
        self._entries: "OrderedDict[bytes, Path]" = OrderedDict()
        self._keys_of_path: Dict[int, Set[bytes]] = {}
        #: group id -> {pid: path} for entries whose path belongs to a
        #: :class:`~repro.multipath.PathGroup`, so a group re-spread or a
        #: pool drain can drop every pinned member in one call instead of
        #: looping over members it may not even know about.
        self._group_members: Dict[int, Dict[int, Path]] = {}
        # counters
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.stale_hits = 0
        # optional metric mirrors (pre-created Counter objects)
        self._metric_hits = None
        self._metric_misses = None
        self._metric_evictions = None
        self._metric_invalidations = None

    def __len__(self) -> int:
        return len(self._entries)

    # -- the fast path ------------------------------------------------------

    def lookup(self, msg: Any) -> Optional[Path]:
        """Return the established path for *msg*, or ``None`` on a miss.

        A hit refreshes the entry's recency and runs the ``annotate``
        hook.  An entry whose path is no longer ESTABLISHED is evicted
        and reported as a miss — the cache never returns a dead path.
        """
        key = self.key_of(msg)
        if key is None:
            return None
        return self.lookup_key(key, msg)

    def lookup_key(self, key: bytes, msg: Any) -> Optional[Path]:
        """:meth:`lookup` with a precomputed *key*.

        Batch classification (:func:`repro.core.classify.classify_batch`)
        computes every message's key once to group arrivals into runs;
        run followers probe with that key instead of re-slicing the
        header.  Accounting (hits/misses/stale evictions, metric mirrors,
        the ``annotate`` hook, LRU recency) is identical to
        :meth:`lookup`, so batched and per-message counters reconcile
        exactly.
        """
        path = self._entries.get(key)
        if path is None:
            self.misses += 1
            if self._metric_misses is not None:
                self._metric_misses.inc()
            return None
        if path.state != ESTABLISHED:
            # Stale: the path died without invalidating (defense in depth;
            # Path.delete normally purges its keys synchronously).
            self._discard_key(key)
            self.stale_hits += 1
            self.misses += 1
            if self._metric_misses is not None:
                self._metric_misses.inc()
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        if self._metric_hits is not None:
            self._metric_hits.inc()
        if self.annotate is not None:
            self.annotate(msg, key)
        return path

    # -- population ---------------------------------------------------------

    def insert(self, msg: Any, path: Path) -> bool:
        """Cache *path* as the classification of *msg*'s flow.

        Only ESTABLISHED paths are admitted.  Returns True when an entry
        was installed (or refreshed).
        """
        if path.state != ESTABLISHED:
            return False
        key = self.key_of(msg)
        if key is None:
            return False
        previous = self._entries.get(key)
        if previous is not None and previous is not path:
            self._discard_key(key)
        self._entries[key] = path
        self._entries.move_to_end(key)
        self._keys_of_path.setdefault(path.pid, set()).add(key)
        gid = getattr(path, "group_id", None)
        if gid is not None:
            self._group_members.setdefault(gid, {})[path.pid] = path
        path.register_flow_cache(self)
        while len(self._entries) > self.capacity:
            old_key, old_path = self._entries.popitem(last=False)
            self._keys_of_path.get(old_path.pid, set()).discard(old_key)
            self.evictions += 1
            if self._metric_evictions is not None:
                self._metric_evictions.inc()
        return True

    # -- invalidation -------------------------------------------------------

    def invalidate_path(self, path: Path) -> int:
        """Remove every entry pointing at *path*; returns how many."""
        gid = getattr(path, "group_id", None)
        if gid is not None:
            members = self._group_members.get(gid)
            if members is not None:
                members.pop(path.pid, None)
                if not members:
                    self._group_members.pop(gid, None)
        keys = self._keys_of_path.pop(path.pid, None)
        if not keys:
            return 0
        removed = 0
        for key in keys:
            if self._entries.pop(key, None) is not None:
                removed += 1
        self.invalidations += removed
        if removed and self._metric_invalidations is not None:
            self._metric_invalidations.inc(removed)
        return removed

    def invalidate_key(self, key: bytes) -> bool:
        """Remove the single entry for *key*, if present.

        The shard fabric's ``rebalance`` protocol uses this: migrating a
        flow's pinning must unpin exactly that flow on the old shard so
        its next packet re-walks the refinement chain there, without
        disturbing other flows that happen to share the same path.
        """
        if key not in self._entries:
            return False
        self._discard_key(key)
        self.invalidations += 1
        if self._metric_invalidations is not None:
            self._metric_invalidations.inc()
        return True

    def invalidate_group(self, gid: int) -> int:
        """Bulk-drop every entry pinned to a member of path group *gid*.

        This is the re-spread primitive: one call unpins every flow the
        group's selection policy placed, so the next packet of each flow
        re-walks the refinement chain and is re-dispatched.  Pool drains
        use it the same way.  Returns how many entries were removed.
        """
        members = self._group_members.pop(gid, None)
        if not members:
            return 0
        removed = 0
        for path in members.values():
            removed += self.invalidate_path(path)
        return removed

    def clear(self) -> int:
        """Drop every entry (watchdog rebuild / reconfiguration sledge)."""
        removed = len(self._entries)
        self._entries.clear()
        self._keys_of_path.clear()
        self._group_members.clear()
        self.invalidations += removed
        if removed and self._metric_invalidations is not None:
            self._metric_invalidations.inc(removed)
        return removed

    def _discard_key(self, key: bytes) -> None:
        path = self._entries.pop(key, None)
        if path is not None:
            self._keys_of_path.get(path.pid, set()).discard(key)

    # -- observability ------------------------------------------------------

    def bind_metrics(self, registry: Any, name: str = "flow_cache") -> None:
        """Mirror the counters into a metrics registry (``repro.observe``).

        Pre-creates the counter series so the per-packet cost of the
        mirror is a single bound-method call.
        """
        self._metric_hits = registry.counter(f"{name}_hits_total")
        self._metric_misses = registry.counter(f"{name}_misses_total")
        self._metric_evictions = registry.counter(f"{name}_evictions_total")
        self._metric_invalidations = registry.counter(
            f"{name}_invalidations_total")

    def stats(self) -> Dict[str, int]:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "stale_hits": self.stale_hits,
        }

    def __repr__(self) -> str:
        return (f"<FlowCache {len(self._entries)}/{self.capacity} "
                f"hits={self.hits} misses={self.misses}>")

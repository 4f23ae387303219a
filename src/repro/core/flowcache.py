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
* inserting a path registers the cache with the path, and
  :meth:`~repro.core.path.Path.purge_flow_caches` — which
  :meth:`~repro.core.path.Path.delete` runs first — drops every entry
  pointing at it *synchronously*, so no teardown can leave a dangling
  entry and no owner of a cache needs teardown code of its own;
* capacity is bounded; insertion beyond capacity evicts the
  least-recently-used entry (lookups refresh recency).

The cache is one map: a hit is one probe, a miss one insert.  Purging
a path scans the ``capacity`` entries, a cost paid at teardown, pool
park, early-discard change or re-spread — never per frame.

What constitutes a flow is :func:`flow_key_frame`'s answer: the
classifier keys each message once and hands the key to the probe and
the insert (``None``, ineligible traffic, bypasses the cache entirely).
The owner supplies an optional ``annotate(msg, key)`` hook that
reproduces whatever ``msg.meta`` annotations the demux chain would have
stashed (the SHELL's reply path reads ``meta["ip_src"]``, so a cache hit
must not lose it).

A hit costs one key, one dictionary probe and one ``dict.update``: the
hook runs once per entry, when the entry is inserted, against a blank
``meta``, and what it writes is kept on the entry — bounded by
``capacity``, evicted and invalidated with it.  Every hit copies those
annotations into the message's own ``meta``, so a reader that pops a
stamp pops its message's copy and never the entry's.  The hook may
therefore write only what the key bytes determine; a field that varies
between frames of one flow (ETH's source MAC) is the owner's to read
per frame.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Optional

from .path import ESTABLISHED, Path

#: Bytes a frame needs to carry a keyable flow (ETH 14 + IP 20 + UDP 8).
FLOW_KEY_BYTES = 42
_ETHERTYPE_IPV4 = b"\x08\x00"
_IPPROTO_UDP = 17


def flow_key_frame(frame: bytes) -> Optional[bytes]:
    """Exact-match flow key for non-fragmented IPv4/UDP frames.

    The key covers every header byte the demux chain's routing decision
    depends on — eth dst, IP protocol, IP source/destination, UDP ports —
    and deliberately excludes the bytes that vary per packet of the same
    flow (total length, ident, TTL, checksums, UDP length).  Anything
    else (ARP, ICMP, TCP, fragments, IP options) returns ``None`` and
    takes the full refinement chain, so correctness never depends on the
    cache understanding a protocol.  So does a frame to a group address
    (broadcast or multicast: bit 0 of the destination's first byte): its
    destination bytes are the same on every NIC, so they cannot tell a
    multi-port kernel's ingress ports apart.

    This is the single source of truth for "what is a flow": the
    classifier keys :class:`FlowCache` entries on it, and the shard
    fabric's dispatcher (:mod:`repro.shard.dispatch`) hashes exactly the same bytes of the raw frame, before any ``Msg``
    exists, to pin a flow to a shard — so a flow-cache entry and a shard
    pinning can never disagree about flow identity.
    """
    if len(frame) < FLOW_KEY_BYTES:
        return None
    if frame[0] & 1:  # group-addressed destination
        return None
    if frame[12:14] != _ETHERTYPE_IPV4:
        return None
    if frame[14] != 0x45:  # IPv4 with no options (IHL == 5)
        return None
    if frame[23] != _IPPROTO_UDP:
        return None
    if (frame[20] & 0x3F) or frame[21]:  # MF flag or nonzero fragment offset
        return None
    return frame[0:6] + frame[23:24] + frame[26:38]


class FlowCache:
    """Bounded LRU map from flow keys to established paths.

    Parameters
    ----------
    capacity:
        Maximum number of cached flows; the least recently used entry is
        evicted to admit a new one.
    annotate:
        Optional ``annotate(msg, key)`` that writes into ``msg.meta`` the
        annotations the skipped demux chain would have made.  It runs
        once per inserted entry, with ``msg.meta`` swapped for a blank
        dict; what it wrote is kept on the entry and copied into every
        hit's ``meta``.  It must write only values *key* determines.
    """

    def __init__(self, capacity: int = 128,
                 annotate: Optional[Callable[[Any, bytes], None]] = None):
        if capacity < 1:
            raise ValueError("flow cache capacity must be positive")
        self.capacity = capacity
        self.annotate = annotate
        #: key -> (path, annotations); annotations is ``None`` without a
        #: hook.
        self._entries: "OrderedDict[bytes, tuple]" = OrderedDict()
        # counters
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.stale_hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- the fast path ------------------------------------------------------

    def lookup(self, key: bytes, msg: Any) -> Optional[Path]:
        """Return the established path cached under *key* (*msg*'s flow
        key), or ``None`` on a miss.

        A hit refreshes the entry's recency and copies the entry's
        annotations into ``msg.meta``.  An entry whose path is no longer
        ESTABLISHED is evicted and reported as a miss — the cache never
        returns a dead path.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        path, annotations = entry
        if path.state != ESTABLISHED:
            # Stale: the path died without invalidating (defense in depth;
            # Path.delete normally purges its keys synchronously).
            del self._entries[key]
            self.stale_hits += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        if annotations is not None:
            msg.meta.update(annotations)
        return path

    # -- population ---------------------------------------------------------

    def insert(self, key: bytes, msg: Any, path: Path) -> bool:
        """Cache *path* as the classification of the flow *key*, which
        *msg* belongs to.

        Only ESTABLISHED paths are admitted.  Returns True when an entry
        was installed (or refreshed).  The entry's annotations are
        derived here, once: the ``annotate`` hook runs against *msg*
        with a blank ``meta``.
        """
        if path.state != ESTABLISHED:
            return False
        self._entries[key] = (path, self._annotations(msg, key))
        self._entries.move_to_end(key)
        path.register_flow_cache(self)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return True

    def _annotations(self, msg: Any, key: bytes) -> Optional[dict]:
        """What ``annotate`` writes for *key*, captured in a fresh dict."""
        if self.annotate is None:
            return None
        saved, msg.meta = msg.meta, {}
        try:
            self.annotate(msg, key)
            annotations = msg.meta
        finally:
            msg.meta = saved
        return annotations

    # -- invalidation -------------------------------------------------------

    def invalidate_path(self, path: Path) -> int:
        """Remove every entry pointing at *path*; returns how many.
        :meth:`~repro.core.path.Path.purge_flow_caches` is the caller."""
        entries = self._entries
        keys = [key for key, entry in entries.items() if entry[0] is path]
        for key in keys:
            del entries[key]
        self.invalidations += len(keys)
        return len(keys)

    def invalidate_key(self, key: bytes) -> bool:
        """Remove the single entry for *key*, if present.

        The shard fabric's ``rebalance`` protocol uses this: migrating a
        flow's pinning must unpin exactly that flow on the old shard so
        its next packet re-walks the refinement chain there, without
        disturbing other flows that happen to share the same path.
        """
        if self._entries.pop(key, None) is None:
            return False
        self.invalidations += 1
        return True

    # -- observability ------------------------------------------------------

    def bind_metrics(self, registry: Any, name: str = "flow_cache") -> None:
        """Expose the counters as ``<name>_*_total`` series that a metrics
        registry reads on every lookup: a probe pays nothing for it."""
        registry.collect(lambda: [
            (f"{name}_{field}_total", {}, getattr(self, field))
            for field in ("hits", "misses", "evictions", "invalidations")])

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

"""PathGroup: one flow class served by N parallel paths.

The paper's invariant is "one flow → one path"; a group relaxes it to
"one flow class → a set of structurally identical paths" while keeping
every per-path property the paper cares about — early demux, per-path
accounting, per-path scheduling — intact, because each member *is* an
ordinary path.  The only new mechanism is the dispatch decision, and that
happens exactly where the paper puts classification: at the demux
boundary (see :func:`repro.core.classify.classify`).

Lifecycle integration:

* membership is advertised on the path itself (``path.group``), so the
  classifier needs one attribute probe on the common no-group case;
* every member gets a delete hook: a member dying (watchdog rebuild,
  explicit teardown) removes itself from the group and fires the group's
  membership hooks, so demux anchors can be re-bound and warm spares
  promoted without the deleter knowing groups exist;
* an optional ``affinity_of(msg)`` keeps related messages on one member —
  the MPEG kernel uses the frame number, since a frame's packets must all
  take the same path to reassemble.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional

from ..core.path import ESTABLISHED, Path
from .policies import SelectionPolicy, bottleneck_depth, make_policy

_gid_counter = itertools.count(1)

#: Membership-event names passed to on-change hooks.
MEMBER_ADDED, MEMBER_REMOVED = "added", "removed"


class PathGroup:
    """A set of parallel paths dispatched by a selection policy.

    Parameters
    ----------
    policy:
        A :class:`~repro.multipath.SelectionPolicy` instance, class, or
        registry name (``"round_robin"``, ``"least_loaded"``,
        ``"deadline_slack"``, ``"weighted_accounting"``).
    name:
        Display name for metrics/diagnostics.
    affinity_of:
        Optional ``affinity_of(msg) -> Optional[hashable]``; messages
        with equal non-None affinity keys are dispatched to the same
        member (as long as it stays live).  The affinity map is bounded
        LRU so an adversarial key stream cannot grow it without bound.
    affinity_capacity:
        Bound on the affinity map.
    min_respread_interval:
        Debounce for sticky re-spreads: at least this many dispatches
        must happen between two pin invalidations, so a policy whose
        imbalance test stays true for a while cannot thrash the cache.
    """

    def __init__(self, policy: Any = "round_robin",
                 name: Optional[str] = None,
                 affinity_of: Optional[Callable[[Any], Any]] = None,
                 affinity_capacity: int = 256,
                 min_respread_interval: int = 64):
        self.gid = next(_gid_counter)
        self.name = name or f"group{self.gid}"
        self.policy: SelectionPolicy = make_policy(policy)
        self.members: List[Path] = []
        self.affinity_of = affinity_of
        self.affinity_capacity = affinity_capacity
        self._affinity: "OrderedDict[Any, Path]" = OrderedDict()
        self.min_respread_interval = min_respread_interval
        self._dispatches_since_respread = min_respread_interval
        self._on_change: List[Callable[["PathGroup", Path, str], None]] = []
        # counters
        self.dispatches = 0
        self.dispatch_failures = 0
        self.respreads = 0
        self.members_added = 0
        self.members_removed = 0

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return (f"<PathGroup #{self.gid} {self.name!r} "
                f"policy={self.policy.name} members={len(self.members)}>")

    # -- membership ---------------------------------------------------------

    def add(self, path: Path) -> Path:
        """Add *path* as a member (idempotent).

        The path must not belong to another group — a path has one
        accounting identity and splitting it across groups would make
        both groups' load signals lie.
        """
        if path.group is self:
            return path
        if path.group is not None:
            raise ValueError(
                f"path #{path.pid} already belongs to {path.group!r}")
        path.group = self
        path.add_delete_hook(self._on_member_delete)
        self.members.append(path)
        self.members_added += 1
        self._fire(path, MEMBER_ADDED)
        return path

    def remove(self, path: Path) -> None:
        """Detach *path* (idempotent); the path itself stays alive."""
        if path.group is not self:
            return
        self.members.remove(path)
        path.group = None
        self._drop_affinities(path)
        self.members_removed += 1
        self._fire(path, MEMBER_REMOVED)

    def on_change(self, hook: Callable[["PathGroup", Path, str], None]
                  ) -> None:
        """Register ``hook(group, path, event)`` fired on every
        membership change (*event* is ``"added"`` or ``"removed"``).
        The kernel uses this to re-bind demux ports when an anchor dies;
        pools use it to top the group back up."""
        self._on_change.append(hook)

    def live_members(self) -> List[Path]:
        return [p for p in self.members if p.state == ESTABLISHED]

    def _on_member_delete(self, path: Path) -> None:
        # Runs at the end of Path.delete: the member's flow-cache entries
        # are already purged and its demux bindings released, so the
        # membership hooks observe a fully-dead member.
        self.remove(path)

    def _fire(self, path: Path, event: str) -> None:
        for hook in list(self._on_change):
            hook(self, path, event)

    # -- dispatch (called by the classifier) --------------------------------

    def dispatch(self, msg: Any) -> Optional[Path]:
        """Select the live member that serves *msg*, or ``None`` when the
        group has no live member (the caller records the drop)."""
        live = self.live_members()
        if not live:
            return None
        self.dispatches += 1
        self._dispatches_since_respread += 1
        if self.affinity_of is not None:
            key = self.affinity_of(msg)
            if key is not None:
                return self._dispatch_with_affinity(key, live, msg)
        return self.policy.select(live, msg)

    def _dispatch_with_affinity(self, key: Any, live: List[Path],
                                msg: Any) -> Path:
        member = self._affinity.get(key)
        if member is not None and member.state == ESTABLISHED:
            self._affinity.move_to_end(key)
            return member
        member = self.policy.select(live, msg)
        self._affinity[key] = member
        self._affinity.move_to_end(key)
        while len(self._affinity) > self.affinity_capacity:
            self._affinity.popitem(last=False)
        return member

    def take_respread(self) -> bool:
        """Consulted by the classifier on sticky cache hits: True means
        the group's pins were just dropped (:meth:`purge_pins`) and the
        debounce reset, so the message re-walks the chain."""
        if not self.policy.sticky:
            return False
        if self._dispatches_since_respread < self.min_respread_interval:
            return False
        if not self.policy.should_respread(self.live_members()):
            return False
        self._dispatches_since_respread = 0
        self.respreads += 1
        self.purge_pins()
        return True

    def purge_pins(self) -> int:
        """Drop every flow-cache entry pointing at a member, so each
        flow's next packet re-walks the refinement chain and is placed
        afresh (re-spread, failover).  Returns how many were removed."""
        return sum(member.purge_flow_caches() for member in self.members)

    def note_dispatch_failure(self) -> None:
        self.dispatch_failures += 1

    def _drop_affinities(self, path: Path) -> None:
        stale = [k for k, p in self._affinity.items() if p is path]
        for key in stale:
            del self._affinity[key]

    # -- observability ------------------------------------------------------

    def bind_metrics(self, registry: Any, name: str = "multipath") -> None:
        """Expose the counters as ``<name>_*_total{group,policy}`` series
        that a metrics registry reads on every lookup."""
        labels = {"group": self.name, "policy": self.policy.name}
        registry.collect(lambda: [
            (f"{name}_{field}_total", labels, getattr(self, field))
            for field in ("dispatches", "dispatch_failures", "respreads")])

    def stats(self) -> Dict[str, Any]:
        live = self.live_members()
        return {
            "gid": self.gid,
            "name": self.name,
            "policy": self.policy.name,
            "members": len(self.members),
            "live_members": len(live),
            "dispatches": self.dispatches,
            "dispatch_failures": self.dispatch_failures,
            "respreads": self.respreads,
            "members_added": self.members_added,
            "members_removed": self.members_removed,
            "bottleneck_depths": {p.pid: bottleneck_depth(p) for p in live},
        }

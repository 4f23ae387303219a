"""PathPool: warm, pre-established paths keyed on their invariant set.

Path creation is the expensive end of the paper's architecture — the
four-phase pipeline walks the router graph, runs establish hooks, applies
transformation rules, and compiles the deliver chain.  For workloads that
create and destroy structurally identical paths at high rate (a web
server's per-client connection paths, a group's replacement members), the
pool amortizes that cost: paths are created once, parked ESTABLISHED, and
handed out on demand in O(1).

Design points:

* **keying** — paths are interchangeable iff their creation invariants
  match; :func:`canonical_signature` canonicalizes an attribute set
  (private ``_``-prefixed bookkeeping keys excluded) into a hashable key;
* **admission-integrated** — pooled paths are real paths created through
  :func:`~repro.core.path_create.path_create` with the pool's admission
  hook, so warm spares count against the memory budget exactly like live
  paths, and their grants auto-release on delete (the pool can never leak
  budget);
* **self-cleaning** — every pooled path, pool-created or donated,
  carries a delete hook that drops it from the pool if something else (a
  watchdog, an explicit ``path_delete``) destroys it behind the pool's
  back, and parking a path purges its flow-cache entries so no cached
  flow keeps classifying onto an idle spare;
* **low-watermark refill** — ``acquire`` tops the bucket back up to
  ``low_watermark`` after a hit, so a burst of acquisitions finds warm
  paths instead of degrading to cold creates.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..core.attributes import Attrs, as_attrs
from ..core.path import ESTABLISHED, Path
from ..core.path_create import path_create

Signature = Tuple[Tuple[str, str], ...]


def canonical_signature(attrs: Any) -> Signature:
    """Canonicalize an invariant set into a hashable pool key.

    Keys are sorted; values are compared by ``repr`` so unhashable
    attribute values (lists, dicts) still key correctly; ``_``-prefixed
    keys are bookkeeping stamped onto the attrs *by* path machinery
    (applied transforms, observability probes) rather than invariants the
    creator asked for, so they are excluded.
    """
    if isinstance(attrs, Attrs):
        mapping: Mapping[str, Any] = attrs.snapshot()
    else:
        mapping = dict(attrs or {})
    return tuple(sorted((key, repr(value)) for key, value in mapping.items()
                        if not key.startswith("_")))


class PathPool:
    """A keyed pool of warm (pre-established) paths.

    Parameters
    ----------
    router:
        The router paths are created on (first argument of
        :func:`path_create`).
    transforms, admission:
        Passed through to :func:`path_create` for every path the pool
        creates; the admission hook makes warm spares count against the
        system budget.
    low_watermark:
        After a warm hit, the bucket is refilled back up to this many
        idle paths (0 disables refill).
    max_idle:
        Hard cap per bucket; :meth:`release` deletes instead of parking
        beyond it.
    """

    def __init__(self, router: Any, transforms: Any = None,
                 admission: Optional[Callable[[Path], None]] = None,
                 low_watermark: int = 0, max_idle: int = 16):
        if max_idle < 1:
            raise ValueError("max_idle must be positive")
        if low_watermark > max_idle:
            raise ValueError("low_watermark cannot exceed max_idle")
        self.router = router
        self.transforms = transforms
        self.admission = admission
        self.low_watermark = low_watermark
        self.max_idle = max_idle
        self._idle: Dict[Signature, List[Path]] = {}
        self._signature_of: Dict[int, Signature] = {}  # pid -> bucket key
        #: pid -> signature of the attrs the path was *requested* with.
        #: Creation stamps routing bookkeeping (resolved link addresses,
        #: ethertypes) onto the attribute set, so the path's final attrs
        #: hash differently from the invariants the next caller will ask
        #: for — release() must park under the birth signature.
        self._birth_signature: Dict[int, Signature] = {}
        # counters
        self.hits = 0
        self.misses = 0
        self.prewarmed = 0
        self.refills = 0
        self.parked = 0
        self.discards = 0

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._idle.values())

    def idle_count(self, attrs: Any) -> int:
        return len(self._idle.get(canonical_signature(attrs), ()))

    def __repr__(self) -> str:
        return (f"<PathPool idle={len(self)} buckets={len(self._idle)} "
                f"hits={self.hits} misses={self.misses}>")

    # -- creation -----------------------------------------------------------

    def _create(self, attrs: Attrs, sig: Signature) -> Path:
        # Every path gets its own copy of the invariants: creation and
        # the runtime stamp per-path bookkeeping (resolved addresses,
        # deadline probes) onto the attribute set, which must not be
        # shared between siblings or leak back to the caller.
        path = path_create(self.router, Attrs(attrs.snapshot()),
                           transforms=self.transforms,
                           admission=self.admission)
        path.add_delete_hook(self._on_path_delete)
        self._birth_signature[path.pid] = sig
        return path

    def prewarm(self, attrs: Any, count: int = 1) -> int:
        """Create *count* paths for *attrs* and park them.  Returns how
        many were actually added (the bucket cap may bite)."""
        attrs = as_attrs(attrs)
        sig = canonical_signature(attrs)
        bucket = self._idle.setdefault(sig, [])
        added = 0
        while len(bucket) < self.max_idle and added < count:
            path = self._create(attrs, sig)
            self._park(sig, bucket, path)
            added += 1
            self.prewarmed += 1
        return added

    # -- acquire / release --------------------------------------------------

    def acquire(self, attrs: Any) -> Path:
        """Return a path for *attrs*: a warm one when available (O(1)),
        a cold-created one otherwise.  Either way the caller owns it."""
        attrs = as_attrs(attrs)
        sig = canonical_signature(attrs)
        bucket = self._idle.get(sig)
        while bucket:
            path = bucket.pop()
            self._signature_of.pop(path.pid, None)
            if path.state != ESTABLISHED:
                continue  # died while parked and the hook missed it
            self.hits += 1
            self._refill(sig, attrs)
            return path
        self.misses += 1
        return self._create(attrs, sig)

    def release(self, path: Path) -> bool:
        """Park *path* for reuse.  Its flow-cache entries are purged so
        no established flow keeps resolving to an idle spare.  A path
        that is not ESTABLISHED, or whose bucket is full, is deleted
        instead (returns False)."""
        if path.state != ESTABLISHED:
            self.discards += 1
            if path.state != "deleted":
                path.delete()
            return False
        if path.group is not None:
            raise ValueError(
                f"path #{path.pid} still belongs to {path.group!r}; "
                f"remove it from the group before pooling")
        sig = self._birth_signature.get(path.pid)
        if sig is None:  # a foreign path donated to the pool
            sig = canonical_signature(path.attrs)
            self._birth_signature[path.pid] = sig
            path.add_delete_hook(self._on_path_delete)
        bucket = self._idle.setdefault(sig, [])
        if len(bucket) >= self.max_idle:
            self.discards += 1
            path.delete()
            return False
        path.purge_flow_caches()
        self._park(sig, bucket, path)
        self.parked += 1
        return True

    def discard(self, path: Path) -> None:
        """Delete *path* and forget it."""
        self._forget(path)
        self.discards += 1
        if path.state != "deleted":
            path.delete()

    def drain(self) -> int:
        """Delete every idle path (shutdown / reconfiguration).  Their
        admission grants come back via the delete hooks."""
        drained = 0
        for bucket in list(self._idle.values()):
            for path in list(bucket):
                self.discard(path)
                drained += 1
        self._idle = {sig: b for sig, b in self._idle.items() if b}
        return drained

    # -- internals ----------------------------------------------------------

    def _park(self, sig: Signature, bucket: List[Path], path: Path) -> None:
        bucket.append(path)
        self._signature_of[path.pid] = sig

    def _refill(self, sig: Signature, attrs: Attrs) -> None:
        bucket = self._idle.setdefault(sig, [])
        while len(bucket) < self.low_watermark:
            self._park(sig, bucket, self._create(attrs, sig))
            self.refills += 1

    def _forget(self, path: Path) -> None:
        sig = self._signature_of.pop(path.pid, None)
        if sig is None:
            return
        bucket = self._idle.get(sig)
        if bucket is not None:
            try:
                bucket.remove(path)
            except ValueError:
                pass
            if not bucket:
                self._idle.pop(sig, None)

    def _on_path_delete(self, path: Path) -> None:
        # A pooled (or pool-created) path died behind our back — a
        # watchdog rebuild, an explicit path_delete.  Drop the idle entry
        # so acquire can never return it.
        self._forget(path)
        self._birth_signature.pop(path.pid, None)

    # -- observability ------------------------------------------------------

    def bind_metrics(self, registry: Any, name: str = "path_pool") -> None:
        registry.collect(lambda: [(f"{name}_hits_total", {}, self.hits),
                                  (f"{name}_misses_total", {}, self.misses)])

    def stats(self) -> Dict[str, Any]:
        return {
            "idle": len(self),
            "buckets": len(self._idle),
            "hits": self.hits,
            "misses": self.misses,
            "prewarmed": self.prewarmed,
            "refills": self.refills,
            "parked": self.parked,
            "discards": self.discards,
        }

"""Merged books: fabric-level metrics, ledgers, and reconciliation.

Each shard runs a whole :class:`~repro.kernel.ScoutKernel` with its own
:class:`~repro.observe.MetricsRegistry` and its own view of what it
delivered and dropped.  The fabric's *books* are the merge of those
per-shard views — and the point of this module is that the merge is
checked, not trusted: :func:`reconcile` proves that the fabric-level
:class:`~repro.observe.ledger.DropLedger` (fed only by dispatch-side
injections and fate-side accountings) agrees serial-for-serial with what
the shard kernels themselves counted.  A frame lost between the
dispatcher and a worker shows up as a ledger leak; a frame counted by
two shards shows up as a double count or a sum mismatch.  Zero tolerance
either way.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..observe.ledger import DELIVERED, DropLedger
from ..observe.metrics import MetricsRegistry

__all__ = ["ShardBooks", "FabricBooks", "reconcile"]


class ShardBooks:
    """One shard's closing statement, as its own kernel saw the run."""

    __slots__ = ("shard_id", "metrics", "account", "kernel_stats",
                 "control")

    def __init__(self, shard_id: int, metrics: MetricsRegistry,
                 account: Dict[str, Any],
                 kernel_stats: Dict[str, float],
                 control: Optional[Dict[str, Any]] = None):
        self.shard_id = shard_id
        #: The shard's private registry (counters labeled shard=<id>).
        self.metrics = metrics
        #: ``{"delivered": n, "delivered_bytes": n, "drops": {cat: n}}``
        #: summed from the shard's path stats and kernel drop counters —
        #: the :class:`~repro.core.PathStats`-side truth the fabric
        #: ledger must reconcile against exactly.
        self.account = account
        self.kernel_stats = kernel_stats
        #: Per-shard control-plane view (shedder / watchdog state).
        self.control = control or {}

    def __repr__(self) -> str:
        return (f"<ShardBooks shard={self.shard_id} "
                f"delivered={self.account.get('delivered', 0)}>")


class FabricBooks:
    """The merged, reconciled view across every shard."""

    def __init__(self, shards: Dict[int, ShardBooks],
                 ledgers: Dict[int, DropLedger]):
        self.shards = shards
        #: Fabric-owned per-shard ledgers (dispatch injects, acks close).
        self.ledgers = ledgers
        #: One registry folding every shard's series
        #: (``MetricsRegistry.merge`` — counters add, gauges keep
        #: fabric totals plus worst watermarks, histograms bucket-add).
        self.metrics = MetricsRegistry().merge(
            *(shards[sid].metrics for sid in sorted(shards)))
        #: One ledger with every serial namespaced ``(shard_id, serial)``.
        self.ledger = DropLedger.merge(ledgers)
        self.reconciliation = reconcile(self.ledger, ledgers, shards)

    @property
    def ok(self) -> bool:
        return bool(self.reconciliation["ok"])

    def governor_view(self) -> Dict[int, Dict[str, Any]]:
        """Fabric-level control-plane summary, one row per shard."""
        return {sid: dict(books.control)
                for sid, books in sorted(self.shards.items())}

    def __repr__(self) -> str:
        counts = self.ledger.counts()
        return (f"<FabricBooks shards={sorted(self.shards)} "
                f"delivered={counts.get(DELIVERED, 0)} "
                f"ok={self.ok}>")


def reconcile(merged: DropLedger, ledgers: Dict[int, DropLedger],
              shards: Dict[int, ShardBooks]) -> Dict[str, Any]:
    """Prove the merged ledger against the shards' own accounting.

    Checks, in order of how damning a failure would be:

    1. **no leaks** — every injected serial reached a terminal state;
    2. **no double counts** — no serial closed twice (a frame delivered
       by two shards, or delivered and also counted dropped);
    3. **conservation** — category counts sum to the injection count,
       and the merged totals equal the per-shard ledger sums exactly
       (the associativity the merge promises);
    4. **per-shard kernel sums** — for every shard that closed books,
       that shard's ledger slice matches what its own kernel counted:
       delivered equals the sink's receive count and each drop category
       equals the kernel-side counter.  This cross-check catches a
       *consistently wrong* ledger (a category misfiled on both sides
       of the ring would pass checks 1-3).  Dead shards cannot testify,
       so they are exempt from check 4 — but their ledgers still feed
       checks 1-3, and their ``shard_failover`` serials (fabric-side
       only; those frames never reached any kernel) are conserved.
    """
    counts = merged.counts()
    leaks = merged.leaks()
    per_shard_counts = {sid: ledger.counts()
                        for sid, ledger in ledgers.items()}
    summed: Dict[str, int] = {}
    for shard_counts in per_shard_counts.values():
        for category, n in shard_counts.items():
            summed[category] = summed.get(category, 0) + n
    conserved = (sum(counts.values()) == merged.injected
                 and counts == summed
                 and merged.injected == sum(ledger.injected
                                            for ledger in ledgers.values()))

    mismatches: List[str] = []
    for sid, books in sorted(shards.items()):
        ledger_counts = per_shard_counts.get(sid, {})
        delivered = ledger_counts.get(DELIVERED, 0)
        if delivered != books.account.get("delivered", 0):
            mismatches.append(
                f"shard {sid} delivered: ledger={delivered} "
                f"kernel={books.account.get('delivered', 0)}")
        kernel_drops = books.account.get("drops", {})
        categories = (set(ledger_counts) | set(kernel_drops)) - {
            DELIVERED, "shard_failover"}
        for category in sorted(categories):
            if ledger_counts.get(category, 0) != kernel_drops.get(category, 0):
                mismatches.append(
                    f"shard {sid} {category}: "
                    f"ledger={ledger_counts.get(category, 0)} "
                    f"kernel={kernel_drops.get(category, 0)}")

    return {
        "ok": (not leaks and not merged.double_counted and conserved
               and not mismatches),
        "injected": merged.injected,
        "counts": counts,
        "per_shard_counts": per_shard_counts,
        "leaks": leaks,
        "double_counted": list(merged.double_counted),
        "conserved": conserved,
        "mismatches": mismatches,
    }
